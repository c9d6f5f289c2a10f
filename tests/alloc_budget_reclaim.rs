//! Allocation budget of the Ethernet eviction path: on a warm backup-mode
//! bed whose host memory is below its resident demand, most value-page
//! touches fault, reclaim a page and hand the NPF engine the invalidation
//! to run against the IOMMU. The engine runs it straight off the access's
//! slice (copying it out first cost one allocation per invalidating touch:
//! 8 719 allocations over the window's 2 167 evictions, 4.02 each, against
//! 6 680, 3.08, without). What still reaches the heap, about three per
//! eviction, is memsim's per-fault invalidation vectors and the engine's
//! per-invalidation list of bound domains.
//!
//! This is its own test binary for the reason `alloc_budget.rs` gives:
//! it installs a counting global allocator, and nothing else may
//! allocate inside the window.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use std::sync::atomic::Ordering;

use counting_alloc::{Counting, ALLOCATIONS};
use memsim::swap::DiskConfig;
use simcore::time::SimTime;
use simcore::units::ByteSize;
use testbed::builder::ScenarioBuilder;
use testbed::eth::RxMode;
use workloads::memcached::MemcachedConfig;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn overcommitted_bed_evicts_within_its_allocation_budget() {
    const WARM_OPS: u64 = 5_000;
    const WINDOW_OPS: u64 = 10_000;
    const BUDGET_PER_EVICTION: f64 = 3.5;

    let mut bed = ScenarioBuilder::ethernet()
        .mode(RxMode::Backup)
        .instances(2)
        .conns_per_instance(4)
        .ring_entries(64)
        .host_memory(ByteSize::mib(16))
        .disk(DiskConfig::nvme())
        .memcached(MemcachedConfig {
            max_bytes: ByteSize::mib(16),
            ..MemcachedConfig::default()
        })
        .working_set_keys(10_000)
        .build()
        .expect("the scenario fits its host memory");
    let deadline = SimTime::from_secs(600);
    bed.run_until_ops(WARM_OPS, deadline)
        .expect("warm-up completes");

    let evictions =
        |bed: &testbed::eth::EthTestbed| bed.engine().memory().counters().get("evictions");
    let evicted_before = evictions(&bed);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let start = bed.total_ops();
    bed.run_until_ops(start + WINDOW_OPS, deadline)
        .expect("the window completes");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let evicted = evictions(&bed) - evicted_before;

    assert!(
        evicted > WINDOW_OPS / 10,
        "{evicted} evictions: the bed must reclaim"
    );
    let per_eviction = allocations as f64 / evicted as f64;
    println!(
        "{allocations} heap allocations over {evicted} evictions ({per_eviction:.3} per eviction)"
    );
    assert!(
        per_eviction <= BUDGET_PER_EVICTION,
        "{per_eviction:.3} allocations per eviction is over the {BUDGET_PER_EVICTION} budget"
    );
    assert_eq!(bed.total_failed_conns(), 0);
}
