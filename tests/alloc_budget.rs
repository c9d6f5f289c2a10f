//! Allocation budget of the Ethernet fast path: once a backup-mode bed
//! is warm, an operation (request out, response back: four segments,
//! two interrupts, a dozen events) must not reach the heap. Connection
//! state is slot-indexed, TCP effects go through buffers the bed owns
//! and counters are array slots, so what is left is the amortised
//! growth of the latency histograms.
//!
//! This is its own test binary because it installs a counting global
//! allocator; keep it to this one test so nothing else allocates
//! inside the window.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use std::sync::atomic::Ordering;

use counting_alloc::{Counting, ALLOCATIONS};
use simcore::time::SimTime;
use simcore::units::ByteSize;
use testbed::builder::ScenarioBuilder;
use testbed::eth::RxMode;
use workloads::memcached::MemcachedConfig;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn warm_backup_bed_stays_off_the_heap() {
    const WARM_OPS: u64 = 5_000;
    const WINDOW_OPS: u64 = 10_000;
    const BUDGET_PER_OP: f64 = 0.05;

    let mut bed = ScenarioBuilder::ethernet()
        .mode(RxMode::Backup)
        .instances(2)
        .conns_per_instance(4)
        .ring_entries(64)
        .host_memory(ByteSize::mib(512))
        .memcached(MemcachedConfig {
            max_bytes: ByteSize::mib(16),
            ..MemcachedConfig::default()
        })
        .working_set_keys(1_000)
        .build()
        .expect("the scenario fits its host memory");
    let deadline = SimTime::from_secs(60);
    // The cold rings fault their way warm; every buffer, queue and
    // scratch vector reaches its steady size.
    bed.run_until_ops(WARM_OPS, deadline)
        .expect("warm-up completes");
    assert!(
        bed.rx_counters().get("backup_stored") > 0,
        "rings began cold"
    );

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let start = bed.total_ops();
    bed.run_until_ops(start + WINDOW_OPS, deadline)
        .expect("the window completes");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let ops = bed.total_ops() - start;

    let per_op = allocations as f64 / ops as f64;
    println!("{allocations} heap allocations over {ops} ops ({per_op:.4} per op)");
    assert!(
        per_op <= BUDGET_PER_OP,
        "{allocations} allocations over {ops} warm ops is {per_op:.4} per op, over the {BUDGET_PER_OP} budget"
    );
    assert_eq!(bed.total_failed_conns(), 0);
}
