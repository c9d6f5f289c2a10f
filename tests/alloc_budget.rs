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

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use simcore::time::SimTime;
use simcore::units::ByteSize;
use testbed::builder::ScenarioBuilder;
use testbed::eth::RxMode;
use workloads::memcached::MemcachedConfig;

/// Heap allocations (and reallocations) made by the process so far.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every call that can obtain memory.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// atomic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (so from `System`) with `layout`, and that `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (so from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

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
