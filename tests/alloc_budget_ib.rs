//! Allocation budget of the InfiniBand fast path: on a warm two-node
//! go-back-N stream over pinned buffers, a 64 KiB message is 16 data
//! packets and their ACKs. Deliveries ride queue lanes whose deques keep
//! their capacity, windows and queues are ring buffers, so what reaches
//! the heap is the `Vec<QpOutput>` of each drive that has something to
//! say (six a message: `IbCluster::drive_qp` still calls the
//! `Vec`-returning `RcQp` entry points, see EXPERIMENTS "FIFO lanes" for
//! why) and the driver's own `drain_completions`, which hands its `Vec`
//! away (one a message). The budget holds that line until the cluster
//! owns its output buffer.
//!
//! This is its own test binary for the reason `alloc_budget.rs` gives:
//! it installs a counting global allocator, and nothing else may
//! allocate inside the window.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use std::sync::atomic::Ordering;

use counting_alloc::{Counting, ALLOCATIONS};
use memsim::types::PageRange;
use rdmasim::types::{SendOp, WcStatus};
use simcore::units::ByteSize;
use testbed::builder::ScenarioBuilder;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn warm_pinned_stream_stays_within_its_allocation_budget() {
    const MSG: u64 = 64 * 1024;
    const DEPTH: u64 = 64;
    const WARM_MESSAGES: u64 = 500;
    const WINDOW_MESSAGES: u64 = 2_000;
    const BUDGET_PER_1000: u64 = 7_500;

    let mut c = ScenarioBuilder::infiniband()
        .nodes(2)
        .build()
        .expect("valid scenario");
    let (qa, qb) = c.connect(0, 1);
    let src = c.alloc_buffers(0, ByteSize::bytes_exact(MSG));
    let dst = c.alloc_buffers(1, ByteSize::bytes_exact(MSG));
    for (n, qp, buf) in [(0, qa, src), (1, qb, dst)] {
        let dom = c.node(n).domain_of(qp);
        let range = PageRange::covering(buf, MSG);
        c.node_mut(n)
            .engine_mut()
            .pin_and_map(dom, range)
            .expect("pin");
    }

    let mut posted = 0;
    let mut post = |c: &mut testbed::ib::IbCluster| {
        c.post_recv(1, qb, posted, dst, MSG);
        let op = SendOp::Send {
            local: src,
            len: MSG,
        };
        c.post_send(0, qa, posted, op);
        posted += 1;
    };
    for _ in 0..DEPTH {
        post(&mut c);
    }
    // Every receive completion refills the window, as the benchmark's
    // closed loop does; send completions pile up for the end.
    let mut done = 0;
    let mut run_to = |c: &mut testbed::ib::IbCluster, target: u64| {
        while done < target {
            assert!(c.step(), "the stream never goes idle");
            if c.completions(1).is_empty() {
                continue;
            }
            for comp in c.drain_completions(1) {
                assert_eq!(comp.status, WcStatus::Success);
                done += 1;
                post(c);
            }
        }
    };
    // Send queue, in-flight window, lane deques and the cluster's
    // scratch vectors reach their steady sizes.
    run_to(&mut c, WARM_MESSAGES);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    run_to(&mut c, WARM_MESSAGES + WINDOW_MESSAGES);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let per_1000 = allocations * 1_000 / WINDOW_MESSAGES;
    println!(
        "{allocations} heap allocations over {WINDOW_MESSAGES} messages ({per_1000} per 1000)"
    );
    assert!(
        per_1000 <= BUDGET_PER_1000,
        "{per_1000} allocations per 1000 warm messages is over the {BUDGET_PER_1000} budget"
    );
    let (_, _, _, pending) = c.queue_stats();
    assert!(pending > 0, "the stream was still running");
    assert_eq!(c.node(0).engine().counters().get("npf_events"), 0);
}
