//! Allocation budgets of the two InfiniBand benchmark beds, one case
//! each, run in turn inside one test because the counting allocator is
//! global.
//!
//! * **Warm pinned stream.** On a two-node go-back-N stream over pinned
//!   buffers a 64 KiB message is 16 data packets and their ACKs.
//!   Deliveries ride queue lanes whose deques keep their capacity,
//!   windows and queues are ring buffers, so what reaches the heap is the
//!   `Vec<QpOutput>` of each drive that has something to say (six a
//!   message) and the driver's own `drain_completions`, which hands its
//!   `Vec` away (one a message).
//! * **Cold lossy incast.** Three senders into one receiver whose buffers
//!   are unmapped, selective repeat over a fabric that loses one packet in
//!   a thousand and ECN-marks at 20 µs of queueing. Each message costs
//!   an rNPF, an RNR NACK and a rewind of the sender's window, and every
//!   wasted packet is a drive with its own `Vec<QpOutput>`: 65.5
//!   allocations a message.
//!
//! Both budgets hold the line until the cluster owns its output buffer:
//! `IbCluster::drive_qp` still calls the `Vec`-returning `RcQp` entry
//! points (EXPERIMENTS "FIFO lanes" says why).
//!
//! This is its own test binary for the reason `alloc_budget.rs` gives:
//! it installs a counting global allocator, and nothing else may
//! allocate inside the window.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use std::sync::atomic::Ordering;

use counting_alloc::{Counting, ALLOCATIONS};
use memsim::types::{PageRange, VirtAddr};
use netsim::profile::{FabricProfile, TransportConfig};
use rdmasim::types::{QpId, RdmaTransport, SendOp, WcOpcode, WcStatus};
use simcore::time::SimDuration;
use simcore::units::ByteSize;
use testbed::builder::ScenarioBuilder;
use testbed::ib::IbCluster;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const MSG: u64 = 64 * 1024;

/// One sender-to-receiver flow of a closed loop.
struct Flow {
    sender: u32,
    send_qp: QpId,
    recv_qp: QpId,
    src: VirtAddr,
    dst: VirtAddr,
    /// Whether each message lands in a buffer of its own (a cold
    /// receiver) or all reuse one.
    spread: bool,
    posted: u64,
}

/// A closed loop of `flows` into `receiver`: every receive completion
/// posts its flow's next message, as the benchmark's driver does.
struct ClosedLoop {
    receiver: u32,
    flows: Vec<Flow>,
    done: u64,
}

impl ClosedLoop {
    fn post(&mut self, c: &mut IbCluster, index: usize) {
        let flow = &mut self.flows[index];
        let i = flow.posted;
        let wr_id = (index as u64) << 32 | i;
        let dst = if flow.spread {
            VirtAddr(flow.dst.0 + i * MSG)
        } else {
            flow.dst
        };
        c.post_recv(self.receiver, flow.recv_qp, wr_id, dst, MSG);
        let op = SendOp::Send {
            local: flow.src,
            len: MSG,
        };
        c.post_send(flow.sender, flow.send_qp, wr_id, op);
        flow.posted += 1;
    }

    /// Posts `depth` messages on every flow.
    fn start(&mut self, c: &mut IbCluster, depth: u64) {
        for _ in 0..depth {
            for index in 0..self.flows.len() {
                self.post(c, index);
            }
        }
    }

    /// Steps until `target` messages were received; send completions
    /// pile up for the end.
    fn run_to(&mut self, c: &mut IbCluster, target: u64) {
        while self.done < target {
            assert!(c.step(), "the loop never goes idle");
            if c.completions(self.receiver).is_empty() {
                continue;
            }
            for comp in c.drain_completions(self.receiver) {
                assert_eq!(comp.status, WcStatus::Success);
                assert_eq!(comp.opcode, WcOpcode::Recv);
                self.done += 1;
                self.post(c, (comp.wr_id >> 32) as usize);
            }
        }
    }

    /// Runs `warm` messages, then counts the heap allocations of the
    /// next `window` ones.
    fn allocations(&mut self, c: &mut IbCluster, warm: u64, window: u64) -> u64 {
        self.run_to(c, warm);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        self.run_to(c, warm + window);
        ALLOCATIONS.load(Ordering::Relaxed) - before
    }
}

/// Connects `senders` nodes to the last node of `c` and allocates each
/// flow's buffers: one message at the sender, and at the receiver one
/// message, or `messages` of them when each gets its own.
fn flows(c: &mut IbCluster, senders: u32, spread: Option<u64>) -> ClosedLoop {
    let receiver = senders;
    let flows = (0..senders)
        .map(|sender| {
            let (send_qp, recv_qp) = c.connect(sender, receiver);
            let src = c.alloc_buffers(sender, ByteSize::bytes_exact(MSG));
            let dst_bytes = spread.map_or(MSG, |messages| messages * MSG);
            let dst = c.alloc_buffers(receiver, ByteSize::bytes_exact(dst_bytes));
            Flow {
                sender,
                send_qp,
                recv_qp,
                src,
                dst,
                spread: spread.is_some(),
                posted: 0,
            }
        })
        .collect();
    ClosedLoop {
        receiver,
        flows,
        done: 0,
    }
}

/// The warm two-node stream over pinned buffers: allocations per 1000
/// messages.
fn warm_pinned_stream() -> u64 {
    const WARM: u64 = 500;
    const WINDOW: u64 = 2_000;
    let mut c = ScenarioBuilder::infiniband()
        .nodes(2)
        .build()
        .expect("valid scenario");
    let mut run = flows(&mut c, 1, None);
    let flow = &run.flows[0];
    for (n, qp, buf) in [(0, flow.send_qp, flow.src), (1, flow.recv_qp, flow.dst)] {
        let dom = c.node(n).domain_of(qp);
        let range = PageRange::covering(buf, MSG);
        c.node_mut(n)
            .engine_mut()
            .pin_and_map(dom, range)
            .expect("pin");
    }
    // Send queue, in-flight window, lane deques and the cluster's
    // scratch vectors reach their steady sizes during the warm-up.
    run.start(&mut c, 64);
    let allocations = run.allocations(&mut c, WARM, WINDOW);
    let (_, _, _, pending) = c.queue_stats();
    assert!(pending > 0, "the stream was still running");
    assert_eq!(c.node(0).engine().counters().get("npf_events"), 0);
    allocations * 1_000 / WINDOW
}

/// The 3-to-1 cold lossy incast: allocations per message.
fn cold_lossy_incast() -> f64 {
    const SENDERS: u32 = 3;
    const WARM: u64 = 300;
    const WINDOW: u64 = 1_500;
    let profile = FabricProfile::lossy(1e-3).with_ecn(Some(SimDuration::from_micros(20)));
    let mut c = ScenarioBuilder::infiniband()
        .nodes(SENDERS + 1)
        .profile(profile)
        .transport(TransportConfig::default().with_transport(RdmaTransport::SelectiveRepeat))
        .build()
        .expect("valid scenario");
    let per_flow = WARM + WINDOW + 64;
    let mut run = flows(&mut c, SENDERS, Some(per_flow));
    run.start(&mut c, 64);
    let allocations = run.allocations(&mut c, WARM, WINDOW);
    let receiver = c.node(SENDERS);
    assert!(
        receiver.engine().counters().get("npf_events") >= WARM + WINDOW,
        "every message faulted at the cold receiver"
    );
    allocations as f64 / WINDOW as f64
}

#[test]
fn ib_beds_stay_within_their_allocation_budgets() {
    const STREAM_BUDGET_PER_1000: u64 = 7_500;
    const INCAST_BUDGET_PER_MESSAGE: f64 = 70.0;

    let stream = warm_pinned_stream();
    println!("warm pinned stream: {stream} heap allocations per 1000 messages");
    let incast = cold_lossy_incast();
    println!("cold lossy incast: {incast:.1} heap allocations per message");
    assert!(
        stream <= STREAM_BUDGET_PER_1000,
        "{stream} allocations per 1000 warm messages is over the {STREAM_BUDGET_PER_1000} budget"
    );
    assert!(
        incast <= INCAST_BUDGET_PER_MESSAGE,
        "{incast:.1} allocations per incast message is over the {INCAST_BUDGET_PER_MESSAGE} budget"
    );
}
