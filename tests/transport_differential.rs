//! Transport differential properties (DESIGN §15).
//!
//! Three suites over the IRN-style selective-repeat transport:
//!
//! * A proptest differential: on the idealised **lossless** fabric,
//!   selective repeat and go-back-N must produce *identical completion
//!   streams* for arbitrary message schedules — same wr_ids, same
//!   lengths, same statuses, in the same order, on both the sender and
//!   receiver. Cold rings keep the RNR-NACK path engaged, so the
//!   equality covers the interaction of both disciplines with ODP
//!   faults, not just the happy path.
//! * A chaos cell: network chaos (drops, corruption, duplicates,
//!   reordering) on top of 1% random loss, under the invariant checker
//!   and the fault journal. Delivery must stay exactly-once and in
//!   order, every journal chain must stay complete and exactly tiled,
//!   and the chaos must actually have fired (so a regression that
//!   silently disables the injection point fails here).
//! * A proptest on a bare `RcQp` pair: loss, duplicates, reordering,
//!   rNPFs and RDMA reads, with every selective ACK checked against a
//!   model of the responder's park (and, in debug builds, by
//!   `send_sack` against a scan of the park itself).

use std::collections::VecDeque;

use proptest::prelude::*;

use npf::memsim::types::VirtAddr;
use npf::netsim::packet::NodeId;
use npf::netsim::profile::{FabricProfile, RdmaTransport, TransportConfig};
use npf::prelude::*;
use npf::rdmasim::rc::RcQp;
use npf::rdmasim::types::{
    Completion, DmaGate, GateDecision, MessageRange, PinnedGate, QpId, QpOutput, QpTimer, RcConfig,
    RcPacket, RcPacketKind, RecvWqe, SendOp, WcStatus,
};
use npf::simcore::instruments::Instruments;

/// Base seed, shiftable per CI matrix job like the chaos sweep's.
fn seed_base() -> u64 {
    std::env::var("CHAOS_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FF_EE00)
}

/// Runs one two-node cold-ring schedule under `transport` and returns
/// both completion streams as `(node, wr_id, len, status_ok)` tuples —
/// everything logically observable, nothing timing-dependent.
fn run_schedule(transport: RdmaTransport, lens: &[u64]) -> Vec<(u32, u64, u64, bool)> {
    let mut c: IbCluster = ScenarioBuilder::infiniband()
        .nodes(2)
        .node_memory(ByteSize::mib(256))
        .transport(TransportConfig::default().with_transport(transport))
        .seed(11)
        .build()
        .expect("differential scenario must validate");
    let (qa, qb) = c.connect(0, 1);
    let src = c.alloc_buffers(0, ByteSize::mib(4));
    let dst = c.alloc_buffers(1, ByteSize::mib(4));
    for (i, &len) in lens.iter().enumerate() {
        let i = i as u64;
        c.post_recv(1, qb, 1000 + i, dst, 4 << 20);
        c.post_send(
            0,
            qa,
            i,
            SendOp::Send {
                local: src,
                len: len.max(1),
            },
        );
    }
    c.run_until_quiescent(20_000_000);
    let mut stream = Vec::new();
    for node in 0..2u32 {
        for comp in c.drain_completions(node) {
            stream.push((node, comp.wr_id, comp.len, comp.status == WcStatus::Success));
        }
    }
    stream
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On a lossless fabric the two disciplines are observationally
    /// equivalent: selective repeat's bitmap machinery must be inert
    /// when nothing is ever lost.
    #[test]
    fn selective_repeat_matches_go_back_n_when_lossless(
        lens in proptest::collection::vec(1u64..128 * 1024, 1..12),
    ) {
        let gbn = run_schedule(RdmaTransport::GoBackN, &lens);
        let irn = run_schedule(RdmaTransport::SelectiveRepeat, &lens);
        prop_assert_eq!(gbn, irn);
    }
}

/// What the wire does to the packet at the head of one direction.
fn fate(code: u8) -> Fate {
    match code % 8 {
        0 => Fate::Drop,
        1 => Fate::Duplicate,
        2 => Fate::Delay,
        _ => Fate::Deliver,
    }
}

#[derive(Debug, Clone, Copy)]
enum Fate {
    Deliver,
    Drop,
    /// Deliver it, and a copy later.
    Duplicate,
    /// Send it to the back of its direction's queue.
    Delay,
}

/// A responder gate whose scatters fault as its schedule says and then
/// never again: every fault is an rNPF, answered with an RNR NACK.
struct ScheduledFaults(std::vec::IntoIter<bool>);

impl DmaGate for ScheduledFaults {
    fn gather(&mut self, _: QpId, _: VirtAddr, _: u64, _: MessageRange) -> GateDecision {
        GateDecision::Ok
    }
    fn scatter(&mut self, _: QpId, _: VirtAddr, _: u64, _: MessageRange) -> GateDecision {
        match self.0.next() {
            Some(true) => GateDecision::Fault { fault_id: 1 },
            _ => GateDecision::Ok,
        }
    }
}

/// One end of the bare pair: its QP, armed timers and completions.
struct End {
    qp: RcQp,
    timers: [Option<SimTime>; QpTimer::COUNT],
    done: Vec<Completion>,
}

impl End {
    /// Applies `outs`, putting packets on `wire`.
    fn absorb(&mut self, outs: Vec<QpOutput>, wire: &mut VecDeque<RcPacket>) {
        for out in outs {
            match out {
                QpOutput::Send { packet, .. } => wire.push_back(packet),
                QpOutput::SetTimer(t, at) => self.timers[t.index()] = Some(at),
                QpOutput::CancelTimer(t) => self.timers[t.index()] = None,
                QpOutput::Complete(c) => self.done.push(c),
                QpOutput::RnrIssued { .. } => {}
            }
        }
    }
}

/// Runs `ops` (kind, length) from node 0 to node 1 of a bare
/// selective-repeat pair whose wire mangles packets as `wire` says and
/// whose responder faults scatters as `faults` says, then checks every
/// selective ACK the responder sends against a model of its park: the
/// PSNs it reported parked, less those at or below the ACK's expected
/// PSN, emptied by every RNR NACK. Returns the number of SACKs checked.
fn sack_bitmaps_follow_the_park(
    ops: &[(u8, u64)],
    wire: &[u8],
    faults: Vec<bool>,
) -> Result<u64, TestCaseError> {
    let cfg = RcConfig {
        transport: RdmaTransport::SelectiveRepeat,
        max_retries: 100_000,
        max_rnr_retries: 100_000,
        bdp_packets: 16,
        ..RcConfig::default()
    };
    let end = |qp| End {
        qp,
        timers: [None; QpTimer::COUNT],
        done: Vec::new(),
    };
    let mut a = end(RcQp::new(cfg, QpId(1), QpId(2), NodeId(1)));
    let mut b = end(RcQp::new(cfg, QpId(2), QpId(1), NodeId(0)));
    let mut gate_b = ScheduledFaults(faults.into_iter());
    let (mut to_a, mut to_b) = (VecDeque::new(), VecDeque::new());
    let mut now = SimTime::ZERO;
    let mut recvs = Vec::new();
    for (i, &(kind, len)) in (0u64..).zip(ops) {
        let local = VirtAddr(i << 20);
        let remote = VirtAddr(1 << 40 | i << 20);
        let op = match kind % 3 {
            0 => {
                let wqe = RecvWqe {
                    wr_id: 1000 + i,
                    addr: remote,
                    capacity: len,
                };
                b.qp.post_recv(wqe);
                recvs.push(1000 + i);
                SendOp::Send { local, len }
            }
            1 => SendOp::Write { local, remote, len },
            _ => SendOp::Read { local, remote, len },
        };
        let outs = a.qp.post_send(now, i, op, &mut PinnedGate);
        a.absorb(outs, &mut to_b);
    }
    // The first packet is always lost, so the park fills at least once.
    let mut fates = std::iter::once(Fate::Drop).chain(wire.iter().map(|&c| fate(c)));
    let mut parked = std::collections::BTreeSet::new();
    let mut sacks = 0;
    for step in 0u64.. {
        prop_assert!(step < 1_000_000, "the pair never went quiet");
        if to_a.is_empty() && to_b.is_empty() {
            // Idle wire: jump to the earliest armed timer, or stop.
            let due = [&a, &b]
                .iter()
                .enumerate()
                .flat_map(|(side, e)| {
                    let armed = e.timers.iter().enumerate();
                    armed.filter_map(move |(t, at)| at.map(|at| (at, side, t)))
                })
                .min();
            let Some((at, side, t)) = due else { break };
            now = now.max(at);
            let timer = [QpTimer::Retransmit, QpTimer::RnrResume]
                .into_iter()
                .find(|k| k.index() == t)
                .expect("a timer kind");
            if side == 0 {
                a.timers[t] = None;
                let outs = a.qp.on_timer(now, timer, &mut PinnedGate);
                a.absorb(outs, &mut to_b);
            } else {
                b.timers[t] = None;
                let outs = b.qp.on_timer(now, timer, &mut gate_b);
                b.absorb(outs, &mut to_a);
            }
            continue;
        }
        now += SimDuration::from_nanos(100);
        let toward_b = to_a.is_empty() || (!to_b.is_empty() && step % 2 == 0);
        let queue = if toward_b { &mut to_b } else { &mut to_a };
        let pkt = queue.pop_front().expect("picked a non-empty direction");
        match fates.next().unwrap_or(Fate::Deliver) {
            Fate::Drop => continue,
            Fate::Delay => {
                queue.push_back(pkt);
                continue;
            }
            Fate::Duplicate => queue.push_back(pkt),
            Fate::Deliver => {}
        }
        if !toward_b {
            let outs = a.qp.on_packet(now, pkt, &mut PinnedGate);
            a.absorb(outs, &mut to_b);
            continue;
        }
        let parked_before = b.qp.stats().ooo_parked;
        let outs = b.qp.on_packet(now, pkt, &mut gate_b);
        if b.qp.stats().ooo_parked > parked_before {
            parked.insert(pkt.psn);
        }
        for out in &outs {
            let QpOutput::Send { packet, .. } = out else {
                continue;
            };
            match packet.kind {
                RcPacketKind::NakReceiverNotReady { .. } => parked.clear(),
                RcPacketKind::SelectiveAck { bitmap } => {
                    let expected = packet.psn;
                    parked.retain(|&p| p > expected);
                    let mut want = 0u64;
                    for &p in &parked {
                        let bit = p - expected - 1;
                        prop_assert!(bit < 64, "PSN {} parked past the SACK window", p);
                        want |= 1 << bit;
                    }
                    prop_assert_eq!(bitmap, want, "SACK at expected PSN {}", expected);
                    sacks += 1;
                }
                _ => {}
            }
        }
        b.absorb(outs, &mut to_a);
    }
    prop_assert_eq!(sacks, b.qp.stats().sacks_sent, "every SACK was checked");
    // Exactly once and in order, whatever the wire and the faults did.
    let received: Vec<u64> = b.done.iter().map(|c| c.wr_id).collect();
    prop_assert_eq!(received, recvs);
    let mut completed: Vec<u64> = a.done.iter().map(|c| c.wr_id).collect();
    completed.sort_unstable();
    prop_assert_eq!(completed, (0..ops.len() as u64).collect::<Vec<_>>());
    let ok = |c: &Completion| c.status == WcStatus::Success;
    prop_assert!(
        a.done.iter().chain(&b.done).all(ok),
        "every completion succeeds"
    );
    Ok(sacks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Loss, duplicates, reordering, rNPFs and read requests on a bare
    /// selective-repeat pair: every SACK's bitmap matches the park. In a
    /// debug build `send_sack` also checks its kept bitmap against a scan
    /// of the park on each of them.
    #[test]
    fn sack_bitmaps_match_the_park_under_loss_faults_and_reads(
        ops in proptest::collection::vec((0u8..3, 1u64..48 * 1024), 1..10),
        wire in proptest::collection::vec(any::<u8>(), 0..300),
        faults in proptest::collection::vec(0u8..4, 0..40),
    ) {
        let faults = faults.into_iter().map(|f| f == 0).collect();
        sack_bitmaps_follow_the_park(&ops, &wire, faults)?;
    }
}

#[test]
fn network_chaos_with_loss_keeps_exactly_once_and_complete_journals() {
    use npf::simcore::journal::JournalRecorder;
    let base = seed_base();
    for s in 0..2u64 {
        let chaos = ChaosConfig::profile(ChaosProfile::Network, base + 0x7000 + s);
        let fresh = Instruments {
            checker: Some(InvariantChecker::new(chaos.seed)),
            journal: Some(JournalRecorder::new()),
            ..Instruments::default()
        };
        assert!(fresh.install().is_empty(), "stale instruments");
        // Retry forever, as the chaos sweep does: the cell asserts
        // liveness, not the transport's give-up threshold.
        let rc = RcConfig {
            max_retries: 100_000,
            max_rnr_retries: 100_000,
            ..RcConfig::default()
        };
        let mut c: IbCluster = ScenarioBuilder::infiniband()
            .nodes(2)
            .node_memory(ByteSize::mib(256))
            .rc(rc)
            .profile(FabricProfile::lossy(0.01))
            .transport(TransportConfig::default().with_transport(RdmaTransport::SelectiveRepeat))
            .chaos(chaos)
            .seed(13)
            .build()
            .expect("lossy chaos scenario must validate");
        let (qa, qb) = c.connect(0, 1);
        let src = c.alloc_buffers(0, ByteSize::mib(4));
        let dst = c.alloc_buffers(1, ByteSize::mib(4));
        const MSGS: u64 = 24;
        for i in 0..MSGS {
            c.post_recv(1, qb, 1000 + i, dst, 4 << 20);
            c.post_send(
                0,
                qa,
                i,
                SendOp::Send {
                    local: src,
                    len: (i + 1) * 4096,
                },
            );
        }
        c.run_until_quiescent(50_000_000);

        let recv = c.drain_completions(1);
        assert_eq!(
            recv.len() as u64,
            MSGS,
            "exactly-once delivery at chaos seed {}",
            chaos.seed
        );
        for (i, comp) in recv.iter().enumerate() {
            assert_eq!(
                comp.wr_id,
                1000 + i as u64,
                "in-order at seed {}",
                chaos.seed
            );
            assert_eq!(comp.status, WcStatus::Success);
        }
        let injected = c.chaos().counters().iter().map(|(_, n)| n).sum::<u64>();
        assert!(injected > 0, "chaos must fire at chaos seed {}", chaos.seed);

        let installed = Instruments::take();
        let j = installed.journal.expect("journal installed");
        let checker = installed.checker.expect("checker installed");
        let end = checker.finish();
        assert!(
            end.is_empty(),
            "invariant violations at chaos seed {}: {:?}",
            chaos.seed,
            end
        );
        assert_eq!(
            j.incomplete_faults(),
            0,
            "journal chains without a resolve at chaos seed {}",
            chaos.seed
        );
        assert_eq!(
            j.unbalanced_faults(),
            0,
            "journal phase slices must tile at chaos seed {}",
            chaos.seed
        );
        for f in j.faults() {
            assert_eq!(
                f.phase_sum(),
                f.latency(),
                "inexact attribution for fault {:?} at chaos seed {}",
                f.id,
                chaos.seed
            );
        }
    }
}
