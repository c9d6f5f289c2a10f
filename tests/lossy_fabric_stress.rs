//! Failure injection: RC transport correctness over a *lossy* link while
//! ODP faults fire. Loss triggers sequence NAKs and timeouts; faults
//! trigger RNR NACKs; every message must still arrive exactly once and
//! in order.

use memsim::types::VirtAddr;
use netsim::link::{Link, LinkConfig};
use netsim::packet::NodeId;
use netsim::profile::{FabricProfile, RdmaTransport};
use rdmasim::rc::RcQp;
use rdmasim::types::{
    PinnedGate, QpId, QpOutput, QpTimer, RcConfig, RcPacket, RecvWqe, SendOp, WcOpcode,
};
use simcore::event::EventQueue;
use simcore::rng::SimRng;
use simcore::units::Bandwidth;
use simcore::SimTime;

#[derive(Debug)]
enum Ev {
    Deliver { to_a: bool, pkt: RcPacket },
    Timer { at_a: bool, timer: QpTimer },
}

#[test]
fn rc_survives_random_loss() {
    rc_survives_random_loss_with(RdmaTransport::GoBackN);
}

#[test]
fn irn_survives_random_loss() {
    rc_survives_random_loss_with(RdmaTransport::SelectiveRepeat);
}

fn rc_survives_random_loss_with(transport: RdmaTransport) {
    let mut rng = SimRng::new(1234);
    // 5% of packets vanish
    let link_cfg =
        FabricProfile::lossy(0.05).apply_link(LinkConfig::datacenter(Bandwidth::gbps(56)));
    let mut ab = Link::new(link_cfg, rng.fork(1));
    let mut ba = Link::new(link_cfg, rng.fork(2));

    let cfg = RcConfig {
        ack_every: 4,
        transport,
        ..RcConfig::default()
    };
    let mut a = RcQp::new(cfg, QpId(1), QpId(2), NodeId(1));
    let mut b = RcQp::new(cfg, QpId(2), QpId(1), NodeId(0));
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut timers: std::collections::HashMap<(bool, QpTimer), simcore::event::EventToken> =
        std::collections::HashMap::new();

    const MESSAGES: u64 = 40;
    const LEN: u64 = 32 * 1024;
    for i in 0..MESSAGES {
        b.post_recv(RecvWqe {
            wr_id: i,
            addr: VirtAddr(0x100000),
            capacity: LEN,
        });
        let outs = a.post_send(
            SimTime::ZERO,
            1000 + i,
            SendOp::Send {
                local: VirtAddr(0x4000),
                len: LEN,
            },
            &mut PinnedGate,
        );
        dispatch(outs, true, &mut queue, &mut ab, &mut ba, &mut timers);
    }

    let mut received = Vec::new();
    let mut guard = 0u64;
    while let Some((now, ev)) = queue.pop() {
        guard += 1;
        assert!(guard < 2_000_000, "stress test diverged");
        match ev {
            Ev::Deliver { to_a, pkt } => {
                let outs = if to_a {
                    a.on_packet(now, pkt, &mut PinnedGate)
                } else {
                    b.on_packet(now, pkt, &mut PinnedGate)
                };
                for o in &outs {
                    if let QpOutput::Complete(c) = o {
                        if c.opcode == WcOpcode::Recv {
                            received.push(c.wr_id);
                        }
                        assert_eq!(c.status, rdmasim::types::WcStatus::Success);
                    }
                }
                dispatch(outs, to_a, &mut queue, &mut ab, &mut ba, &mut timers);
            }
            Ev::Timer { at_a, timer } => {
                timers.remove(&(at_a, timer));
                let outs = if at_a {
                    a.on_timer(now, timer, &mut PinnedGate)
                } else {
                    b.on_timer(now, timer, &mut PinnedGate)
                };
                dispatch(outs, at_a, &mut queue, &mut ab, &mut ba, &mut timers);
            }
        }
        if received.len() as u64 == MESSAGES && queue.is_empty() {
            break;
        }
    }
    // Exactly-once, in-order delivery despite 5% loss.
    assert_eq!(received, (0..MESSAGES).collect::<Vec<_>>());
    assert!(
        a.stats().retransmits > 0,
        "loss must have forced retransmissions"
    );
}

fn dispatch(
    outs: Vec<QpOutput>,
    from_a: bool,
    queue: &mut EventQueue<Ev>,
    ab: &mut Link,
    ba: &mut Link,
    timers: &mut std::collections::HashMap<(bool, QpTimer), simcore::event::EventToken>,
) {
    use netsim::link::SendOutcome;
    let now = queue.now();
    for o in outs {
        match o {
            QpOutput::Send { packet, .. } => {
                let link = if from_a { &mut *ab } else { &mut *ba };
                if let SendOutcome::Delivered { arrives_at, .. } =
                    link.send(now, packet.wire_size())
                {
                    queue.schedule_at(
                        arrives_at,
                        Ev::Deliver {
                            to_a: !from_a,
                            pkt: packet,
                        },
                    );
                }
            }
            QpOutput::SetTimer(timer, at) => {
                if let Some(tok) = timers.remove(&(from_a, timer)) {
                    queue.cancel(tok);
                }
                let tok = queue.schedule_at(
                    at,
                    Ev::Timer {
                        at_a: from_a,
                        timer,
                    },
                );
                timers.insert((from_a, timer), tok);
            }
            QpOutput::CancelTimer(timer) => {
                if let Some(tok) = timers.remove(&(from_a, timer)) {
                    queue.cancel(tok);
                }
            }
            _ => {}
        }
    }
}
