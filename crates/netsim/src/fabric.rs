//! The switched fabric: a star of nodes around one switch.
//!
//! The paper's InfiniBand testbed is eight servers through a SwitchX-2
//! (its Ethernet testbed is one back-to-back cable, which the Ethernet
//! beds drive as two [`Link`]s). A [`Fabric`] owns the links and
//! computes end-to-end delivery times, store-and-forward through the
//! switch.

use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};

use crate::link::{Link, LinkConfig, SendOutcome};
use crate::packet::NodeId;

/// PFC XOFF threshold of a switch egress queue, in bytes: the backlog
/// past which the switch pauses every ingress.
pub const PFC_XOFF: u64 = 256 * 1024;

/// PFC XON threshold, in bytes: the backlog below which the paused
/// ingresses resume.
pub const PFC_XON: u64 = 128 * 1024;

/// A network fabric connecting a fixed set of nodes through one switch.
#[derive(Debug)]
pub struct Fabric {
    /// Store-and-forward latency of the switch.
    switch_latency: SimDuration,
    nodes: u32,
    /// Indexed by position: node `n`'s uplink at `2n`, the switch's
    /// downlink toward it at `2n + 1`.
    links: Vec<Link>,
    /// PFC thresholds `(xoff, xon)` in bytes, when armed: a switch
    /// egress queue backing up past `xoff` pauses every uplink until the
    /// queue drains below `xon`.
    pfc: Option<(u64, u64)>,
    /// PFC pause frames the switch has emitted.
    pfc_pauses: u64,
}

/// Index of star node `n`'s link into the switch.
fn uplink(n: u32) -> usize {
    2 * n as usize
}

/// Index of the switch's link toward star node `n`.
fn downlink(n: u32) -> usize {
    2 * n as usize + 1
}

impl Fabric {
    /// `nodes` nodes connected through one switch.
    #[must_use]
    pub fn star(
        config: LinkConfig,
        nodes: u32,
        switch_latency: SimDuration,
        rng: &mut SimRng,
    ) -> Self {
        // Link `i` draws from fork `i`: uplink 2n, then downlink 2n + 1.
        let links = (0..u64::from(nodes) * 2)
            .map(|i| Link::new(config, rng.fork(i)))
            .collect();
        Fabric {
            switch_latency,
            nodes,
            links,
            pfc: None,
            pfc_pauses: 0,
        }
    }

    /// Arms PFC with the given `(xoff, xon)` byte thresholds: once a
    /// switch egress queue backs up past `xoff`, the switch pauses
    /// every ingress until it drains below `xon`. Arm it before the
    /// first send: the switch watches its egress queues from then on.
    pub fn set_pfc(&mut self, xoff: u64, xon: u64) {
        self.pfc = Some((xoff, xon.min(xoff)));
        for n in 0..self.nodes {
            self.links[downlink(n)].watch_backlog();
        }
    }

    /// PFC pause frames emitted by the switch so far.
    #[must_use]
    pub fn pfc_pauses(&self) -> u64 {
        self.pfc_pauses
    }

    /// Sends `size_bytes` from `from` to `to` at `now`, returning the
    /// end-to-end outcome.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints are unknown or equal.
    pub fn send(&mut self, now: SimTime, from: NodeId, to: NodeId, size_bytes: u64) -> SendOutcome {
        assert_ne!(from, to, "loopback is not modelled");
        assert!(from.0 < self.nodes && to.0 < self.nodes, "unknown node");
        let SendOutcome::Delivered {
            arrives_at,
            ecn_marked,
        } = self.links[uplink(from.0)].send(now, size_bytes)
        else {
            return SendOutcome::Dropped;
        };
        let offered_at = arrives_at + self.switch_latency;
        let down = &mut self.links[downlink(to.0)];
        let outcome = match down.send(offered_at, size_bytes) {
            SendOutcome::Dropped => SendOutcome::Dropped,
            SendOutcome::Delivered {
                arrives_at,
                ecn_marked: m2,
            } => SendOutcome::Delivered {
                arrives_at,
                ecn_marked: ecn_marked || m2,
            },
        };
        // PFC: the egress queue toward `to` crossed XOFF — pause every
        // ingress until it drains below XON. Head-of-line blocking for
        // every sender is the point (§3: link-level flow control stalls
        // *all* streams, not just the congested one).
        if let Some((xoff, xon)) = self.pfc {
            if down.backlog_bytes(offered_at) > xoff {
                let resume = down.drains_below(xon);
                if resume > offered_at {
                    self.pfc_pauses += 1;
                    for n in 0..self.nodes {
                        self.links[uplink(n)].pause_until(resume);
                    }
                }
            }
        }
        outcome
    }

    /// Total drops across all links.
    #[must_use]
    pub fn total_drops(&self) -> u64 {
        self.links.iter().map(Link::dropped_packets).sum()
    }

    /// Total packets accepted across all links (a star counts both hops).
    #[must_use]
    pub fn total_sent(&self) -> u64 {
        self.links.iter().map(Link::sent_packets).sum()
    }

    /// Total ECN-marked packets across all links.
    #[must_use]
    pub fn total_marked(&self) -> u64 {
        self.links.iter().map(Link::marked_packets).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::units::Bandwidth;

    fn rng() -> SimRng {
        SimRng::new(7)
    }

    /// Two nodes through a 200 ns switch at 10 Gb/s.
    pub(super) fn pair(rng: &mut SimRng) -> Fabric {
        let link = LinkConfig::datacenter(Bandwidth::gbps(10));
        Fabric::star(link, 2, SimDuration::from_nanos(200), rng)
    }

    #[test]
    fn directions_are_independent() {
        let mut r = rng();
        let mut f = pair(&mut r);
        // Saturate 0 -> 1; the reverse path is unaffected.
        for _ in 0..100 {
            f.send(SimTime::ZERO, NodeId(0), NodeId(1), 1250);
        }
        let out = f.send(SimTime::ZERO, NodeId(1), NodeId(0), 1250);
        // Two hops of 1 us serialization + 1 us propagation, one switch.
        assert_eq!(
            out,
            SendOutcome::Delivered {
                arrives_at: SimTime::from_nanos(4_200),
                ecn_marked: false
            }
        );
    }

    #[test]
    fn star_adds_switch_hop() {
        let mut r = rng();
        let mut f = Fabric::star(
            LinkConfig::datacenter(Bandwidth::gbps(56)),
            8,
            SimDuration::from_nanos(200),
            &mut r,
        );
        let SendOutcome::Delivered { arrives_at, .. } =
            f.send(SimTime::ZERO, NodeId(0), NodeId(7), 4096)
        else {
            panic!("delivered");
        };
        // Two serializations (585 ns each), two propagations (1 us each),
        // one switch latency (200 ns).
        assert_eq!(
            arrives_at,
            SimTime::from_nanos(585 + 1000 + 200 + 585 + 1000)
        );
    }

    #[test]
    fn star_isolates_disjoint_pairs() {
        let mut r = rng();
        let mut f = Fabric::star(
            LinkConfig::datacenter(Bandwidth::gbps(56)),
            4,
            SimDuration::from_nanos(200),
            &mut r,
        );
        for _ in 0..50 {
            f.send(SimTime::ZERO, NodeId(0), NodeId(1), 4096);
        }
        let congested = f.send(SimTime::ZERO, NodeId(0), NodeId(1), 4096);
        let clean = f.send(SimTime::ZERO, NodeId(2), NodeId(3), 4096);
        let (
            SendOutcome::Delivered { arrives_at: t1, .. },
            SendOutcome::Delivered { arrives_at: t2, .. },
        ) = (congested, clean)
        else {
            panic!("both delivered");
        };
        assert!(t2 < t1, "disjoint pair must not queue behind the busy one");
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_rejected() {
        let mut r = rng();
        let mut f = pair(&mut r);
        f.send(SimTime::ZERO, NodeId(0), NodeId(0), 64);
    }
}

#[cfg(test)]
mod chaos_tests {
    use super::tests::pair;
    use super::*;
    use simcore::chaos::{ChaosConfig, ChaosEngine, ChaosProfile, PacketFate};

    /// Sends one 1250-byte packet 0 -> 1 the way the beds do: draw its
    /// fate, keep an injected drop off the wire, map the wire's arrival.
    fn send(f: &mut Fabric, chaos: &mut ChaosEngine, now: SimTime) -> Vec<SimTime> {
        let fate = chaos.packet_fate();
        if fate == PacketFate::Drop {
            return Vec::new();
        }
        match f.send(now, NodeId(0), NodeId(1), 1250) {
            SendOutcome::Delivered { arrives_at, .. } => fate.arrivals(arrives_at).collect(),
            SendOutcome::Dropped => Vec::new(),
        }
    }

    #[test]
    fn chaos_send_replays_per_seed() {
        let run = |seed: u64| {
            let mut f = pair(&mut SimRng::new(11));
            let mut chaos = ChaosEngine::new(ChaosConfig::profile(ChaosProfile::Network, seed));
            (0..300)
                .map(|i| send(&mut f, &mut chaos, SimTime::from_micros(i * 10)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5), "same seed, same fault schedule");
        assert_ne!(run(5), run(6), "different seeds diverge");
    }

    #[test]
    fn chaos_profile_exercises_every_packet_fault() {
        let mut f = pair(&mut SimRng::new(11));
        let mut chaos = ChaosEngine::new(ChaosConfig::profile(ChaosProfile::Network, 3));
        let jitter = SimDuration::from_micros(30);
        let (mut lost, mut late, mut twice) = (0, 0, 0);
        for i in 0..2000u64 {
            let now = SimTime::from_micros(i * 10);
            // Sends 10 us apart find both hops idle: 1 us serialization
            // and 1 us propagation each, plus the 200 ns switch.
            let wire = now + SimDuration::from_nanos(4_200);
            match send(&mut f, &mut chaos, now)[..] {
                [] => lost += 1,
                [at] if at == wire => {}
                [at] => {
                    assert!(at > wire && at <= wire + jitter, "reorder within jitter");
                    late += 1;
                }
                [first, copy] => {
                    assert_eq!(first, wire, "the original arrives on time");
                    assert!(copy > wire && copy <= wire + jitter, "copy within jitter");
                    twice += 1;
                }
                _ => panic!("a packet arrives at most twice"),
            }
        }
        let c = chaos.counters();
        for class in ["net_drop", "net_corrupt", "net_duplicate", "net_reorder"] {
            assert!(c.get(class) > 0, "{class} injected");
        }
        assert_eq!(lost, c.get("net_drop") + c.get("net_corrupt"));
        assert_eq!(late, c.get("net_reorder"));
        assert_eq!(twice, c.get("net_duplicate"));
        // An injected drop never reaches the wire; a corrupted packet
        // burns both hops.
        assert_eq!(f.total_sent(), 2 * (2000 - c.get("net_drop")));
    }
}

#[cfg(test)]
mod star_pause_tests {
    use super::*;
    use simcore::units::Bandwidth;

    #[test]
    fn pfc_incast_pauses_every_uplink() {
        let mut r = SimRng::new(3);
        let mut cfg = LinkConfig::datacenter(Bandwidth::gbps(10));
        cfg.queue_capacity = 1 << 30;
        let mut f = Fabric::star(cfg, 4, SimDuration::from_nanos(200), &mut r);
        f.set_pfc(8 * 1024, 4 * 1024);
        // Incast: three senders blast node 3's downlink until its queue
        // crosses XOFF.
        for _ in 0..10 {
            for src in 0..3 {
                f.send(SimTime::ZERO, NodeId(src), NodeId(3), 4096);
            }
        }
        assert!(f.pfc_pauses() > 0, "XOFF must have tripped");
        // An innocent-bystander flow (0 -> 1) now stalls behind the
        // pause: head-of-line blocking, the IRN argument against PFC.
        let SendOutcome::Delivered { arrives_at, .. } =
            f.send(SimTime::from_micros(50), NodeId(0), NodeId(1), 64)
        else {
            panic!("delivered");
        };
        // Unpaused it would land at ~52.3 us; instead it waits for the
        // congested downlink to drain below XON (~90 us).
        assert!(
            arrives_at > SimTime::from_micros(60),
            "bystander must queue behind the pause: {arrives_at}"
        );
    }

    /// Each link's loss stream is an RNG fork named by the link's
    /// position, so which packets a lossy star drops pins the
    /// fork-id → link mapping: the indices below are the behaviour of
    /// the keyed-map fabric this layout replaced.
    #[test]
    fn lossy_star_drops_the_same_packets_on_every_build() {
        let run = || {
            let mut r = SimRng::new(42);
            let mut cfg = LinkConfig::datacenter(Bandwidth::gbps(10));
            cfg.loss_probability = 0.05;
            cfg.ecn_threshold = Some(SimDuration::from_micros(2));
            let mut f = Fabric::star(cfg, 3, SimDuration::from_nanos(200), &mut r);
            let mut dropped = Vec::new();
            let mut marked = 0;
            for i in 0..120u32 {
                // Rotate over all six ordered pairs of the three nodes.
                let (from, to) = (i % 3, (i % 3 + 1 + i / 3 % 2) % 3);
                let at = SimTime::from_micros(u64::from(i));
                match f.send(at, NodeId(from), NodeId(to), 4096) {
                    SendOutcome::Dropped => dropped.push(i),
                    SendOutcome::Delivered { ecn_marked, .. } => marked += u64::from(ecn_marked),
                }
            }
            (dropped, marked, f)
        };
        let (dropped, marked, f) = run();
        assert_eq!(dropped, run().0, "same seed, same drops");
        assert_eq!(
            dropped,
            [18, 22, 32, 38, 40, 43, 50, 97, 105, 112, 115, 116, 118]
        );
        // A packet lost on its uplink never reaches the downlink, one
        // lost on the downlink was sent once; every drop is one link's.
        assert_eq!(f.total_drops(), dropped.len() as u64);
        let delivered = 120 - dropped.len() as u64;
        assert!(f.total_sent() >= 2 * delivered, "both hops are counted");
        assert!(f.total_sent() <= 2 * delivered + dropped.len() as u64);
        assert!(
            f.total_marked() >= marked && marked > 0,
            "marks of both hops"
        );
    }
}
