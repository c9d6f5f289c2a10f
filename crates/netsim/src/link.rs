//! Point-to-point links.
//!
//! A [`Link`] is a unidirectional transmitter with a serialization rate,
//! propagation delay, and a bounded output queue. It is sans-IO: sending
//! returns the arrival time (or a drop/mark decision) and the caller
//! schedules the delivery event.
//!
//! The link also models IEEE 802.3x **pause frames**: while paused, the
//! transmitter holds packets (the paper's Ethernet testbed enables flow
//! control to mask the 40 Gb/s-to-12 Gb/s asymmetry, §6, and §3 explains
//! why link-level flow control alone cannot solve rNPFs: it blocks
//! *every* stream, not just the faulting one).

use std::collections::VecDeque;

use simcore::journal;
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};
use simcore::units::Bandwidth;

/// A queue capacity no run can fill: a link configured with it never
/// tail-drops (InfiniBand's credit-based flow control), and keeps no
/// record of its backlog unless a fabric reads it.
pub const UNBOUNDED_QUEUE: u64 = u64::MAX / 4;

/// Configuration of one link direction.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Serialization rate.
    pub bandwidth: Bandwidth,
    /// Propagation delay.
    pub propagation: SimDuration,
    /// Output queue capacity in bytes; the queue is measured as the
    /// backlog of bytes not yet serialized. Tail-drop beyond this;
    /// [`UNBOUNDED_QUEUE`] never drops.
    pub queue_capacity: u64,
    /// When `Some(threshold)`, packets that would wait longer than
    /// `threshold` in the queue are ECN-marked instead of dropped (until
    /// the hard capacity is hit).
    pub ecn_threshold: Option<SimDuration>,
    /// Random independent loss probability (for fault injection).
    pub loss_probability: f64,
}

impl LinkConfig {
    /// A typical short data-center cable at the given rate.
    #[must_use]
    pub fn datacenter(bandwidth: Bandwidth) -> Self {
        LinkConfig {
            bandwidth,
            propagation: SimDuration::from_micros(1),
            queue_capacity: 512 * 1024,
            ecn_threshold: None,
            loss_probability: 0.0,
        }
    }
}

/// Outcome of offering a packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Accepted; it arrives at the far end at the given time. The flag
    /// reports whether the queue ECN-marked it.
    Delivered {
        /// Arrival instant at the receiver.
        arrives_at: SimTime,
        /// ECN congestion-experienced mark.
        ecn_marked: bool,
    },
    /// Tail-dropped: the queue was full.
    Dropped,
}

/// One direction of a network link.
#[derive(Debug)]
pub struct Link {
    config: LinkConfig,
    /// Time at which the transmitter finishes everything already queued.
    horizon: SimTime,
    /// Pause (802.3x) expiry; the transmitter is silent until then.
    paused_until: SimTime,
    /// Accepted packets not yet fully serialized:
    /// `(serialization_done, bytes)` in departure order. Kept only
    /// where something reads it: a bounded queue's tail-drop, or a
    /// fabric that watches the backlog for PFC.
    queue: VecDeque<(SimTime, u64)>,
    /// Bytes currently in `queue`.
    queued_bytes: u64,
    /// Whether `queue` is kept.
    keeps_queue: bool,
    /// The last `(bytes, serialization time)` computed: a link carries
    /// one or two packet sizes, so most sends skip the division.
    last_transfer: (u64, SimDuration),
    rng: SimRng,
    sent_packets: u64,
    dropped_packets: u64,
    marked_packets: u64,
}

impl Link {
    /// Creates a link. `rng` drives random loss only; a link with
    /// `loss_probability == 0` never consults it.
    #[must_use]
    pub fn new(config: LinkConfig, rng: SimRng) -> Self {
        Link {
            config,
            horizon: SimTime::ZERO,
            paused_until: SimTime::ZERO,
            queue: VecDeque::new(),
            queued_bytes: 0,
            keeps_queue: config.queue_capacity < UNBOUNDED_QUEUE,
            last_transfer: (0, config.bandwidth.transfer_time(0)),
            rng,
            sent_packets: 0,
            dropped_packets: 0,
            marked_packets: 0,
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Packets accepted so far.
    #[must_use]
    pub fn sent_packets(&self) -> u64 {
        self.sent_packets
    }

    /// Packets tail-dropped so far.
    #[must_use]
    pub fn dropped_packets(&self) -> u64 {
        self.dropped_packets
    }

    /// Packets ECN-marked so far.
    #[must_use]
    pub fn marked_packets(&self) -> u64 {
        self.marked_packets
    }

    /// Current queue backlog in bytes at `now`: actual bytes of packets
    /// admitted but not yet fully serialized (pause time does not
    /// fabricate backlog; real buffered frames do). An unbounded link
    /// keeps no backlog unless a fabric watches it (PFC).
    #[must_use]
    pub fn backlog_bytes(&self, now: SimTime) -> u64 {
        debug_assert!(
            self.keeps_queue,
            "an unwatched unbounded link keeps no backlog"
        );
        self.queue
            .iter()
            .filter(|&&(done, _)| done > now)
            .map(|&(_, b)| b)
            .sum()
    }

    /// Earliest instant at which the backlog has drained to at most
    /// `target` bytes, assuming nothing else is enqueued. Returns
    /// [`SimTime::ZERO`] when it is already there. The PFC machinery
    /// uses this to size pause frames: pause until the congested queue
    /// crosses back below XON.
    #[must_use]
    pub fn drains_below(&self, target: u64) -> SimTime {
        debug_assert!(
            self.keeps_queue,
            "an unwatched unbounded link keeps no backlog"
        );
        let mut remaining = self.queued_bytes;
        if remaining <= target {
            return SimTime::ZERO;
        }
        for &(done, bytes) in &self.queue {
            remaining -= bytes;
            if remaining <= target {
                return done;
            }
        }
        SimTime::ZERO
    }

    /// Keeps the backlog of an unbounded link too, for a fabric that
    /// reads it. Packets sent before the call are not in it.
    pub(crate) fn watch_backlog(&mut self) {
        debug_assert_eq!(self.sent_packets, 0, "watch a link before it sends");
        self.keeps_queue = true;
    }

    fn drain_queue(&mut self, now: SimTime) {
        while let Some(&(done, bytes)) = self.queue.front() {
            if done > now {
                break;
            }
            self.queue.pop_front();
            self.queued_bytes -= bytes;
        }
    }

    fn effective_horizon(&self) -> SimTime {
        if self.paused_until > self.horizon {
            self.paused_until
        } else {
            self.horizon
        }
    }

    /// Pauses the transmitter until `until` (an 802.3x pause frame from
    /// the receiver). Extends any pause already in force.
    pub fn pause_until(&mut self, until: SimTime) {
        if until > self.paused_until {
            self.paused_until = until;
        }
    }

    /// Offers a packet of `size_bytes` at `now`.
    pub fn send(&mut self, now: SimTime, size_bytes: u64) -> SendOutcome {
        if self.config.loss_probability > 0.0 && self.rng.chance(self.config.loss_probability) {
            self.dropped_packets += 1;
            return SendOutcome::Dropped;
        }
        if self.keeps_queue {
            self.drain_queue(now);
            if self.queued_bytes + size_bytes > self.config.queue_capacity {
                self.dropped_packets += 1;
                return SendOutcome::Dropped;
            }
        }
        let natural_start = self.horizon.max(now);
        let start = self.effective_horizon().max(now);
        // A pause frame (802.3x/PFC or chaos-injected) is holding the
        // transmitter beyond its natural serialization horizon: journal
        // the stall as a standalone tile-exact slice.
        if start > natural_start {
            journal::with(|j| j.wait_event(journal::Phase::PauseWait, natural_start, start));
        }
        let wait = start.saturating_since(now);
        let mut ecn_marked = false;
        if let Some(threshold) = self.config.ecn_threshold {
            if wait > threshold {
                ecn_marked = true;
                self.marked_packets += 1;
            }
        }
        if size_bytes != self.last_transfer.0 {
            self.last_transfer = (size_bytes, self.config.bandwidth.transfer_time(size_bytes));
        }
        let departure = start + self.last_transfer.1;
        self.horizon = departure;
        if self.keeps_queue {
            self.queue.push_back((departure, size_bytes));
            self.queued_bytes += size_bytes;
        }
        self.sent_packets += 1;
        let arrives_at = departure + self.config.propagation;
        // Causal journal: the packet's arrival instant is where every
        // fault chain it triggers begins.
        journal::with(|j| j.mark_at(arrives_at, journal::MarkKind::PacketArrival, size_bytes));
        SendOutcome::Delivered {
            arrives_at,
            ecn_marked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(bw_gbps: u64) -> Link {
        Link::new(
            LinkConfig::datacenter(Bandwidth::gbps(bw_gbps)),
            SimRng::new(1),
        )
    }

    #[test]
    fn single_packet_timing() {
        let mut l = link(10);
        // 1250 bytes at 10 Gb/s = 1 us serialization + 1 us propagation.
        let out = l.send(SimTime::ZERO, 1250);
        assert_eq!(
            out,
            SendOutcome::Delivered {
                arrives_at: SimTime::from_micros(2),
                ecn_marked: false
            }
        );
    }

    #[test]
    fn back_to_back_packets_serialize() {
        let mut l = link(10);
        l.send(SimTime::ZERO, 1250);
        let out = l.send(SimTime::ZERO, 1250);
        // Second packet waits for the first: 2 us tx + 1 us prop.
        assert_eq!(
            out,
            SendOutcome::Delivered {
                arrives_at: SimTime::from_micros(3),
                ecn_marked: false
            }
        );
        assert_eq!(l.sent_packets(), 2);
        // Sizes alternating on one link: each packet serializes in its
        // own size's time, whichever size went before it.
        let mut horizon = SimTime::from_micros(2);
        for size in [64, 4096, 64, 64, 4096, 4096, 1250, 64] {
            horizon += Bandwidth::gbps(10).transfer_time(size);
            assert_eq!(
                l.send(SimTime::ZERO, size),
                SendOutcome::Delivered {
                    arrives_at: horizon + SimDuration::from_micros(1),
                    ecn_marked: false
                },
                "{size} bytes"
            );
        }
    }

    #[test]
    fn queue_overflow_drops() {
        let mut cfg = LinkConfig::datacenter(Bandwidth::gbps(1));
        cfg.queue_capacity = 3000;
        let mut l = Link::new(cfg, SimRng::new(1));
        assert!(matches!(
            l.send(SimTime::ZERO, 1500),
            SendOutcome::Delivered { .. }
        ));
        assert!(matches!(
            l.send(SimTime::ZERO, 1500),
            SendOutcome::Delivered { .. }
        ));
        // Backlog now 1500 (first is "serializing", second queued fully):
        // a third 1500-byte frame exceeds 3000 bytes of queue.
        let out = l.send(SimTime::ZERO, 1500);
        assert_eq!(out, SendOutcome::Dropped);
        assert_eq!(l.dropped_packets(), 1);
    }

    #[test]
    fn unbounded_queue_never_drops() {
        let mut cfg = LinkConfig::datacenter(Bandwidth::gbps(10));
        cfg.queue_capacity = UNBOUNDED_QUEUE;
        let mut l = Link::new(cfg, SimRng::new(1));
        // 100 MB offered at once: each packet still waits for the ones
        // before it, none is dropped.
        for k in 1..=80_000 {
            assert_eq!(
                l.send(SimTime::ZERO, 1250),
                SendOutcome::Delivered {
                    arrives_at: SimTime::from_micros(k + 1),
                    ecn_marked: false
                }
            );
        }
        assert_eq!(l.dropped_packets(), 0);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut cfg = LinkConfig::datacenter(Bandwidth::gbps(1));
        cfg.queue_capacity = 3000;
        let mut l = Link::new(cfg, SimRng::new(1));
        l.send(SimTime::ZERO, 1500);
        l.send(SimTime::ZERO, 1500);
        assert!(l.backlog_bytes(SimTime::ZERO) > 0);
        // After both serialize (24 us at 1 Gb/s), the queue is empty again.
        let later = SimTime::from_micros(30);
        assert_eq!(l.backlog_bytes(later), 0);
        assert!(matches!(l.send(later, 1500), SendOutcome::Delivered { .. }));
    }

    #[test]
    fn pause_defers_transmission() {
        let mut l = link(10);
        l.pause_until(SimTime::from_micros(100));
        let out = l.send(SimTime::ZERO, 1250);
        assert_eq!(
            out,
            SendOutcome::Delivered {
                arrives_at: SimTime::from_micros(102),
                ecn_marked: false
            }
        );
    }

    #[test]
    fn pause_does_not_shrink() {
        let mut l = link(10);
        l.pause_until(SimTime::from_micros(100));
        l.pause_until(SimTime::from_micros(50));
        // The earlier expiry is ignored: a send at 75 us still waits for
        // 100 us, then 1 us of serialization and 1 us of propagation.
        let out = l.send(SimTime::from_micros(75), 1250);
        assert_eq!(
            out,
            SendOutcome::Delivered {
                arrives_at: SimTime::from_micros(102),
                ecn_marked: false
            }
        );
    }

    #[test]
    fn ecn_marks_when_congested() {
        let mut cfg = LinkConfig::datacenter(Bandwidth::gbps(1));
        cfg.queue_capacity = 1 << 20;
        cfg.ecn_threshold = Some(SimDuration::from_micros(10));
        let mut l = Link::new(cfg, SimRng::new(1));
        let mut marked = false;
        for _ in 0..20 {
            if let SendOutcome::Delivered { ecn_marked, .. } = l.send(SimTime::ZERO, 1500) {
                marked |= ecn_marked;
            }
        }
        assert!(marked, "sustained backlog must trigger ECN");
        assert!(l.marked_packets() > 0);
    }

    #[test]
    fn random_loss_drops_some() {
        let mut cfg = LinkConfig::datacenter(Bandwidth::gbps(100));
        cfg.loss_probability = 0.5;
        let mut l = Link::new(cfg, SimRng::new(42));
        let mut t = SimTime::ZERO;
        let mut drops = 0;
        for _ in 0..1000 {
            if l.send(t, 100) == SendOutcome::Dropped {
                drops += 1;
            }
            t += SimDuration::from_micros(1);
        }
        assert!((300..700).contains(&drops), "drops {drops} out of range");
    }
}
