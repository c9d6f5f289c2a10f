//! The Ethernet what-if stream benchmark (§6.4, Figure 10 left).
//!
//! A Netperf-style TCP stream from the client (standard Linux stack)
//! into an lwIP IOuser behind the direct channel. The receive ring is
//! pre-faulted ("to eliminate the cold ring problem"), and synthetic
//! rNPFs are injected at a configurable per-packet frequency. Depending
//! on the NIC's policy a faulting packet is either dropped (TCP
//! retransmission recovers it, slowly) or parked in the backup ring and
//! merged once the synthetic fault "resolves".

use memsim::manager::{MemConfig, MemoryManager};
use memsim::space::Backing;
use memsim::types::{PageRange, VirtAddr};
use netsim::link::{Link, LinkConfig, SendOutcome};
use netsim::profile::FabricProfile;
use nicsim::rx::{RingId, RxDescriptor, RxEngine, RxFaultMode, RxVerdict};
use npf_core::npf::{NpfConfig, NpfEngine};
use npf_core::{COST, RX_BUFFER_BASE};
use simcore::event::{EventQueue, EventToken, LaneId};
use simcore::instruments;
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};
use simcore::units::ByteSize;
use tcpsim::{ConnSlot, TcpConfig, TcpOutput, TcpSegment, TcpStack};
use workloads::stream::{StreamReceiver, SyntheticFaults};

use crate::eth::PROTOTYPE_LINK;

/// Fault policy for the stream run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamMode {
    /// Faulting packets are dropped.
    Drop,
    /// Faulting packets park in the backup ring.
    Backup,
}

/// RNG seed of a stream run.
const SEED: u64 = 1;

/// Configuration of a stream run.
#[derive(Debug, Clone, Copy)]
pub struct StreamBedConfig {
    /// Fault policy.
    pub mode: StreamMode,
    /// Per-packet synthetic rNPF probability.
    pub fault_frequency: f64,
    /// Major (disk-latency) or minor fault resolution.
    pub major_faults: bool,
    /// How long to run.
    pub duration: SimDuration,
    /// Fabric profile (loss regime / ECN marking) of the stream link.
    pub profile: FabricProfile,
}

impl Default for StreamBedConfig {
    fn default() -> Self {
        StreamBedConfig {
            mode: StreamMode::Backup,
            fault_frequency: 0.0,
            major_faults: false,
            duration: SimDuration::from_secs(2),
            profile: FabricProfile::default(),
        }
    }
}

/// Result of a stream run.
#[derive(Debug, Clone, Copy)]
pub struct StreamBedResult {
    /// Application goodput at the receiver, Gb/s.
    pub goodput_gbps: f64,
    /// Synthetic faults injected.
    pub faults_injected: u64,
    /// Packets dropped at the NIC.
    pub nic_drops: u64,
    /// Packets that took the backup path.
    pub backup_packets: u64,
}

/// Which end of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    /// The sender: a standard Linux stack.
    Client,
    /// The receiver: the lwIP IOuser behind the direct channel.
    Server,
}

#[derive(Debug)]
enum Ev {
    ToServer(TcpSegment),
    ToClient(TcpSegment),
    /// The retransmission timer of a side's connection fired.
    Timer(Side, ConnSlot),
    /// A synthetic fault resolved: merge the oldest backup entry back.
    Merge,
    /// Announce ring contents to the IOuser.
    Consume,
}

/// One end of the stream. The bed opens exactly one connection, so what
/// an end keeps per connection it keeps once.
struct Endpoint {
    stack: TcpStack,
    /// The link this end transmits on.
    tx: Link,
    /// The queue lane that link's arrivals ride.
    tx_lane: LaneId,
    /// The pending event of the connection's armed retransmission timer.
    timer: Option<EventToken>,
}

const PORT: u16 = 9000;
const MSG: u64 = 64 * 1024;
const RING: RingId = RingId(0);
/// Receive ring entries of the stream IOuser.
const RING_ENTRIES: u64 = 512;
/// Delay from a ring store to the IOuser consuming it.
const CONSUME_DELAY: SimDuration = SimDuration::from_micros(4);

struct StreamBed {
    config: StreamBedConfig,
    queue: EventQueue<Ev>,
    rx: RxEngine<TcpSegment>,
    /// Descriptors posted so far (absolute).
    posted: u64,
    synth: SyntheticFaults,
    /// Resolution latency of an injected fault.
    resolve_delay: SimDuration,
    client: Endpoint,
    server: Endpoint,
    receiver: StreamReceiver,
    /// Emptied effect buffers awaiting reuse (applying the client's
    /// effects can drive its next write, so two are in use at once).
    spare_outs: Vec<Vec<TcpOutput>>,
}

impl StreamBed {
    fn new(config: StreamBedConfig) -> Self {
        // A new bed starts a new timeline at t=0; tell the thread's
        // instruments, so their clocks restart with it and monotonicity
        // tracking does not span testbeds.
        instruments::note_timeline_reset();
        let mut rng = SimRng::new(SEED);

        // Server: one IOuser with a pre-faulted ring. Nothing consults
        // the engine once the ring is warm: only synthetic faults fire.
        let mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::gib(4),
            ..MemConfig::default()
        });
        let mut engine = NpfEngine::new(NpfConfig::default(), mm, rng.fork(1));
        let space = engine.memory_mut().create_space();
        let rx_range = PageRange::new(VirtAddr(RX_BUFFER_BASE).vpn(), RING_ENTRIES);
        engine
            .memory_mut()
            .mmap_fixed(space, rx_range, Backing::Anonymous)
            .expect("rx mapping");
        let domain = engine.create_channel(space);
        for vpn in rx_range.iter() {
            engine.touch(space, vpn, true).expect("prefault");
            let frame = engine
                .memory()
                .space(space)
                .expect("space")
                .frame_of(vpn)
                .expect("resident");
            engine.iommu_mut().map(domain, vpn, frame, true);
        }
        let mut rx: RxEngine<TcpSegment> = RxEngine::new(match config.mode {
            StreamMode::Drop => RxFaultMode::Drop,
            StreamMode::Backup => RxFaultMode::BackupRing { capacity: 2048 },
        });
        rx.create_ring(RING, RING_ENTRIES, RING_ENTRIES * 2);

        let mut synth = SyntheticFaults::new(config.fault_frequency, rng.fork(2));
        synth.arm();
        let minor = SimDuration::from_micros(220);
        let major = minor + COST.memcpy(0) + SimDuration::from_millis(5);

        let link_cfg = config.profile.apply_link(LinkConfig {
            bandwidth: PROTOTYPE_LINK,
            propagation: SimDuration::from_micros(1),
            queue_capacity: 8 << 20,
            ecn_threshold: None,
            loss_probability: 0.0,
        });
        let mut queue = EventQueue::new();
        let mut endpoint = |fork| Endpoint {
            stack: TcpStack::new(),
            tx: Link::new(link_cfg, rng.fork(fork)),
            tx_lane: queue.lane(),
            timer: None,
        };
        let (client, server) = (endpoint(3), endpoint(4));
        let mut bed = StreamBed {
            config,
            queue,
            rx,
            posted: 0,
            synth,
            resolve_delay: if config.major_faults { major } else { minor },
            client,
            server,
            receiver: StreamReceiver::new(),
            spare_outs: Vec::new(),
        };
        for _ in 0..RING_ENTRIES {
            bed.post_one();
        }
        bed.server.stack.listen(PORT, TcpConfig::lwip());
        let mut outs = Vec::new();
        let slot =
            bed.client
                .stack
                .connect_into(SimTime::ZERO, 5000, PORT, TcpConfig::linux(), &mut outs);
        bed.apply(SimTime::ZERO, Side::Client, slot, outs);
        bed
    }

    fn post_one(&mut self) {
        let slot = self.posted % RING_ENTRIES;
        self.posted += 1;
        self.rx.post_descriptor(
            RING,
            RxDescriptor {
                addr: VirtAddr(RX_BUFFER_BASE + slot * memsim::PAGE_SIZE),
                capacity: memsim::PAGE_SIZE,
            },
        );
    }

    /// Reposts descriptors for drop-mode holes passed over.
    fn repost_holes(&mut self) {
        for _ in 0..self.rx.take_skipped_holes(RING) {
            self.post_one();
        }
    }

    fn end(&mut self, side: Side) -> &mut Endpoint {
        match side {
            Side::Client => &mut self.client,
            Side::Server => &mut self.server,
        }
    }

    fn cancel_timer(&mut self, side: Side) {
        if let Some(tok) = self.end(side).timer.take() {
            self.queue.cancel(tok);
        }
    }

    /// An empty effect buffer for the next TCP call; `apply` takes it
    /// back.
    fn take_outs(&mut self) -> Vec<TcpOutput> {
        self.spare_outs.pop().unwrap_or_default()
    }

    fn client_write(&mut self, now: SimTime, slot: ConnSlot, bytes: u64) {
        let mut outs = self.take_outs();
        self.client
            .stack
            .conn_at_mut(slot)
            .write_into(now, bytes, &mut outs);
        self.apply(now, Side::Client, slot, outs);
    }

    /// A segment reached `side`: its stack handles it and the effects
    /// are performed. Returns the connection it belonged to.
    fn on_segment(&mut self, now: SimTime, side: Side, seg: TcpSegment) -> Option<ConnSlot> {
        let mut outs = self.take_outs();
        let slot = self.end(side).stack.on_segment_into(now, seg, &mut outs);
        match slot {
            Some(slot) => self.apply(now, side, slot, outs),
            None => self.spare_outs.push(outs),
        }
        slot
    }

    /// Performs the effects `side`'s connection asked for, then keeps
    /// the emptied buffer for reuse.
    fn apply(&mut self, now: SimTime, side: Side, slot: ConnSlot, mut outs: Vec<TcpOutput>) {
        for out in outs.drain(..) {
            match (out, side) {
                (TcpOutput::Send(seg), _) => {
                    let end = self.end(side);
                    if let SendOutcome::Delivered { arrives_at, .. } =
                        end.tx.send(now, seg.wire_size())
                    {
                        let lane = end.tx_lane;
                        let arrival = match side {
                            Side::Client => Ev::ToServer(seg),
                            Side::Server => Ev::ToClient(seg),
                        };
                        self.queue.schedule_on(lane, arrives_at, arrival);
                    }
                }
                (TcpOutput::SetTimer(at), _) => {
                    // Re-armed per ACK and almost never due: off the heap.
                    let tok = self.queue.schedule_timer(at, Ev::Timer(side, slot));
                    if let Some(armed) = self.end(side).timer.replace(tok) {
                        self.queue.cancel(armed);
                    }
                }
                (TcpOutput::CancelTimer, _) => self.cancel_timer(side),
                // Start the stream: keep the pipe full.
                (TcpOutput::Connected, Side::Client) => self.client_write(now, slot, MSG * 8),
                (TcpOutput::Readable, Side::Server) => {
                    let conn = self.server.stack.conn_at_mut(slot);
                    let n = conn.readable_bytes();
                    conn.read(n);
                    self.receiver.deliver(n);
                }
                _ => {}
            }
        }
        self.spare_outs.push(outs);
    }

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::ToServer(seg) => {
                // Presence: ring is warm; only synthetic faults fire.
                let posted_desc = self.rx.target_descriptor(RING).is_some();
                let present = posted_desc && !self.synth.should_fault();
                match self.rx.recv(RING, seg, seg.wire_size(), present) {
                    RxVerdict::Stored { notify_iouser, .. } => {
                        if notify_iouser {
                            self.queue.schedule_in(CONSUME_DELAY, Ev::Consume);
                        }
                    }
                    RxVerdict::Backup { .. } => {
                        self.queue.schedule_in(self.resolve_delay, Ev::Merge);
                    }
                    RxVerdict::Dropped { burned_descriptor } => {
                        if burned_descriptor {
                            self.queue.schedule_in(CONSUME_DELAY, Ev::Consume);
                        }
                    }
                }
            }
            Ev::Merge => {
                if let Some(entry) = self.rx.pop_backup() {
                    let placed =
                        self.rx
                            .place_resolved(RING, entry.target_index, entry.payload, entry.len);
                    if placed && self.rx.resolve_rnpfs(RING, entry.bit_index) {
                        self.queue.schedule_in(CONSUME_DELAY, Ev::Consume);
                    }
                }
            }
            Ev::Consume => loop {
                self.repost_holes();
                let Some((seg, _)) = self.rx.consume(RING) else {
                    // A trailing run of holes still needs reposting.
                    self.repost_holes();
                    break;
                };
                self.post_one();
                self.on_segment(now, Side::Server, seg);
            },
            Ev::ToClient(seg) => {
                if let Some(slot) = self.on_segment(now, Side::Client, seg) {
                    // Keep the stream saturated.
                    if self.client.stack.conn_at(slot).send_queue_bytes() < MSG * 4 {
                        self.client_write(now, slot, MSG * 4);
                    }
                }
            }
            Ev::Timer(side, slot) => {
                // This is the timer's own event: nothing is left to cancel.
                self.end(side).timer = None;
                let mut outs = self.take_outs();
                self.end(side).stack.on_timer_into(now, slot, &mut outs);
                self.apply(now, side, slot, outs);
            }
        }
    }

    fn result(&self) -> StreamBedResult {
        let duration = self.config.duration.as_secs_f64().max(1e-12);
        let counters = self.rx.counters();
        StreamBedResult {
            goodput_gbps: self.receiver.bytes() as f64 * 8.0 / 1e9 / duration,
            faults_injected: self.synth.injected(),
            nic_drops: counters.get("dropped_fault") + counters.get("dropped_no_buffer"),
            backup_packets: counters.get("backup_stored"),
        }
    }
}

/// Runs the Ethernet stream benchmark.
pub fn run_stream(config: StreamBedConfig) -> StreamBedResult {
    let mut bed = StreamBed::new(config);
    let deadline = SimTime::ZERO + config.duration;
    while let Some((now, ev)) = bed.queue.pop_until(deadline) {
        bed.dispatch(now, ev);
    }
    bed.result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::instruments::Instruments;
    use simcore::journal::{self, JournalRecorder, MarkKind};

    fn journaling() -> Instruments {
        Instruments {
            journal: Some(JournalRecorder::new()),
            ..Instruments::default()
        }
    }

    #[test]
    fn clean_stream_approaches_line_rate() {
        let r = run_stream(StreamBedConfig {
            duration: SimDuration::from_millis(400),
            ..StreamBedConfig::default()
        });
        assert!(
            r.goodput_gbps > 8.0,
            "a clean 12 Gb/s stream should exceed 8 Gb/s: {}",
            r.goodput_gbps
        );
        assert_eq!(r.faults_injected, 0);
    }

    #[test]
    fn backup_ring_tolerates_frequent_faults() {
        let r = run_stream(StreamBedConfig {
            fault_frequency: 1.0 / 1024.0,
            mode: StreamMode::Backup,
            duration: SimDuration::from_millis(400),
            ..StreamBedConfig::default()
        });
        assert!(r.faults_injected > 0);
        assert!(r.backup_packets > 0);
        assert!(
            r.goodput_gbps > 4.0,
            "backup ring must keep most of the bandwidth: {}",
            r.goodput_gbps
        );
    }

    #[test]
    fn dropping_collapses_under_frequent_faults() {
        let drop = run_stream(StreamBedConfig {
            fault_frequency: 1.0 / 1024.0,
            mode: StreamMode::Drop,
            duration: SimDuration::from_millis(400),
            ..StreamBedConfig::default()
        });
        let backup = run_stream(StreamBedConfig {
            fault_frequency: 1.0 / 1024.0,
            mode: StreamMode::Backup,
            duration: SimDuration::from_millis(400),
            ..StreamBedConfig::default()
        });
        assert!(drop.nic_drops > 0);
        assert!(
            drop.goodput_gbps < backup.goodput_gbps / 2.0,
            "drop {} vs backup {}",
            drop.goodput_gbps,
            backup.goodput_gbps
        );
    }

    #[test]
    fn major_faults_hurt_more_than_minor() {
        let minor = run_stream(StreamBedConfig {
            fault_frequency: 1.0 / 512.0,
            major_faults: false,
            duration: SimDuration::from_millis(400),
            ..StreamBedConfig::default()
        });
        let major = run_stream(StreamBedConfig {
            fault_frequency: 1.0 / 512.0,
            major_faults: true,
            duration: SimDuration::from_millis(400),
            ..StreamBedConfig::default()
        });
        assert!(
            major.goodput_gbps < minor.goodput_gbps,
            "major {} vs minor {}",
            major.goodput_gbps,
            minor.goodput_gbps
        );
    }

    #[test]
    fn journal_marks_carry_event_time() {
        let duration = SimDuration::from_millis(50);
        journaling().install();
        let r = run_stream(StreamBedConfig {
            fault_frequency: 1.0 / 64.0,
            duration,
            ..StreamBedConfig::default()
        });
        let journal = Instruments::take().journal.expect("installed above");
        assert!(r.backup_packets > 0);
        // Link arrivals are stamped ahead with their delivery time;
        // every other mark reads the journal clock.
        let clocked: Vec<_> = journal
            .marks()
            .iter()
            .filter(|m| m.kind != MarkKind::PacketArrival)
            .collect();
        assert!(clocked.windows(2).all(|w| w[0].time <= w[1].time));
        let diverts: Vec<_> = clocked
            .iter()
            .filter(|m| m.kind == MarkKind::RxBackupDivert)
            .collect();
        assert_eq!(diverts.len() as u64, r.backup_packets);
        for m in diverts {
            assert!(SimTime::ZERO < m.time && m.time <= SimTime::ZERO + duration);
        }
    }

    /// Regression: the journal clock used to run on across beds, so a
    /// second run's clock-stamped marks read the first run's end time.
    #[test]
    fn back_to_back_runs_stamp_marks_on_their_own_timelines() {
        let run = |duration| {
            run_stream(StreamBedConfig {
                fault_frequency: 1.0 / 64.0,
                duration,
                ..StreamBedConfig::default()
            })
        };
        journaling().install();
        run(SimDuration::from_millis(60));
        let first = journal::with(|j| j.marks().len()).expect("installed above");
        let second = run(SimDuration::from_millis(20));
        let journal = Instruments::take().journal.expect("installed above");
        let diverts: Vec<SimTime> = journal.marks()[first..]
            .iter()
            .filter(|m| m.kind == MarkKind::RxBackupDivert)
            .map(|m| m.time)
            .collect();
        assert_eq!(diverts.len() as u64, second.backup_packets);
        assert!(!diverts.is_empty());
        let end = SimTime::ZERO + SimDuration::from_millis(20);
        assert!(diverts.iter().all(|&t| t <= end), "{diverts:?}");
    }

    #[test]
    fn back_to_back_runs_are_checked_on_separate_timelines() {
        use simcore::chaos::{invariant, InvariantChecker};

        let run = |duration| {
            run_stream(StreamBedConfig {
                fault_frequency: 1.0 / 256.0,
                duration,
                ..StreamBedConfig::default()
            })
        };
        Instruments {
            checker: Some(InvariantChecker::new(7)),
            ..Instruments::default()
        }
        .install();
        run(SimDuration::from_millis(20));
        run(SimDuration::from_millis(20));
        let clean = invariant::with(|c| c.checks() > 0 && c.violations().is_empty());
        assert_eq!(clean, Some(true), "each run starts its own timeline");
        // The bed's events did reach the checker: its clock stands at
        // the second run's last one, so an earlier time is out of order.
        invariant::with(|c| c.note_event_time(SimTime::from_nanos(1)));
        let checker = Instruments::take().checker.expect("installed above");
        let found: Vec<_> = checker.finish().iter().map(|v| v.invariant).collect();
        assert_eq!(found, ["time-monotonicity"]);
    }

    #[test]
    fn a_server_timer_that_fires_is_rearmed() {
        let mut bed = StreamBed::new(StreamBedConfig::default());
        // Lose every SYN-ACK, so the server's handshake timer fires and
        // `on_timer` asks for it to be armed again.
        loop {
            let (now, ev) = bed.queue.pop().expect("the server timer is pending");
            if matches!(ev, Ev::ToClient(_)) {
                continue;
            }
            let server_timer = matches!(ev, Ev::Timer(Side::Server, _));
            bed.dispatch(now, ev);
            if server_timer {
                break;
            }
        }
        assert!(bed.server.timer.is_some());
        let mut live = 0;
        while let Some((_, ev)) = bed.queue.pop() {
            live += usize::from(matches!(ev, Ev::Timer(Side::Server, _)));
        }
        assert_eq!(live, 1);
    }
}
