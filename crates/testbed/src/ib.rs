//! The InfiniBand cluster testbed (§6's 8-node, 56 Gb/s setup).
//!
//! Each node owns an [`NpfEngine`] (its host memory + NIC IOMMU) and a
//! set of RC QPs. Every QP DMA consults the engine through a gate: a
//! miss starts an NPF whose completion is a scheduled event, so fault
//! latency, RNR NACK timing, and transport retries all interleave on
//! one deterministic clock.

use std::collections::BTreeMap;
use std::ops::Bound;

use memsim::manager::{MemConfig, MemoryManager, TierConfig};
use memsim::space::Backing;
use memsim::swap::DiskConfig;
use memsim::types::{SpaceId, VirtAddr};
use netsim::fabric::{Fabric, PFC_XOFF, PFC_XON};
use netsim::link::{LinkConfig, SendOutcome, UNBOUNDED_QUEUE};
use netsim::packet::NodeId;
use netsim::profile::FabricProfile;
use npf_core::npf::{NpfConfig, NpfEngine};
use rdmasim::rc::RcQp;
use rdmasim::types::{
    Completion, DmaGate, GateDecision, MessageRange, QpId, QpOutput, QpTimer, RcConfig, RcPacket,
    RecvWqe, SendOp, WrId,
};
use simcore::chaos::{ChaosConfig, ChaosEngine, MemoryFate, PacketFate, CHAOS_TICK};
use simcore::event::{EventQueue, EventToken, LaneId};
use simcore::instruments;
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};
use simcore::units::{Bandwidth, ByteSize};
use workloads::stream::SyntheticFaults;

use iommu::DomainId;

/// Link rate: 56 Gb/s FDR InfiniBand, the paper's cluster fabric.
const BANDWIDTH: Bandwidth = Bandwidth::gbps(56);

/// Store-and-forward latency of the cluster's one switch (a SwitchX-2).
const SWITCH_LATENCY: SimDuration = SimDuration::from_nanos(200);

/// Cluster configuration.
///
/// Plain data: start from [`IbConfig::default`] and assign fields, or
/// chain the setters of [`crate::builder::ScenarioBuilder::infiniband`].
/// Either way the cluster is built (and the configuration validated)
/// by [`crate::builder::IbScenario::build`]. The struct is
/// `#[non_exhaustive]` so new knobs can be added without breaking
/// downstream crates.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct IbConfig {
    /// Number of nodes (the paper uses eight).
    pub nodes: u32,
    /// Per-node physical memory (the paper's nodes have 128 GB).
    pub node_memory: ByteSize,
    /// RC transport tuning.
    pub rc: RcConfig,
    /// NPF engine configuration.
    pub npf: NpfConfig,
    /// Secondary-storage model of every node.
    pub disk: DiskConfig,
    /// Optional NVM backing tier of every node (cold dirty pages
    /// demote there before the swap device).
    pub tier: Option<TierConfig>,
    /// RNG seed.
    pub seed: u64,
    /// Fault injection (disabled by default; a disabled config draws
    /// nothing from any RNG, so traces stay byte-identical).
    pub chaos: ChaosConfig,
    /// What the wire does: loss, PFC, ECN. Defaults to the paper's
    /// idealised lossless fabric, keeping legacy goldens byte-identical.
    pub profile: FabricProfile,
}

impl Default for IbConfig {
    fn default() -> Self {
        IbConfig {
            nodes: 8,
            node_memory: ByteSize::gib(8),
            rc: RcConfig::default(),
            npf: NpfConfig::default(),
            disk: DiskConfig::hard_drive(),
            tier: None,
            seed: 1,
            chaos: ChaosConfig::disabled(),
            profile: FabricProfile::default(),
        }
    }
}

/// Synthetic receive-fault injection for one node (Figure 10's IB
/// side).
#[derive(Debug)]
struct SyntheticInjector {
    generator: SyntheticFaults,
    /// Resolution latency of an injected fault.
    delay: SimDuration,
    next_id: u64,
}

/// Everything a node keeps per QP, found with one lookup per drive.
struct QpSlot {
    qp: RcQp,
    /// The IOMMU domain of the QP's channel.
    domain: DomainId,
    /// The pending event of each armed timer, by [`QpTimer::index`].
    timers: [Option<EventToken>; QpTimer::COUNT],
}

impl QpSlot {
    fn new(qp: RcQp, domain: DomainId) -> Self {
        QpSlot {
            qp,
            domain,
            timers: [None; QpTimer::COUNT],
        }
    }
}

/// One cluster node.
pub struct IbNode {
    engine: NpfEngine,
    space: SpaceId,
    default_domain: DomainId,
    /// Ordered, so that waking every QP of the node (fault completion)
    /// visits them in `QpId` order in every process.
    qps: BTreeMap<QpId, QpSlot>,
    completions: Vec<Completion>,
    synthetic: Option<SyntheticInjector>,
}

impl IbNode {
    /// The node's NPF engine.
    #[must_use]
    pub fn engine(&self) -> &NpfEngine {
        &self.engine
    }

    /// Mutable engine access.
    pub fn engine_mut(&mut self) -> &mut NpfEngine {
        &mut self.engine
    }

    /// The node's application address space.
    #[must_use]
    pub fn space(&self) -> SpaceId {
        self.space
    }

    fn slot(&self, qp: QpId) -> &QpSlot {
        self.qps
            .get(&qp)
            .unwrap_or_else(|| panic!("no QP {} on this node", qp.0))
    }

    /// The IOMMU domain of a QP's channel.
    ///
    /// # Panics
    ///
    /// Panics if the node has no such QP.
    #[must_use]
    pub fn domain_of(&self, qp: QpId) -> DomainId {
        self.slot(qp).domain
    }

    /// The node's shared protection-domain-like channel (all QPs
    /// created with [`IbCluster::connect_shared`] use it).
    #[must_use]
    pub fn default_domain(&self) -> DomainId {
        self.default_domain
    }

    /// A QP's transport statistics.
    ///
    /// # Panics
    ///
    /// Panics if the node has no such QP.
    #[must_use]
    pub fn qp_stats(&self, qp: QpId) -> rdmasim::rc::RcStats {
        *self.slot(qp).qp.stats()
    }
}

/// Cluster events.
#[derive(Debug)]
enum IbEvent {
    Deliver {
        node: u32,
        pkt: RcPacket,
    },
    QpTimer {
        node: u32,
        qp: QpId,
        timer: QpTimer,
    },
    FaultDone {
        node: u32,
        fault: u64,
    },
    SynthDone {
        node: u32,
        fault: u64,
    },
    PostSend {
        node: u32,
        qp: QpId,
        wr_id: WrId,
        op: SendOp,
    },
    /// Clock sentinel (used to advance simulated time across CPU-side
    /// work that produces no packets).
    Nop,
    /// Periodic chaos heartbeat driving memory-pressure injections.
    /// Re-arms itself while work is pending.
    ChaosTick,
}

/// The gate wiring a QP's DMAs to a node's NPF engine.
struct EngineGate<'a> {
    engine: &'a mut NpfEngine,
    domain: DomainId,
    now: SimTime,
    /// Newly begun engine faults: `(id, ready_at)`.
    new_faults: Vec<(u64, SimTime)>,
    /// Synthetic injector, receive path only.
    synthetic: Option<&'a mut SyntheticInjector>,
    /// Synthetic faults injected by this call: `(id, resolve_at)`.
    new_synthetic: Vec<(u64, SimTime)>,
}

impl EngineGate<'_> {
    fn check(
        &mut self,
        addr: VirtAddr,
        len: u64,
        message: MessageRange,
        write: bool,
    ) -> GateDecision {
        if self.engine.dma_ready(self.domain, addr, len.max(1), write) {
            return GateDecision::Ok;
        }
        if let Some(id) = self
            .engine
            .pending_fault_covering(self.domain, addr, len.max(1))
        {
            return GateDecision::Fault { fault_id: id };
        }
        // Batched pre-fault: the driver parses the work request and
        // resolves the *whole* message buffer in one event (§4).
        match self.engine.begin_fault(
            self.now,
            self.domain,
            message.base,
            message.len.max(len).max(1),
            write,
            None,
        ) {
            Ok(rec) => {
                let (id, ready) = (rec.id, rec.ready_at);
                self.new_faults.push((id, ready));
                GateDecision::Fault { fault_id: id }
            }
            Err(e) => panic!("NPF resolution failed: {e}"),
        }
    }
}

impl DmaGate for EngineGate<'_> {
    fn gather(
        &mut self,
        _qp: QpId,
        addr: VirtAddr,
        len: u64,
        message: MessageRange,
    ) -> GateDecision {
        self.check(addr, len, message, false)
    }

    fn scatter(
        &mut self,
        _qp: QpId,
        addr: VirtAddr,
        len: u64,
        message: MessageRange,
    ) -> GateDecision {
        if let Some(injector) = self.synthetic.as_deref_mut() {
            if injector.generator.should_fault() {
                // Synthetic rNPF: the page is actually present; the NIC
                // behaves as if it were not, and "resolution" is a pure
                // delay.
                injector.next_id += 1;
                let id = u64::MAX - injector.next_id;
                let at = self.now + injector.delay;
                self.new_synthetic.push((id, at));
                return GateDecision::Fault { fault_id: id };
            }
        }
        self.check(addr, len, message, true)
    }
}

/// The 8-node cluster.
pub struct IbCluster {
    config: IbConfig,
    queue: EventQueue<IbEvent>,
    /// One FIFO lane of `queue` per destination node: a node's downlink
    /// hands out arrival times in order.
    lanes: Vec<LaneId>,
    fabric: Fabric,
    nodes: Vec<IbNode>,
    next_qp: u32,
    /// Master fault injector (a disabled one when chaos is off). Owns
    /// the packet, memory and pause streams; each node's NPF engine
    /// holds a fork.
    chaos: ChaosEngine,
    chaos_tick_armed: bool,
}

impl IbCluster {
    /// Constructs the cluster from an already-validated configuration.
    pub(crate) fn build(config: IbConfig) -> Self {
        // A new cluster starts a new timeline at t=0; tell the thread's
        // instruments, so their clocks restart with it and monotonicity
        // tracking does not span testbeds.
        instruments::note_timeline_reset();
        let mut rng = SimRng::new(config.seed);
        let mut link = config.profile.apply_link(LinkConfig::datacenter(BANDWIDTH));
        // Queues never tail-drop: IB's credit-based flow control means
        // the only losses are the profile's random loss (and chaos).
        link.queue_capacity = UNBOUNDED_QUEUE;
        let mut fabric = Fabric::star(link, config.nodes, SWITCH_LATENCY, &mut rng);
        if config.profile.pfc {
            fabric.set_pfc(PFC_XOFF, PFC_XON);
        }
        let mut nodes: Vec<IbNode> = (0..config.nodes)
            .map(|i| {
                let mm = MemoryManager::new(MemConfig {
                    total_memory: config.node_memory,
                    disk: config.disk,
                    tier: config.tier,
                    ..MemConfig::default()
                });
                let mut engine = NpfEngine::new(config.npf, mm, rng.fork(u64::from(i)));
                let space = engine.memory_mut().create_space();
                let default_domain = engine.create_channel(space);
                IbNode {
                    engine,
                    space,
                    default_domain,
                    qps: BTreeMap::new(),
                    completions: Vec::new(),
                    synthetic: None,
                }
            })
            .collect();
        let mut chaos = ChaosEngine::new(config.chaos);
        for (i, node) in nodes.iter_mut().enumerate() {
            node.engine.set_chaos(chaos.fork(0x100 + i as u64));
        }
        let mut queue = EventQueue::new();
        let lanes = (0..config.nodes).map(|_| queue.lane()).collect();
        let mut cluster = IbCluster {
            config,
            queue,
            lanes,
            fabric,
            nodes,
            next_qp: 0,
            chaos,
            chaos_tick_armed: false,
        };
        cluster.arm_chaos_tick();
        cluster
    }

    /// The master fault injector; its `net_drop` counter tallies the
    /// packets it dropped on the otherwise lossless fabric.
    #[must_use]
    pub fn chaos(&self) -> &ChaosEngine {
        &self.chaos
    }

    /// The switched fabric: drop/mark/PFC-pause tallies for the lossy
    /// experiments.
    #[must_use]
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Schedules the next chaos heartbeat, if chaos is on and none is
    /// pending.
    fn arm_chaos_tick(&mut self) {
        if self.chaos.enabled() && !self.chaos_tick_armed {
            self.chaos_tick_armed = true;
            self.queue.schedule_in(CHAOS_TICK, IbEvent::ChaosTick);
        }
    }

    /// Applies one round of memory-pressure chaos to every node.
    fn chaos_tick(&mut self) {
        for node in &mut self.nodes {
            match self.chaos.memory_fate() {
                MemoryFate::Calm => {}
                MemoryFate::PressureBurst { pages } | MemoryFate::EvictionStorm { pages } => {
                    node.engine.chaos_evict(pages);
                }
            }
        }
    }

    /// The cluster configuration.
    #[must_use]
    pub fn config(&self) -> &IbConfig {
        &self.config
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Lifetime event-queue counters:
    /// `(scheduled, popped, cancelled, pending)`. Deliveries parked on a
    /// lane count as pending.
    #[must_use]
    pub fn queue_stats(&self) -> (u64, u64, u64, usize) {
        (
            self.queue.scheduled_total(),
            self.queue.popped_total(),
            self.queue.cancelled_total(),
            self.queue.len(),
        )
    }

    /// A node.
    #[must_use]
    pub fn node(&self, n: u32) -> &IbNode {
        &self.nodes[n as usize]
    }

    /// Mutable node access.
    pub fn node_mut(&mut self, n: u32) -> &mut IbNode {
        &mut self.nodes[n as usize]
    }

    /// Allocates an anonymous buffer region of `bytes` in node `n`'s
    /// space, returning its base address.
    pub fn alloc_buffers(&mut self, n: u32, bytes: ByteSize) -> VirtAddr {
        let node = &mut self.nodes[n as usize];
        let range = node
            .engine
            .memory_mut()
            .mmap(node.space, bytes, Backing::Anonymous)
            .expect("buffer mmap");
        range.start.base()
    }

    /// Connects nodes `a` and `b` with an RC QP pair, returning
    /// `(qp_at_a, qp_at_b)`. Each QP gets its own page-fault-capable
    /// IOMMU domain (its IOchannel).
    pub fn connect(&mut self, a: u32, b: u32) -> (QpId, QpId) {
        let qa = QpId(self.next_qp);
        let qb = QpId(self.next_qp + 1);
        self.next_qp += 2;
        for (local, qp, peer_qp, peer) in [(a, qa, qb, b), (b, qb, qa, a)] {
            let node = &mut self.nodes[local as usize];
            let dom = node.engine.create_channel(node.space);
            let rc = RcQp::new(self.config.rc, qp, peer_qp, NodeId(peer));
            node.qps.insert(qp, QpSlot::new(rc, dom));
        }
        (qa, qb)
    }

    /// Like [`IbCluster::connect`] but both QPs share their node's
    /// default domain (one protection domain per process, as MPI
    /// libraries do).
    pub fn connect_shared(&mut self, a: u32, b: u32) -> (QpId, QpId) {
        let qa = QpId(self.next_qp);
        let qb = QpId(self.next_qp + 1);
        self.next_qp += 2;
        for (local, qp, peer_qp, peer) in [(a, qa, qb, b), (b, qb, qa, a)] {
            let node = &mut self.nodes[local as usize];
            let rc = RcQp::new(self.config.rc, qp, peer_qp, NodeId(peer));
            node.qps.insert(qp, QpSlot::new(rc, node.default_domain));
        }
        (qa, qb)
    }

    /// Arms synthetic receive faults on node `n` (Figure 10 IB).
    pub fn set_synthetic_faults(&mut self, n: u32, frequency: f64, delay: SimDuration, seed: u64) {
        let mut generator = SyntheticFaults::new(frequency, SimRng::new(seed));
        generator.arm();
        self.nodes[n as usize].synthetic = Some(SyntheticInjector {
            generator,
            delay,
            next_id: 0,
        });
    }

    /// Posts a receive buffer on `(node, qp)`.
    pub fn post_recv(&mut self, node: u32, qp: QpId, wr_id: WrId, addr: VirtAddr, capacity: u64) {
        self.nodes[node as usize]
            .qps
            .get_mut(&qp)
            .expect("unknown qp")
            .qp
            .post_recv(RecvWqe {
                wr_id,
                addr,
                capacity,
            });
    }

    /// Posts a send-queue operation immediately.
    pub fn post_send(&mut self, node: u32, qp: QpId, wr_id: WrId, op: SendOp) {
        let now = self.queue.now();
        self.arm_chaos_tick();
        self.drive_qp(now, node, qp, QpDrive::PostSend { wr_id, op });
    }

    /// Schedules a send-queue post after `delay` (modelling CPU-side
    /// preparation such as registration work).
    pub fn post_send_after(
        &mut self,
        delay: SimDuration,
        node: u32,
        qp: QpId,
        wr_id: WrId,
        op: SendOp,
    ) {
        self.arm_chaos_tick();
        self.queue.schedule_in(
            delay,
            IbEvent::PostSend {
                node,
                qp,
                wr_id,
                op,
            },
        );
    }

    /// Drains completions collected at `node`.
    pub fn drain_completions(&mut self, node: u32) -> Vec<Completion> {
        std::mem::take(&mut self.nodes[node as usize].completions)
    }

    /// Completions currently collected at `node` (without draining).
    #[must_use]
    pub fn completions(&self, node: u32) -> &[Completion] {
        &self.nodes[node as usize].completions
    }

    /// Advances the clock to `target`, processing any events due before
    /// it (models CPU-side work between rounds).
    pub fn run_idle_until(&mut self, target: SimTime) {
        self.queue.schedule_at(target, IbEvent::Nop);
        while self.step_until(target) {}
    }

    /// Runs until no events remain or `max_events` were processed.
    /// Returns the number of events handled.
    pub fn run_until_quiescent(&mut self, max_events: u64) -> u64 {
        let before = self.queue.popped_total();
        self.run_until(|_| false, max_events);
        self.queue.popped_total() - before
    }

    /// Runs until `done` holds, checking it before every event. Returns
    /// `false` if the queue drained or `budget` events were processed
    /// first.
    pub fn run_until(&mut self, mut done: impl FnMut(&IbCluster) -> bool, budget: u64) -> bool {
        for _ in 0..budget {
            if done(self) {
                return true;
            }
            if !self.step() {
                return false;
            }
        }
        done(self)
    }

    /// Processes one event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.step_until(SimTime::MAX)
    }

    /// Handles the next event due by `deadline`; `false` when none is.
    fn step_until(&mut self, deadline: SimTime) -> bool {
        let Some((now, event)) = self.queue.pop_until(deadline) else {
            return false;
        };
        match event {
            IbEvent::Deliver { node, pkt } => {
                self.drive_qp(now, node, pkt.dst_qp, QpDrive::Packet(pkt));
            }
            IbEvent::QpTimer { node, qp, timer } => {
                self.drive_qp(now, node, qp, QpDrive::Timer(timer));
            }
            IbEvent::FaultDone { node, fault } => {
                let n = &mut self.nodes[node as usize];
                if n.engine.pending_fault(fault).is_some() {
                    n.engine.complete_fault(fault);
                }
                self.wake_qps(now, node, fault);
            }
            IbEvent::SynthDone { node, fault } => self.wake_qps(now, node, fault),
            IbEvent::PostSend {
                node,
                qp,
                wr_id,
                op,
            } => {
                self.drive_qp(now, node, qp, QpDrive::PostSend { wr_id, op });
            }
            IbEvent::Nop => {}
            IbEvent::ChaosTick => {
                self.chaos_tick_armed = false;
                self.chaos_tick();
                // Keep ticking only while other work is pending, so
                // quiescence is still reachable.
                if !self.queue.is_empty() {
                    self.arm_chaos_tick();
                }
            }
        }
        true
    }

    /// Tells every QP of `node` that `fault` resolved (any of them may be
    /// paused on it), in `QpId` order. Driving a QP needs `&mut self`, so
    /// the walk re-seeks from the last id instead of holding an iterator.
    fn wake_qps(&mut self, now: SimTime, node: u32, fault: u64) {
        let mut after = Bound::Unbounded;
        while let Some((&qp, _)) = self.nodes[node as usize]
            .qps
            .range((after, Bound::Unbounded))
            .next()
        {
            self.drive_qp(now, node, qp, QpDrive::FaultResolved(fault));
            after = Bound::Excluded(qp);
        }
    }

    /// Drives one QP with one stimulus and performs its effects.
    fn drive_qp(&mut self, now: SimTime, node_idx: u32, qp: QpId, drive: QpDrive) {
        let IbCluster {
            config,
            queue,
            lanes,
            fabric,
            nodes,
            chaos,
            ..
        } = self;
        let IbNode {
            engine,
            qps,
            completions,
            synthetic,
            ..
        } = &mut nodes[node_idx as usize];
        let Some(slot) = qps.get_mut(&qp) else {
            return;
        };
        let mut gate = EngineGate {
            engine,
            domain: slot.domain,
            now,
            new_faults: Vec::new(),
            synthetic: synthetic.as_mut(),
            new_synthetic: Vec::new(),
        };
        let outputs = match drive {
            QpDrive::Packet(pkt) => slot.qp.on_packet(now, pkt, &mut gate),
            QpDrive::Timer(t) => {
                // This is the timer's own event: nothing is left to cancel.
                slot.timers[t.index()] = None;
                slot.qp.on_timer(now, t, &mut gate)
            }
            QpDrive::PostSend { wr_id, op } => slot.qp.post_send(now, wr_id, op, &mut gate),
            QpDrive::FaultResolved(id) => slot.qp.fault_resolved(now, id, &mut gate),
        };
        let EngineGate {
            new_faults,
            new_synthetic,
            ..
        } = gate;

        // Speculative pre-faults issued alongside the demand faults
        // complete through the same FaultDone path (the handler
        // tolerates ids no QP is waiting on).
        let spawned = engine.drain_spawned_prefetches();
        if !new_faults.is_empty() || !spawned.is_empty() {
            for (id, ready) in new_faults.into_iter().chain(spawned) {
                queue.schedule_at(
                    ready,
                    IbEvent::FaultDone {
                        node: node_idx,
                        fault: id,
                    },
                );
            }
        }
        for (id, at) in new_synthetic {
            queue.schedule_at(
                at,
                IbEvent::SynthDone {
                    node: node_idx,
                    fault: id,
                },
            );
        }

        // One drive often sets a timer more than once (an ACK re-arms
        // the retransmit timer when it retires packets and again after
        // pumping new ones). Only the last word per timer kind can be
        // observed, so only it is applied — at its own position among
        // the outputs, which keeps every event's queue order.
        let mut last_timer_op = [usize::MAX; QpTimer::COUNT];
        for (i, out) in outputs.iter().enumerate() {
            if let QpOutput::SetTimer(timer, _) | QpOutput::CancelTimer(timer) = out {
                last_timer_op[timer.index()] = i;
            }
        }

        for (i, out) in outputs.into_iter().enumerate() {
            match out {
                QpOutput::Send { to, packet } => {
                    let fate = chaos.packet_fate();
                    if fate == PacketFate::Drop {
                        // Injected loss never reaches the wire; the
                        // transport's retransmission recovers.
                        continue;
                    }
                    match fabric.send(now, NodeId(node_idx), to, packet.wire_size()) {
                        SendOutcome::Delivered { arrives_at, .. } => {
                            // A corrupted packet burns the wire but fails
                            // the receiver's CRC: it never reaches the QP.
                            let node = to.0;
                            for at in fate.arrivals(arrives_at) {
                                queue.schedule_on(
                                    lanes[node as usize],
                                    at,
                                    IbEvent::Deliver { node, pkt: packet },
                                );
                            }
                        }
                        SendOutcome::Dropped => {
                            // Random loss from a lossy profile: the
                            // packet vanishes and the transport's
                            // timeout/NAK machinery recovers.
                            assert!(
                                config.profile.loss > 0.0,
                                "lossless IB fabric dropped a packet"
                            );
                        }
                    }
                }
                QpOutput::SetTimer(timer, _) | QpOutput::CancelTimer(timer)
                    if last_timer_op[timer.index()] != i => {}
                QpOutput::SetTimer(timer, at) => {
                    let armed = &mut slot.timers[timer.index()];
                    if let Some(tok) = armed.take() {
                        queue.cancel(tok);
                    }
                    let node = node_idx;
                    *armed = Some(queue.schedule_at(at, IbEvent::QpTimer { node, qp, timer }));
                }
                QpOutput::CancelTimer(timer) => {
                    if let Some(tok) = slot.timers[timer.index()].take() {
                        queue.cancel(tok);
                    }
                }
                QpOutput::Complete(c) => completions.push(c),
                QpOutput::RnrIssued { .. } => {
                    // The gate already started resolution (or it is
                    // synthetic); nothing further to do.
                }
            }
        }
    }
}

#[derive(Debug)]
enum QpDrive {
    Packet(RcPacket),
    Timer(QpTimer),
    PostSend { wr_id: WrId, op: SendOp },
    FaultResolved(u64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdmasim::types::{WcOpcode, WcStatus};

    fn two_node_cluster() -> IbCluster {
        let scenario = crate::builder::ScenarioBuilder::infiniband().nodes(2);
        scenario.build().expect("valid scenario")
    }

    #[test]
    fn send_recv_over_cold_odp_buffers_completes() {
        let mut c = two_node_cluster();
        let (qa, qb) = c.connect(0, 1);
        let src = c.alloc_buffers(0, ByteSize::mib(8));
        let dst = c.alloc_buffers(1, ByteSize::mib(8));
        c.post_recv(1, qb, 100, dst, 8 << 20);
        c.post_send(
            0,
            qa,
            1,
            SendOp::Send {
                local: src,
                len: 1 << 20,
            },
        );
        c.run_until_quiescent(1_000_000);
        let ca = c.drain_completions(0);
        let cb = c.drain_completions(1);
        assert_eq!(ca.len(), 1, "send completion");
        assert_eq!(ca[0].status, WcStatus::Success);
        assert_eq!(cb.len(), 1, "recv completion");
        assert_eq!(cb[0].len, 1 << 20);
        // Cold buffers mean both sides faulted at least once.
        assert!(
            c.node(0).engine().counters().get("npf_events") >= 1,
            "send-side NPF"
        );
        assert!(c.node(1).engine().counters().get("npf_events") >= 1, "rNPF");
        assert!(
            c.node(1).qp_stats(qb).rnr_nacks_sent >= 1,
            "rNPF sent RNR NACK"
        );
    }

    #[test]
    fn warm_buffers_transfer_without_faults() {
        let mut c = two_node_cluster();
        let (qa, qb) = c.connect(0, 1);
        let src = c.alloc_buffers(0, ByteSize::mib(1));
        let dst = c.alloc_buffers(1, ByteSize::mib(1));
        // Pin both sides (the static-pinning baseline).
        let da = c.node(0).domain_of(qa);
        let db = c.node(1).domain_of(qb);
        let ra = memsim::types::PageRange::covering(src, 1 << 20);
        let rb = memsim::types::PageRange::covering(dst, 1 << 20);
        c.node_mut(0)
            .engine_mut()
            .pin_and_map(da, ra)
            .expect("pin src");
        c.node_mut(1)
            .engine_mut()
            .pin_and_map(db, rb)
            .expect("pin dst");
        c.post_recv(1, qb, 5, dst, 1 << 20);
        c.post_send(
            0,
            qa,
            6,
            SendOp::Send {
                local: src,
                len: 1 << 20,
            },
        );
        c.run_until_quiescent(1_000_000);
        assert_eq!(c.node(0).engine().counters().get("npf_events"), 0);
        assert_eq!(c.node(1).engine().counters().get("npf_events"), 0);
        assert_eq!(c.drain_completions(1).len(), 1);
    }

    #[test]
    fn pinned_transfer_is_faster_than_cold_odp() {
        // Same message, warm vs cold: the cold one pays fault latency.
        let mut warm = two_node_cluster();
        let (qa, qb) = warm.connect(0, 1);
        let src = warm.alloc_buffers(0, ByteSize::mib(1));
        let dst = warm.alloc_buffers(1, ByteSize::mib(1));
        let da = warm.node(0).domain_of(qa);
        let db = warm.node(1).domain_of(qb);
        warm.node_mut(0)
            .engine_mut()
            .pin_and_map(da, memsim::types::PageRange::covering(src, 1 << 20))
            .expect("pin");
        warm.node_mut(1)
            .engine_mut()
            .pin_and_map(db, memsim::types::PageRange::covering(dst, 1 << 20))
            .expect("pin");
        warm.post_recv(1, qb, 1, dst, 1 << 20);
        warm.post_send(
            0,
            qa,
            2,
            SendOp::Send {
                local: src,
                len: 1 << 20,
            },
        );
        warm.run_until_quiescent(1_000_000);
        let warm_done = warm.now();

        let mut cold = two_node_cluster();
        let (qa, qb) = cold.connect(0, 1);
        let src = cold.alloc_buffers(0, ByteSize::mib(1));
        let dst = cold.alloc_buffers(1, ByteSize::mib(1));
        cold.post_recv(1, qb, 1, dst, 1 << 20);
        cold.post_send(
            0,
            qa,
            2,
            SendOp::Send {
                local: src,
                len: 1 << 20,
            },
        );
        cold.run_until_quiescent(1_000_000);
        let cold_done = cold.now();
        assert!(
            cold_done > warm_done + SimDuration::from_micros(100),
            "cold {cold_done} vs warm {warm_done}"
        );
        assert_eq!(cold.drain_completions(1).len(), 1, "cold still completes");
    }

    #[test]
    fn rdma_write_and_read_complete() {
        let mut c = two_node_cluster();
        let (qa, _qb) = c.connect(0, 1);
        let local = c.alloc_buffers(0, ByteSize::mib(2));
        let remote = c.alloc_buffers(1, ByteSize::mib(2));
        c.post_send(
            0,
            qa,
            11,
            SendOp::Write {
                local,
                remote,
                len: 256 * 1024,
            },
        );
        c.run_until_quiescent(1_000_000);
        let comps = c.drain_completions(0);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].opcode, WcOpcode::Write);
        // Now read it back.
        c.post_send(
            0,
            qa,
            12,
            SendOp::Read {
                local: VirtAddr(local.0 + (1 << 20)),
                remote,
                len: 256 * 1024,
            },
        );
        c.run_until_quiescent(1_000_000);
        let comps = c.drain_completions(0);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].opcode, WcOpcode::Read);
        assert_eq!(comps[0].status, WcStatus::Success);
    }

    #[test]
    fn synthetic_faults_slow_but_do_not_stop_the_stream() {
        // Two identical streams; one receiver injects faults.
        let run = |freq: f64| -> SimTime {
            let mut c = two_node_cluster();
            let (qa, qb) = c.connect(0, 1);
            let src = c.alloc_buffers(0, ByteSize::mib(8));
            let dst = c.alloc_buffers(1, ByteSize::mib(8));
            // Warm both sides (the benchmark pre-faults, §6.4).
            let da = c.node(0).domain_of(qa);
            let db = c.node(1).domain_of(qb);
            c.node_mut(0)
                .engine_mut()
                .pin_and_map(da, memsim::types::PageRange::covering(src, 8 << 20))
                .expect("pin");
            c.node_mut(1)
                .engine_mut()
                .pin_and_map(db, memsim::types::PageRange::covering(dst, 8 << 20))
                .expect("pin");
            if freq > 0.0 {
                c.set_synthetic_faults(1, freq, SimDuration::from_micros(220), 42);
            }
            for i in 0..64 {
                c.post_recv(1, qb, 100 + i, dst, 8 << 20);
            }
            for i in 0..64 {
                c.post_send(
                    0,
                    qa,
                    i,
                    SendOp::Send {
                        local: src,
                        len: 64 * 1024,
                    },
                );
            }
            c.run_until_quiescent(10_000_000);
            assert_eq!(
                c.drain_completions(1).len(),
                64,
                "all messages delivered at freq {freq}"
            );
            c.now()
        };
        let clean = run(0.0);
        let faulty = run(1.0 / 64.0);
        assert!(
            faulty > clean,
            "faults must cost time: clean {clean}, faulty {faulty}"
        );
    }

    /// A 1 MiB send over pinned buffers: 256 packets through a
    /// 128-packet window, so every ACK both retires packets and lets
    /// the QP pump new ones — two `SetTimer(Retransmit)` in one drive.
    fn pinned_one_mib_send() -> (IbCluster, QpId) {
        let mut c = two_node_cluster();
        let (qa, qb) = c.connect(0, 1);
        let src = c.alloc_buffers(0, ByteSize::mib(1));
        let dst = c.alloc_buffers(1, ByteSize::mib(1));
        for (n, qp, buf) in [(0, qa, src), (1, qb, dst)] {
            let dom = c.node(n).domain_of(qp);
            let range = memsim::types::PageRange::covering(buf, 1 << 20);
            c.node_mut(n)
                .engine_mut()
                .pin_and_map(dom, range)
                .expect("pin");
        }
        c.post_recv(1, qb, 100, dst, 1 << 20);
        let len = 1 << 20;
        c.post_send(0, qa, 1, SendOp::Send { local: src, len });
        (c, qa)
    }

    #[test]
    fn repeated_set_timer_in_one_drive_leaves_one_live_timer() {
        let (mut c, qa) = pinned_one_mib_send();
        // Stop right after the drive that handled the first ACK.
        while c.node(0).qp_stats(qa).data_packets_sent <= 128 {
            assert!(c.step(), "the first ACK arrives");
        }
        let now = c.now();
        assert_eq!(
            c.queue.cancelled_total(),
            1,
            "the ACK's drive re-armed the timer once, not once per SetTimer"
        );
        let retransmit = QpTimer::Retransmit.index();
        assert!(c.nodes[0].qps[&qa].timers[retransmit].is_some());
        let mut live = Vec::new();
        while let Some((at, ev)) = c.queue.pop() {
            if matches!(ev, IbEvent::QpTimer { node: 0, .. }) {
                live.push(at);
            }
        }
        assert_eq!(live, [now + rdmasim::types::RETRANSMIT_TIMEOUT]);

        // Same completions at the same simulated time as when every
        // SetTimer cost a cancel and a schedule.
        let (mut c, _) = pinned_one_mib_send();
        c.run_until_quiescent(1_000_000);
        assert!(c.queue.is_empty(), "the last ACK cancels the timer");
        assert_eq!(c.now(), SimTime::from_nanos(157_076));
        let wr_ids = |cs: Vec<Completion>| cs.iter().map(|c| c.wr_id).collect::<Vec<_>>();
        assert_eq!(wr_ids(c.drain_completions(0)), [1]);
        assert_eq!(wr_ids(c.drain_completions(1)), [100]);
    }

    #[test]
    fn queue_stats_balance_with_deliveries_parked_on_lanes() {
        use netsim::profile::{FabricProfile, RdmaTransport, TransportConfig};

        const MSG: u64 = 64 * 1024;
        let scenario = crate::builder::ScenarioBuilder::infiniband()
            .nodes(2)
            .profile(FabricProfile::lossy(0.01))
            .transport(TransportConfig::default().with_transport(RdmaTransport::SelectiveRepeat));
        let mut c = scenario.build().expect("valid scenario");
        let (qa, qb) = c.connect(0, 1);
        let src = c.alloc_buffers(0, ByteSize::mib(1));
        let dst = c.alloc_buffers(1, ByteSize::mib(1));
        for (n, qp, buf) in [(0, qa, src), (1, qb, dst)] {
            let dom = c.node(n).domain_of(qp);
            let range = memsim::types::PageRange::covering(buf, 1 << 20);
            c.node_mut(n)
                .engine_mut()
                .pin_and_map(dom, range)
                .expect("pin");
        }
        for i in 0..16 {
            c.post_recv(1, qb, 100 + i, VirtAddr(dst.0 + i * MSG), MSG);
            let local = VirtAddr(src.0 + i * MSG);
            c.post_send(0, qa, i, SendOp::Send { local, len: MSG });
        }
        let balanced = |c: &IbCluster| {
            let (scheduled, popped, cancelled, pending) = c.queue_stats();
            assert_eq!(scheduled, popped + cancelled + pending as u64);
        };
        let mut most_parked = 0;
        loop {
            balanced(&c);
            most_parked = most_parked.max(c.queue.parked());
            if !c.step() {
                break;
            }
        }
        assert!(most_parked > 8, "a window of packets rode node 1's lane");
        assert_eq!(c.drain_completions(1).len(), 16);
        assert!(c.fabric().total_drops() > 0, "the run was lossy");
        let (scheduled, popped, cancelled, pending) = c.queue_stats();
        assert_eq!((pending, c.queue.parked()), (0, 0));
        assert_eq!(scheduled, popped + cancelled);
        assert!(cancelled > 0, "ACKs re-armed the retransmit timer");
    }

    #[test]
    #[should_panic(expected = "no QP 9 on this node")]
    fn stats_of_an_unknown_qp_name_it() {
        let _ = two_node_cluster().node(0).qp_stats(QpId(9));
    }

    #[test]
    fn qps_paused_on_one_fault_wake_in_qp_order() {
        // Six QPs of node 0 share its default domain and gather from the
        // same cold buffer, so all six pause on a single NPF. Waking them
        // in hash order made the completion order differ from one cluster
        // to the next within a process.
        const MSG: u64 = 64 * 1024;
        let run = || -> Vec<WrId> {
            let mut c = two_node_cluster();
            let src = c.alloc_buffers(0, ByteSize::mib(1));
            let dst = c.alloc_buffers(1, ByteSize::mib(1));
            let db = c.node(1).default_domain();
            c.node_mut(1)
                .engine_mut()
                .pin_and_map(db, memsim::types::PageRange::covering(dst, 1 << 20))
                .expect("pin dst");
            let pairs: Vec<(QpId, QpId)> = (0..6).map(|_| c.connect_shared(0, 1)).collect();
            for (i, &(_, qb)) in (0u64..).zip(&pairs) {
                c.post_recv(1, qb, 100 + i, VirtAddr(dst.0 + i * MSG), MSG);
            }
            for (i, &(qa, _)) in (0u64..).zip(&pairs) {
                let op = SendOp::Send {
                    local: src,
                    len: MSG,
                };
                c.post_send(0, qa, i, op);
            }
            c.run_until_quiescent(1_000_000);
            assert_eq!(
                c.node(0).engine().counters().get("npf_events"),
                1,
                "all six sends wait on the same fault"
            );
            c.drain_completions(1).iter().map(|c| c.wr_id).collect()
        };
        let first = run();
        assert_eq!(first, run(), "same build, same completion order");
        assert_eq!(first, (100..106).collect::<Vec<WrId>>(), "QpId order");
    }

    #[test]
    fn journal_marks_carry_event_time() {
        use simcore::instruments::Instruments;
        use simcore::journal::{JournalRecorder, MarkKind};

        // 12 MiB of sends through 8 MiB nodes: both sides evict.
        const MSG: u64 = 64 * 1024;
        const MESSAGES: u64 = 192;
        Instruments {
            journal: Some(JournalRecorder::new()),
            ..Instruments::default()
        }
        .install();
        let scenario = crate::builder::ScenarioBuilder::infiniband()
            .nodes(2)
            .node_memory(ByteSize::mib(8));
        let mut c = scenario.build().expect("valid scenario");
        let (qa, qb) = c.connect(0, 1);
        let src = c.alloc_buffers(0, ByteSize::mib(12));
        let dst = c.alloc_buffers(1, ByteSize::mib(12));
        for i in 0..MESSAGES {
            c.post_recv(1, qb, 1000 + i, VirtAddr(dst.0 + i * MSG), MSG);
            let local = VirtAddr(src.0 + i * MSG);
            c.post_send(0, qa, i, SendOp::Send { local, len: MSG });
        }
        c.run_until_quiescent(10_000_000);
        let journal = Instruments::take().journal.expect("installed above");
        assert_eq!(c.drain_completions(1).len() as u64, MESSAGES);

        // Link arrivals are stamped ahead with their delivery time;
        // every other mark reads the journal clock.
        let clocked: Vec<_> = journal
            .marks()
            .iter()
            .filter(|m| m.kind != MarkKind::PacketArrival)
            .collect();
        assert!(clocked.iter().any(|m| m.kind == MarkKind::Eviction));
        assert!(clocked.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(clocked.windows(2).all(|w| w[0].time <= w[1].time));
        for m in clocked {
            assert!(
                SimTime::ZERO < m.time && m.time <= c.now(),
                "{:?} mark at {}",
                m.kind,
                m.time
            );
        }
    }
}
