//! The Ethernet testbed: memcached IOusers behind a direct-I/O NIC
//! (§5's running example, §6.1's memory experiments).
//!
//! Topology matches the paper: one client machine (unmodified Linux
//! TCP, memaslap load generators) connected back-to-back to one server
//! machine whose NIC is the 12 Gb/s NPF prototype. Each memcached
//! instance is an IOuser: a lightweight VM with its own address space,
//! lwIP user-level stack, SR-IOV IOchannel (receive ring + IOMMU
//! domain), steered by TCP port.
//!
//! The receive path is exact: packets DMA into IOuser ring buffers; a
//! non-present buffer is an rNPF handled per the configured
//! [`RxMode`] — pinned (never faults), drop (the Figure 4 strawman), or
//! the backup ring.

use std::collections::VecDeque;

use memsim::manager::{MemConfig, MemError, MemoryManager, TierConfig};
use memsim::space::Backing;
use memsim::swap::DiskConfig;
use memsim::types::{PageRange, SpaceId, VirtAddr};
use netsim::link::{Link, LinkConfig, SendOutcome};
use netsim::profile::FabricProfile;
use nicsim::interrupt::{InterruptDecision, InterruptModerator};
use nicsim::rx::{BackupPolicy, RingId, RxDescriptor, RxEngine, RxFaultMode, RxVerdict};
use nicsim::sriov::ChannelTable;
use npf_core::backup_driver::{BackupDriver, ResolveStep};
use npf_core::npf::{NpfConfig, NpfEngine};
use npf_core::{BackendKind, RX_BUFFER_BASE};
use simcore::chaos::{ChaosConfig, ChaosEngine, MemoryFate, PacketFate, CHAOS_TICK};
use simcore::event::{EventQueue, EventToken, LaneId};
use simcore::instruments;
use simcore::journal::{self, CauseId};
use simcore::rng::SimRng;
use simcore::stats::{DurationHistogram, ThroughputMeter};
use simcore::time::{SimDuration, SimTime};
use simcore::trace;
use simcore::units::{Bandwidth, ByteSize};
use tcpsim::{ConnSlot, TcpConfig, TcpOutput, TcpSegment, TcpStack};
use workloads::memcached::{
    KvOp, Memaslap, Memcached, MemcachedConfig, TenantPopularity, SLAB_BASE,
};

use crate::cpu::CpuPool;

/// Requests [`EthTestbed::look_ahead`] looks up together: the Table 5
/// instance's sixteen connections.
const LOOKAHEAD_BATCH: usize = 16;

/// Link rate of both Ethernet beds: 12 Gb/s, the duplication
/// prototype's effective rate (§5).
pub(crate) const PROTOTYPE_LINK: Bandwidth = Bandwidth::gbps(12);

/// Interrupt moderation holdoff. Calibrated: NAPI-style moderation
/// dominating the client-visible RTT (~85 us), matching the paper's
/// per-instance throughput.
const INTERRUPT_HOLDOFF: SimDuration = SimDuration::from_micros(85);

/// Server cores: the paper's Ethernet testbed has four.
const SERVER_CORES: u32 = 4;

/// Receive-fault policy of the server NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxMode {
    /// Statically pin every IOuser's memory (the production baseline).
    Pin,
    /// Drop faulting packets (resolving the fault in the background).
    Drop,
    /// The paper's backup ring.
    Backup,
}

/// Testbed configuration. Receive rings always start cold, as in
/// Figure 4: no field pre-faults them.
///
/// Plain data: start from [`EthConfig::default`] and assign fields, or
/// chain the setters of [`crate::builder::ScenarioBuilder::ethernet`].
/// Either way the testbed is built (and the configuration validated)
/// by [`crate::builder::EthScenario::build`]. The struct is
/// `#[non_exhaustive]` so new knobs can be added without breaking
/// downstream crates.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct EthConfig {
    /// Fault policy.
    pub mode: RxMode,
    /// memcached instances (IOusers / lightweight VMs).
    pub instances: u32,
    /// Concurrent closed-loop connections per instance.
    pub conns_per_instance: u32,
    /// RX ring entries per IOchannel.
    pub ring_entries: u64,
    /// Per-ring rNPF budget (`bm_size`).
    pub bm_size: u64,
    /// Backup ring capacity (packets).
    pub backup_capacity: u64,
    /// Server physical memory.
    pub host_memory: ByteSize,
    /// Secondary-storage model of the server (swap-in cost of a major
    /// re-fault).
    pub disk: DiskConfig,
    /// Per-instance memcached configuration (its `max_bytes` is the
    /// VM's memory allocation).
    pub memcached: MemcachedConfig,
    /// Keys in each instance's working set.
    pub working_set_keys: u64,
    /// Optional cgroup limit shared by *all* instances (Figure 7).
    pub cgroup_limit: Option<ByteSize>,
    /// Pre-populate each instance's cache with its working set
    /// (memaslap's warmup phase); steady-state experiments want this.
    pub preload: bool,
    /// §3's pre-faulting optimization: on an rNPF, resolve this many
    /// *subsequent* ring buffers in the same fault event (0 disables).
    /// Helps cold sequences; the paper notes it is not a complete
    /// solution on its own.
    pub prefault_window: u64,
    /// RNG seed.
    pub seed: u64,
    /// Fault injection (disabled by default; a disabled config draws
    /// nothing from any RNG, so traces stay byte-identical).
    pub chaos: ChaosConfig,
    /// NPF engine configuration (backend, per-channel concurrency,
    /// cross-channel fault arbiter, huge pages, prefetch).
    pub npf: NpfConfig,
    /// Optional NVM backing tier in front of the swap disk (cold dirty
    /// pages demote there first; re-faults promote them back cheaply).
    pub tier: Option<TierConfig>,
    /// Per-tenant backup-ring quota: `Some(q)` partitions the shared
    /// backup ring so no IOchannel holds more than `q` entries at once;
    /// `None` keeps the ring fully shared (first-come first-served).
    pub backup_quota: Option<u64>,
    /// Zipf exponent of tenant popularity: `Some(s)` skews the client's
    /// connection allocation so low-numbered instances receive more
    /// load; `None` spreads connections uniformly.
    pub tenant_skew: Option<f64>,
    /// Fabric profile (loss regime / ECN marking). The Ethernet testbed
    /// models a flow-controlled datacenter edge, so the default is
    /// lossless; PFC thresholds are ignored on this point-to-point link,
    /// and TCP does not react to ECN marks.
    pub profile: FabricProfile,
}

impl Default for EthConfig {
    fn default() -> Self {
        EthConfig {
            mode: RxMode::Backup,
            instances: 1,
            conns_per_instance: 16,
            ring_entries: 64,
            bm_size: 128,
            backup_capacity: 512,
            host_memory: ByteSize::gib(8),
            disk: DiskConfig::hard_drive(),
            memcached: MemcachedConfig::default(),
            working_set_keys: 100_000,
            cgroup_limit: None,
            preload: true,
            prefault_window: 0,
            seed: 1,
            chaos: ChaosConfig::disabled(),
            npf: NpfConfig::default(),
            tier: None,
            backup_quota: None,
            tenant_skew: None,
            profile: FabricProfile::default(),
        }
    }
}

/// Events of the Ethernet testbed.
#[derive(Debug)]
enum EthEvent {
    ToServer(TcpSegment),
    ToClient(TcpSegment),
    /// A connection's retransmission timer fired.
    TcpTimer(Side, ConnSlot),
    IoUserInterrupt(u32),
    BackupInterrupt,
    ResolverStep(RingId),
    FaultDone(u64),
    OpDone {
        instance: u32,
        /// The connection's slot in the instance's stack.
        conn: ConnSlot,
        response_bytes: u64,
        hit: bool,
    },
    Sample,
    /// Periodic chaos heartbeat driving memory-pressure injections.
    /// Re-arms itself while work is pending.
    ChaosTick,
}

/// Which TCP stack a connection lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    /// The client machine's Linux stack.
    Client,
    /// The lwIP stack of this memcached instance.
    Server(u32),
}

/// What an instance keeps per accepted connection, beside the stack's
/// own state.
struct ServerConn {
    /// The pending event of the armed retransmission timer.
    timer: Option<EventToken>,
    /// The same connection's slot in the client's stack, resolved once
    /// when the instance accepts it: the framing oracle lives there.
    peer: ConnSlot,
}

/// One memcached IOuser instance.
struct Instance {
    space: SpaceId,
    domain: iommu::DomainId,
    ring: RingId,
    stack: TcpStack,
    app: Memcached,
    rx_moderator: InterruptModerator,
    /// Indexed by the [`ConnSlot`] `stack` hands out. A stack never
    /// frees a slot, so a new connection always gets the next index
    /// ([`install`] asserts it).
    conns: Vec<ServerConn>,
    /// Descriptors posted so far (absolute).
    posted: u64,
}

/// What the client keeps per connection, beside the stack's own state.
struct ClientConn {
    instance: u32,
    alive: bool,
    /// The pending event of the armed retransmission timer.
    timer: Option<EventToken>,
    /// Oracle framing: `(request_bytes, op)` the client has written
    /// (stands in for protocol parsing at the server).
    requests: VecDeque<(u64, KvOp)>,
    /// Oracle framing: `(response_bytes, hit)` the server has written.
    responses: VecDeque<(u64, bool)>,
    /// Issue timestamps of in-flight requests (closed loop: at most one
    /// outstanding, but a queue keeps it robust).
    issued: VecDeque<SimTime>,
}

/// Records the bed-side state of the connection a stack just created in
/// `slot`.
///
/// # Panics
///
/// Panics if `slot` is not the next index. A [`TcpStack`] hands its
/// slots out in order and never frees one, so this only fires if a
/// caller installs the same connection twice or skips one.
fn install<T>(conns: &mut Vec<T>, slot: ConnSlot, state: T) {
    assert_eq!(slot.index(), conns.len(), "slots are handed out in order");
    conns.push(state);
}

/// The client machine.
struct Client {
    stack: TcpStack,
    /// Indexed by the [`ConnSlot`] `stack` hands out, like
    /// [`Instance::conns`].
    conns: Vec<ClientConn>,
    generators: Vec<Memaslap>,
}

/// Per-instance measurements.
#[derive(Debug, Default, Clone)]
pub struct InstanceMetrics {
    /// Completed operations per second over time.
    pub ops: ThroughputMeter,
    /// GET hits per second over time (Figure 7's metric).
    pub hits: ThroughputMeter,
    /// Connections that failed (TCP gave up).
    pub failed_conns: u32,
    /// Client-observed request latency (issue to response).
    pub latency: DurationHistogram,
    /// rNPF events this instance's channel raised.
    pub faults: u64,
    /// Packets the NIC dropped on this instance's ring (fault-policy
    /// drops, including backup-quota rejections).
    pub drops: u64,
}

/// Per-tenant rollup for the multi-tenant scale-out experiments.
#[derive(Debug, Clone, Default)]
pub struct TenantReport {
    /// Closed-loop connections this tenant was allocated.
    pub conns: u32,
    /// Completed operations.
    pub ops: u64,
    /// GET hits.
    pub hits: u64,
    /// rNPF events raised by this tenant's channel.
    pub faults: u64,
    /// Packets dropped on this tenant's ring.
    pub drops: u64,
    /// Backup-ring entries this tenant currently holds.
    pub backup_occupancy: u64,
    /// High-water mark of backup-ring entries held.
    pub backup_hwm: u64,
    /// Faults granted by the cross-channel arbiter.
    pub arb_grants: u64,
    /// Faults the arbiter queued behind a busy slot pool.
    pub arb_queued: u64,
    /// Worst arbiter queueing delay.
    pub arb_max_wait: SimDuration,
    /// Median request latency.
    pub p50: SimDuration,
    /// Tail request latency.
    pub p99: SimDuration,
    /// Extreme-tail request latency.
    pub p999: SimDuration,
    /// Worst single request latency.
    pub max: SimDuration,
}

/// The Ethernet testbed.
pub struct EthTestbed {
    config: EthConfig,
    queue: EventQueue<EthEvent>,
    engine: NpfEngine,
    rx: RxEngine<TcpSegment>,
    driver: BackupDriver<TcpSegment>,
    channels: ChannelTable,
    instances: Vec<Instance>,
    client: Client,
    metrics: Vec<InstanceMetrics>,
    /// Running sum of every instance's `metrics[i].ops.total()`, so the
    /// closed-loop stop test is not a per-event walk over all tenants.
    ops_total: u64,
    link_c2s: Link,
    link_s2c: Link,
    /// The queue lanes the two links' arrivals ride.
    lane_c2s: LaneId,
    lane_s2c: LaneId,
    cpu: CpuPool,
    backup_moderator: InterruptModerator,
    sample_every: SimDuration,
    sampling: bool,
    /// Master fault injector (a disabled one when chaos is off). Owns
    /// the packet, interrupt and memory fate streams; the NPF engine
    /// holds a fork.
    chaos: ChaosEngine,
    chaos_tick_armed: bool,
    /// Connections allocated per instance (skewed under
    /// `tenant_skew`, uniform otherwise).
    conn_alloc: Vec<u32>,
    /// Monotonic packet sequence for journal provenance; only advanced
    /// while a journal recorder is installed.
    packet_seq: u64,
    /// Emptied effect buffers awaiting reuse. Applying one connection's
    /// effects can drive another TCP call (a readable response issues
    /// the next request), so a few are in use at once; none is
    /// allocated once the nesting depth has been seen.
    spare_outs: Vec<Vec<TcpOutput>>,
}

impl EthTestbed {
    /// Constructs the testbed from an already-validated configuration.
    pub(crate) fn build(config: EthConfig) -> Result<Self, MemError> {
        // A new testbed starts a new timeline at t=0; tell the thread's
        // instruments, so their clocks restart with it and monotonicity
        // tracking does not span testbeds.
        instruments::note_timeline_reset();
        let mut rng = SimRng::new(config.seed);
        let mm = MemoryManager::new(MemConfig {
            total_memory: config.host_memory,
            disk: config.disk,
            tier: config.tier,
            ..MemConfig::default()
        });
        let mut engine = NpfEngine::new(config.npf, mm, rng.fork(1));
        let mut chaos = ChaosEngine::new(config.chaos);
        engine.set_chaos(chaos.fork(0x200));
        let fault_mode = match config.mode {
            RxMode::Backup => RxFaultMode::BackupRing {
                capacity: config.backup_capacity,
            },
            _ => RxFaultMode::Drop,
        };
        let mut rx = RxEngine::new(fault_mode);
        if let Some(quota) = config.backup_quota {
            rx.set_backup_policy(BackupPolicy::Partitioned { quota });
        }
        let mut driver = BackupDriver::new();
        let mut channels = ChannelTable::new();

        let cgroup = config
            .cgroup_limit
            .map(|limit| engine.memory_mut().create_cgroup(limit));

        let mut instances = Vec::new();
        for i in 0..config.instances {
            let space = engine.memory_mut().create_space();
            if let Some(g) = cgroup {
                engine.memory_mut().attach_to_cgroup(space, g);
            }
            // RX buffer array: one page per ring slot at the well-known
            // base.
            let rx_range = PageRange::new(VirtAddr(RX_BUFFER_BASE).vpn(), config.ring_entries);
            engine
                .memory_mut()
                .mmap_fixed(space, rx_range, Backing::Anonymous)?;
            // Item slab: the VM's memory allocation.
            let app = Memcached::new(config.memcached);
            let slab_pages = app.slab_bytes().pages();
            engine.memory_mut().mmap_fixed(
                space,
                PageRange::new(SLAB_BASE.vpn(), slab_pages.max(1)),
                Backing::Anonymous,
            )?;

            let domain = engine.create_channel(space);
            let ring = RingId(i);
            rx.create_ring(ring, config.ring_entries, config.bm_size);
            driver.bind_ring(ring, domain, config.ring_entries);
            let ch = channels.create(space, domain, ring);
            channels.steer_port(11211 + i as u16, ch);

            if config.mode == RxMode::Pin {
                // Static pinning: the IOprovider pins the entire IOuser
                // address space (RX buffers and slab).
                engine.pin_and_map(domain, rx_range)?;
                engine.pin_and_map(domain, PageRange::new(SLAB_BASE.vpn(), slab_pages.max(1)))?;
            }

            let mut app = app;
            if config.preload {
                app.reserve_keys(config.working_set_keys);
                // memaslap warmup: populate the working set so GETs hit
                // from the start (steady state).
                for key in 0..config.working_set_keys {
                    let outcome = app.process(KvOp::Set { key });
                    if let Some((addr, len, write)) = outcome.touch {
                        let _ = engine.touch_range(space, addr, len, write);
                    }
                }
            }
            let mut stack = TcpStack::new();
            stack.listen(11211 + i as u16, TcpConfig::lwip());
            let mut inst = Instance {
                space,
                domain,
                ring,
                stack,
                app,
                rx_moderator: InterruptModerator::new(INTERRUPT_HOLDOFF),
                conns: Vec::new(),
                posted: 0,
            };
            // IOuser posts its whole ring at startup.
            for _ in 0..config.ring_entries {
                Self::post_one(&mut rx, &mut inst, config.ring_entries);
            }
            instances.push(inst);
        }

        let generators = (0..config.instances)
            .map(|i| {
                Memaslap::new(
                    config.working_set_keys,
                    config.memcached.value_size,
                    rng.fork(100 + u64::from(i)),
                )
            })
            .collect();

        let popularity = match config.tenant_skew {
            Some(s) => TenantPopularity::zipf(config.instances, s),
            None => TenantPopularity::uniform(config.instances),
        };
        let conn_alloc = popularity.allocate(config.instances * config.conns_per_instance);

        let link_cfg = config.profile.apply_link(LinkConfig {
            bandwidth: PROTOTYPE_LINK,
            propagation: SimDuration::from_micros(1),
            // Flow control enabled (§6): queues absorb bursts instead of
            // dropping.
            queue_capacity: 8 << 20,
            ecn_threshold: None,
            loss_probability: 0.0,
        });
        let metrics = vec![InstanceMetrics::default(); config.instances as usize];

        let mut queue = EventQueue::new();
        let (lane_c2s, lane_s2c) = (queue.lane(), queue.lane());
        let mut bed = EthTestbed {
            queue,
            engine,
            rx,
            driver,
            channels,
            instances,
            client: Client {
                stack: TcpStack::new(),
                conns: Vec::new(),
                generators,
            },
            metrics,
            ops_total: 0,
            link_c2s: Link::new(link_cfg, rng.fork(7)),
            link_s2c: Link::new(link_cfg, rng.fork(8)),
            lane_c2s,
            lane_s2c,
            cpu: CpuPool::new(SERVER_CORES),
            backup_moderator: InterruptModerator::new(INTERRUPT_HOLDOFF),
            sample_every: SimDuration::from_millis(250),
            sampling: false,
            chaos,
            chaos_tick_armed: false,
            conn_alloc,
            packet_seq: 0,
            spare_outs: Vec::new(),
            config,
        };
        bed.open_connections();
        bed.arm_chaos_tick();
        Ok(bed)
    }

    /// The master fault injector; every moderator draws its interrupt
    /// fates from it, so its `irq_lost` / `irq_delayed` counters are the
    /// bed's interrupt injections.
    #[must_use]
    pub fn chaos(&self) -> &ChaosEngine {
        &self.chaos
    }

    /// Schedules the next chaos heartbeat, if chaos is on and none is
    /// pending.
    fn arm_chaos_tick(&mut self) {
        if self.chaos.enabled() && !self.chaos_tick_armed {
            self.chaos_tick_armed = true;
            self.queue.schedule_in(CHAOS_TICK, EthEvent::ChaosTick);
        }
    }

    /// Applies one round of memory-pressure chaos to the server.
    fn chaos_tick(&mut self) {
        match self.chaos.memory_fate() {
            MemoryFate::Calm => {}
            MemoryFate::PressureBurst { pages } | MemoryFate::EvictionStorm { pages } => {
                self.engine.chaos_evict(pages);
            }
        }
    }

    /// Sends one segment over a link, applying the chaos packet fate.
    /// `to_server` selects the client→server link.
    fn link_send(&mut self, now: SimTime, seg: TcpSegment, to_server: bool) {
        let wire = seg.wire_size();
        let fate = self.chaos.packet_fate();
        if fate == PacketFate::Drop {
            // Injected loss: TCP retransmission recovers.
            return;
        }
        let (link, lane) = if to_server {
            (&mut self.link_c2s, self.lane_c2s)
        } else {
            (&mut self.link_s2c, self.lane_s2c)
        };
        let event = |seg| {
            if to_server {
                EthEvent::ToServer(seg)
            } else {
                EthEvent::ToClient(seg)
            }
        };
        if let SendOutcome::Delivered { arrives_at, .. } = link.send(now, wire) {
            // Corruption burns the wire but fails the CRC; the stack
            // never sees the segment.
            for at in fate.arrivals(arrives_at) {
                self.queue.schedule_on(lane, at, event(seg));
            }
        }
    }

    fn post_one(rx: &mut RxEngine<TcpSegment>, inst: &mut Instance, ring_entries: u64) -> bool {
        let addr = VirtAddr(RX_BUFFER_BASE + (inst.posted % ring_entries) * memsim::PAGE_SIZE);
        inst.posted += 1;
        rx.post_descriptor(
            inst.ring,
            RxDescriptor {
                addr,
                capacity: memsim::PAGE_SIZE,
            },
        )
    }

    fn open_connections(&mut self) {
        let now = self.queue.now();
        let mut next_local: u32 = 20000;
        for i in 0..self.config.instances {
            for _ in 0..self.conn_alloc[i as usize] {
                let local = u16::try_from(next_local).expect("validated port space");
                next_local += 1;
                let remote = 11211 + i as u16;
                let mut outs = self.take_outs();
                let slot = self.client.stack.connect_into(
                    now,
                    local,
                    remote,
                    TcpConfig::linux(),
                    &mut outs,
                );
                install(
                    &mut self.client.conns,
                    slot,
                    ClientConn {
                        instance: i,
                        alive: true,
                        timer: None,
                        requests: VecDeque::new(),
                        responses: VecDeque::new(),
                        issued: VecDeque::new(),
                    },
                );
                self.apply_outputs(now, Side::Client, slot, outs);
            }
        }
    }

    /// The testbed's configuration.
    #[must_use]
    pub fn config(&self) -> &EthConfig {
        &self.config
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Lifetime event-queue counters:
    /// `(scheduled, popped, cancelled, pending)`.
    #[must_use]
    pub fn queue_stats(&self) -> (u64, u64, u64, usize) {
        (
            self.queue.scheduled_total(),
            self.queue.popped_total(),
            self.queue.cancelled_total(),
            self.queue.len(),
        )
    }

    /// Per-instance metrics.
    #[must_use]
    pub fn metrics(&self) -> &[InstanceMetrics] {
        &self.metrics
    }

    /// The NPF engine (for counters and memory state).
    #[must_use]
    pub fn engine(&self) -> &NpfEngine {
        &self.engine
    }

    /// The NIC receive engine counters.
    #[must_use]
    pub fn rx_counters(&self) -> &simcore::stats::Counters {
        self.rx.counters()
    }

    /// Per-tenant rollup: throughput, faults, drops, backup-ring
    /// occupancy, arbiter queueing, and latency percentiles.
    pub fn tenant_report(&mut self, i: u32) -> TenantReport {
        let idx = i as usize;
        let ring = self.instances[idx].ring;
        let domain = self.instances[idx].domain;
        let arb = self.engine.arbiter().stats(domain);
        let m = &mut self.metrics[idx];
        TenantReport {
            conns: self.conn_alloc[idx],
            ops: m.ops.total(),
            hits: m.hits.total(),
            faults: m.faults,
            drops: m.drops,
            backup_occupancy: self.rx.backup_occupancy(ring),
            backup_hwm: self.rx.backup_hwm(ring),
            arb_grants: arb.grants,
            arb_queued: arb.queued,
            arb_max_wait: arb.max_wait,
            p50: m.latency.percentile(0.50),
            p99: m.latency.percentile(0.99),
            p999: m.latency.percentile(0.999),
            max: m.latency.max(),
        }
    }

    /// Emits per-tenant gauges into the metrics registry (no-op unless
    /// metrics recording is enabled).
    fn emit_tenant_metrics(&self) {
        trace::with(|t| {
            let m = t.metrics_mut();
            for (i, inst) in self.instances.iter().enumerate() {
                let ops = self.metrics[i].ops.total() as f64;
                m.gauge_set(&format!("tenant{i}.ops"), ops);
                m.gauge_set(&format!("tenant{i}.faults"), self.metrics[i].faults as f64);
                m.gauge_set(&format!("tenant{i}.drops"), self.metrics[i].drops as f64);
                let occ = self.rx.backup_occupancy(inst.ring) as f64;
                m.gauge_set(&format!("tenant{i}.backup_occupancy"), occ);
            }
        });
    }

    /// Total operations completed across all instances.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        debug_assert_eq!(
            self.ops_total,
            self.metrics.iter().map(|m| m.ops.total()).sum::<u64>()
        );
        self.ops_total
    }

    /// Total failed connections.
    #[must_use]
    pub fn total_failed_conns(&self) -> u32 {
        self.metrics.iter().map(|m| m.failed_conns).sum()
    }

    /// Resident bytes of instance `i`'s space.
    #[must_use]
    pub fn resident_bytes(&self, i: u32) -> ByteSize {
        self.engine
            .memory()
            .resident_bytes(self.instances[i as usize].space)
            .unwrap_or(ByteSize::ZERO)
    }

    /// Sets instance `i`'s weight in the cross-channel fault arbiter
    /// (only meaningful under [`npf_core::ArbiterPolicy::WeightedFair`]).
    pub fn set_tenant_weight(&mut self, i: u32, weight: u32) {
        let domain = self.instances[i as usize].domain;
        self.engine.set_channel_weight(domain, weight);
    }

    /// Changes instance `i`'s working set (Figure 7).
    pub fn resize_working_set(&mut self, i: u32, keys: u64) {
        self.client.generators[i as usize].resize_working_set(keys);
    }

    /// Populates `keys` items into instance `i`'s cache and touches
    /// their memory (a manual warmup for experiments with per-instance
    /// initial sets; pair with `preload: false`).
    pub fn preload_instance(&mut self, i: u32, keys: u64) {
        let inst = &mut self.instances[i as usize];
        let space = inst.space;
        for key in 0..keys {
            let outcome = inst.app.process(KvOp::Set { key });
            if let Some((addr, len, write)) = outcome.touch {
                let _ = self.engine.touch_range(space, addr, len, write);
            }
        }
    }

    /// Enables periodic throughput sampling.
    pub fn start_sampling(&mut self) {
        if !self.sampling {
            self.sampling = true;
            self.queue.schedule_in(self.sample_every, EthEvent::Sample);
        }
    }

    /// Runs until simulated time `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.step(deadline) {}
    }

    /// Runs until `ops` total operations completed or `deadline`
    /// passes; returns the completion time if reached.
    pub fn run_until_ops(&mut self, ops: u64, deadline: SimTime) -> Option<SimTime> {
        while self.total_ops() < ops {
            if !self.step(deadline) {
                return None;
            }
        }
        Some(self.queue.now())
    }

    /// Handles the next event due by `deadline`; `false` when none is.
    fn step(&mut self, deadline: SimTime) -> bool {
        let Some((now, event)) = self.queue.pop_until(deadline) else {
            return false;
        };
        match event {
            EthEvent::ToServer(seg) => self.server_rx(now, seg),
            EthEvent::ToClient(seg) => self.client_rx(now, seg),
            EthEvent::TcpTimer(side, slot) => {
                // This is the timer's own event: nothing is left to cancel.
                *self.timer_slot(side, slot) = None;
                let mut outs = self.take_outs();
                let stack = match side {
                    Side::Client => &mut self.client.stack,
                    Side::Server(i) => &mut self.instances[i as usize].stack,
                };
                stack.on_timer_into(now, slot, &mut outs);
                self.apply_outputs(now, side, slot, outs);
            }
            EthEvent::IoUserInterrupt(i) => self.iouser_interrupt(now, i),
            EthEvent::BackupInterrupt => {
                self.backup_moderator.fired(now);
                let (woken, cost) = self.driver.on_backup_interrupt(&self.engine, &mut self.rx);
                for ring in woken {
                    self.queue.schedule_in(cost, EthEvent::ResolverStep(ring));
                }
            }
            EthEvent::ResolverStep(ring) => self.resolver_step(now, ring),
            EthEvent::FaultDone(id) => {
                if self.engine.pending_fault(id).is_some() {
                    self.engine.complete_fault(id);
                }
            }
            EthEvent::OpDone {
                instance,
                conn,
                response_bytes,
                hit,
            } => {
                // The server writes the response; tell the client's
                // framing oracle.
                let mut outs = self.take_outs();
                let inst = &mut self.instances[instance as usize];
                let peer = inst.conns[conn.index()].peer;
                self.client.conns[peer.index()]
                    .responses
                    .push_back((response_bytes, hit));
                inst.stack
                    .conn_at_mut(conn)
                    .write_into(now, response_bytes, &mut outs);
                self.apply_outputs(now, Side::Server(instance), conn, outs);
            }
            EthEvent::Sample => {
                for m in &mut self.metrics {
                    m.ops.sample(now);
                    m.hits.sample(now);
                }
                self.emit_tenant_metrics();
                if self.sampling {
                    self.queue.schedule_in(self.sample_every, EthEvent::Sample);
                }
            }
            EthEvent::ChaosTick => {
                self.chaos_tick_armed = false;
                self.chaos_tick();
                // Keep ticking only while other work is pending, so
                // the run can still drain.
                if !self.queue.is_empty() {
                    self.arm_chaos_tick();
                }
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Server side.
    // ------------------------------------------------------------------

    fn server_rx(&mut self, now: SimTime, seg: TcpSegment) {
        let Some(channel) = self.channels.lookup_port(seg.dst_port) else {
            return; // no such IOuser
        };
        let idx = channel.id.0;
        // Causal provenance: every fault, NIC verdict, and memory event
        // this packet triggers is journalled under its (tenant, packet)
        // cause. The sequence counter only advances while journalling,
        // so the disabled path stays free.
        journal::with(|j| {
            self.packet_seq += 1;
            j.set_cause(CauseId {
                tenant: idx,
                packet: self.packet_seq,
            });
        });
        let inst = &mut self.instances[idx as usize];
        let wire = seg.wire_size();

        // Presence check: is there a posted descriptor whose buffer
        // translates?
        let present = match self.rx.target_descriptor(inst.ring) {
            Some(d) => {
                if self.config.mode == RxMode::Pin {
                    true
                } else {
                    let len = wire.min(d.capacity);
                    let ready = self.engine.dma_ready(inst.domain, d.addr, len, true);
                    if !ready
                        && self
                            .engine
                            .pending_fault_covering(inst.domain, d.addr, len)
                            .is_none()
                    {
                        // The NIC raises the page request; the driver
                        // resolves it in the background. With §3's
                        // pre-faulting optimization it also resolves the
                        // next `prefault_window` ring buffers (the
                        // page-per-slot array is contiguous).
                        let span = if self.config.prefault_window > 0 {
                            let slot_page = (d.addr.0 - RX_BUFFER_BASE) / memsim::PAGE_SIZE;
                            let remaining = self.config.ring_entries - slot_page;
                            (1 + self.config.prefault_window).min(remaining) * memsim::PAGE_SIZE
                        } else {
                            len
                        };
                        match self
                            .engine
                            .begin_fault(now, inst.domain, d.addr, span, true, None)
                        {
                            Ok(rec) => {
                                let (id, ready_at) = (rec.id, rec.ready_at);
                                self.metrics[idx as usize].faults += 1;
                                if self.engine.backend_kind() == BackendKind::SoftEmu {
                                    self.rx.note_bounced_fault();
                                }
                                self.queue.schedule_at(ready_at, EthEvent::FaultDone(id));
                                for (pid, at) in self.engine.drain_spawned_prefetches() {
                                    self.queue.schedule_at(at, EthEvent::FaultDone(pid));
                                }
                            }
                            Err(_) => { /* OOM under pressure: stays faulted */ }
                        }
                    }
                    ready
                }
            }
            None => false,
        };

        match self.rx.recv(inst.ring, seg, wire, present) {
            RxVerdict::Stored { notify_iouser, .. } => {
                if notify_iouser {
                    self.request_iouser_irq(now, idx);
                }
            }
            RxVerdict::Backup { .. } => {
                let decision = self.backup_moderator.request(now, &mut self.chaos);
                if let InterruptDecision::FireAt(at) = decision {
                    self.queue.schedule_at(at, EthEvent::BackupInterrupt);
                }
            }
            RxVerdict::Dropped { burned_descriptor } => {
                // Lost; TCP will retransmit. A burned descriptor is
                // announced (error completion) so the IOuser reposts.
                self.metrics[idx as usize].drops += 1;
                if burned_descriptor {
                    self.request_iouser_irq(now, idx);
                }
            }
        }
        journal::with(|j| j.clear_cause());
    }

    fn request_iouser_irq(&mut self, now: SimTime, idx: u32) {
        let inst = &mut self.instances[idx as usize];
        let decision = inst.rx_moderator.request(now, &mut self.chaos);
        if let InterruptDecision::FireAt(at) = decision {
            self.queue.schedule_at(at, EthEvent::IoUserInterrupt(idx));
        }
    }

    fn iouser_interrupt(&mut self, now: SimTime, idx: u32) {
        self.instances[idx as usize].rx_moderator.fired(now);
        self.look_ahead(idx);
        loop {
            let inst = &mut self.instances[idx as usize];
            // Repost descriptors for drop-mode holes passed over.
            let holes = self.rx.take_skipped_holes(inst.ring);
            for _ in 0..holes {
                Self::post_one(&mut self.rx, inst, self.config.ring_entries);
            }
            let inst = &mut self.instances[idx as usize];
            let Some((seg, _len)) = self.rx.consume(inst.ring) else {
                // A trailing run of holes still needs reposting.
                let holes = self.rx.take_skipped_holes(inst.ring);
                let inst = &mut self.instances[idx as usize];
                for _ in 0..holes {
                    Self::post_one(&mut self.rx, inst, self.config.ring_entries);
                }
                break;
            };
            // Repost a descriptor for the consumed slot.
            let fired_tail = Self::post_one(&mut self.rx, inst, self.config.ring_entries);
            if fired_tail && self.driver.on_tail_interrupt(inst.ring) {
                let ring = inst.ring;
                self.queue.schedule_now(EthEvent::ResolverStep(ring));
            }
            // lwIP processes the packet.
            let client_id = (seg.src_port, seg.dst_port);
            let mut outs = self.take_outs();
            let inst = &mut self.instances[idx as usize];
            let known = inst.stack.len();
            match inst.stack.on_segment_into(now, seg, &mut outs) {
                Some(slot) => {
                    if inst.stack.len() > known {
                        // Accepted just now: link it to the client's end.
                        let peer = self.client.stack.slot_of(client_id);
                        install(
                            &mut inst.conns,
                            slot,
                            ServerConn {
                                timer: None,
                                peer: peer.expect("the client opened every connection"),
                            },
                        );
                    }
                    self.apply_outputs(now, Side::Server(idx), slot, outs);
                }
                None => self.spare_outs.push(outs),
            }
        }
    }

    /// Looks up, read-only, the kv item and value page of each request
    /// the interrupt on instance `idx` is about to serve. Serving them
    /// pays those table misses one request at a time, each behind the
    /// last; looked up together first, the batch's misses overlap and
    /// serving finds the lines in cache. Nothing is changed and the
    /// results are dropped, so no run can tell. Runs only when at least
    /// two requests wait: one has nothing to overlap with.
    fn look_ahead(&self, idx: u32) {
        let inst = &self.instances[idx as usize];
        let requests = || self.rx.announced(inst.ring).filter(|seg| seg.len > 0);
        if requests().nth(1).is_none() {
            return;
        }
        let mut keys = [0; LOOKAHEAD_BATCH];
        let mut n = 0;
        for seg in requests() {
            let Some(peer) = self.client.stack.slot_of((seg.src_port, seg.dst_port)) else {
                continue;
            };
            let Some(&(_, KvOp::Get { key } | KvOp::Set { key })) =
                self.client.conns[peer.index()].requests.front()
            else {
                continue;
            };
            keys[n] = key;
            n += 1;
            if n == LOOKAHEAD_BATCH {
                self.look_up(inst, &keys);
                n = 0;
            }
        }
        self.look_up(inst, &keys[..n]);
    }

    /// The loads of [`EthTestbed::look_ahead`], one short loop per table
    /// level so that each loop's misses are independent of each other.
    fn look_up(&self, inst: &Instance, keys: &[u64]) {
        let mut pages = [None; LOOKAHEAD_BATCH];
        for (page, &key) in pages.iter_mut().zip(keys) {
            *page = inst.app.lookup(key).map(VirtAddr::vpn);
        }
        for &vpn in pages.iter().flatten() {
            std::hint::black_box(self.engine.memory().recency(inst.space, vpn));
        }
    }

    fn resolver_step(&mut self, now: SimTime, ring: RingId) {
        // Replay-drain work (and any rNPF it resolves) is attributed to
        // the ring's tenant; the original packet sequence is gone by
        // now, so the cause carries tenant provenance only.
        journal::with(|j| {
            let tenant = self
                .channels
                .by_ring(ring)
                .map_or(CauseId::NO_TENANT, |c| c.id.0);
            j.set_cause(CauseId::tenant(tenant));
        });
        match self
            .driver
            .resolve_step(now, &mut self.engine, &mut self.rx, ring)
        {
            Ok(ResolveStep::Resolved {
                ring,
                notify_iouser,
                ready_at,
            }) => {
                if notify_iouser {
                    let idx = self
                        .channels
                        .by_ring(ring)
                        .expect("ring belongs to a channel")
                        .id
                        .0;
                    self.request_iouser_irq(ready_at, idx);
                }
                if self.driver.has_work(ring) {
                    self.queue
                        .schedule_at(ready_at, EthEvent::ResolverStep(ring));
                }
            }
            Ok(ResolveStep::WaitingForRing(_) | ResolveStep::Idle) => {}
            Err(_) => {
                // Memory exhaustion: retry after a reclaim-scale delay.
                self.queue
                    .schedule_in(SimDuration::from_millis(1), EthEvent::ResolverStep(ring));
            }
        }
        self.schedule_prefetch_completions();
        journal::with(|j| j.clear_cause());
    }

    /// Schedules completion events for any speculative pre-faults the
    /// engine issued while resolving demand faults. The `FaultDone`
    /// handler tolerates already-completed ids, so prefetches reuse the
    /// demand completion path unchanged.
    fn schedule_prefetch_completions(&mut self) {
        for (id, ready_at) in self.engine.drain_spawned_prefetches() {
            self.queue.schedule_at(ready_at, EthEvent::FaultDone(id));
        }
    }

    fn server_readable(&mut self, now: SimTime, idx: u32, slot: ConnSlot) {
        loop {
            let inst = &mut self.instances[idx as usize];
            let requests = &mut self.client.conns[inst.conns[slot.index()].peer.index()].requests;
            let Some(&(req_bytes, op)) = requests.front() else {
                return;
            };
            let conn = inst.stack.conn_at_mut(slot);
            if conn.readable_bytes() < req_bytes {
                return;
            }
            conn.read(req_bytes);
            requests.pop_front();
            // Process the operation: protocol CPU plus value-memory
            // touches (which may fault, swap, and invalidate under
            // pressure).
            let outcome = inst.app.process(op);
            let mut cpu_cost = outcome.cpu;
            let mut io_cost = SimDuration::ZERO;
            if let Some((addr, len, write)) = outcome.touch {
                let space = inst.space;
                let (cpu, io) = self
                    .engine
                    .touch_range_split(space, addr, len, write)
                    .unwrap_or((SimDuration::from_millis(1), SimDuration::ZERO));
                cpu_cost += cpu;
                io_cost += io;
            }
            // Disk waits block the request, not a core (memcached's
            // worker sleeps on the fault).
            let end = self.cpu.run(now, cpu_cost) + io_cost;
            self.queue.schedule_at(
                end,
                EthEvent::OpDone {
                    instance: idx,
                    conn: slot,
                    response_bytes: outcome.response_bytes,
                    hit: outcome.hit,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Client side.
    // ------------------------------------------------------------------

    fn client_rx(&mut self, now: SimTime, seg: TcpSegment) {
        let mut outs = self.take_outs();
        match self.client.stack.on_segment_into(now, seg, &mut outs) {
            Some(slot) => self.apply_outputs(now, Side::Client, slot, outs),
            None => self.spare_outs.push(outs),
        }
    }

    fn client_readable(&mut self, now: SimTime, slot: ConnSlot) {
        loop {
            let state = &mut self.client.conns[slot.index()];
            let Some(&(bytes, hit)) = state.responses.front() else {
                return;
            };
            let conn = self.client.stack.conn_at_mut(slot);
            if conn.readable_bytes() < bytes {
                return;
            }
            conn.read(bytes);
            state.responses.pop_front();
            let m = &mut self.metrics[state.instance as usize];
            m.ops.record(1);
            self.ops_total += 1;
            if hit {
                m.hits.record(1);
            }
            if let Some(issued) = state.issued.pop_front() {
                m.latency.record(now.saturating_since(issued));
            }
            self.issue_op(now, slot);
        }
    }

    fn issue_op(&mut self, now: SimTime, slot: ConnSlot) {
        let state = &mut self.client.conns[slot.index()];
        if !state.alive {
            return;
        }
        state.issued.push_back(now);
        let (op, req_bytes) = self.client.generators[state.instance as usize].next_op();
        // Tell the server's framing oracle.
        state.requests.push_back((req_bytes, op));
        let mut outs = self.take_outs();
        self.client
            .stack
            .conn_at_mut(slot)
            .write_into(now, req_bytes, &mut outs);
        self.apply_outputs(now, Side::Client, slot, outs);
    }

    // ------------------------------------------------------------------
    // Both sides: TCP effects.
    // ------------------------------------------------------------------

    /// An empty effect buffer for the next TCP call; `apply_outputs`
    /// takes it back.
    fn take_outs(&mut self) -> Vec<TcpOutput> {
        self.spare_outs.pop().unwrap_or_default()
    }

    /// Where `side` keeps the armed timer of the connection in `slot`.
    fn timer_slot(&mut self, side: Side, slot: ConnSlot) -> &mut Option<EventToken> {
        match side {
            Side::Client => &mut self.client.conns[slot.index()].timer,
            Side::Server(i) => &mut self.instances[i as usize].conns[slot.index()].timer,
        }
    }

    fn cancel_timer(&mut self, side: Side, slot: ConnSlot) {
        if let Some(tok) = self.timer_slot(side, slot).take() {
            self.queue.cancel(tok);
        }
    }

    /// Performs the effects the connection in `side`'s `slot` asked
    /// for, then keeps the emptied buffer for reuse.
    fn apply_outputs(
        &mut self,
        now: SimTime,
        side: Side,
        slot: ConnSlot,
        mut outs: Vec<TcpOutput>,
    ) {
        for out in outs.drain(..) {
            match (out, side) {
                (TcpOutput::Send(seg), _) => self.link_send(now, seg, side == Side::Client),
                (TcpOutput::SetTimer(at), _) => {
                    // Re-armed per ACK and almost never due: off the heap.
                    let tok = self
                        .queue
                        .schedule_timer(at, EthEvent::TcpTimer(side, slot));
                    if let Some(armed) = self.timer_slot(side, slot).replace(tok) {
                        self.queue.cancel(armed);
                    }
                }
                (TcpOutput::CancelTimer, _) => self.cancel_timer(side, slot),
                (TcpOutput::Connected, Side::Client) => self.issue_op(now, slot),
                (TcpOutput::Readable, Side::Client) => self.client_readable(now, slot),
                (TcpOutput::Readable, Side::Server(i)) => self.server_readable(now, i, slot),
                (TcpOutput::Failed(_), Side::Client) => {
                    let state = &mut self.client.conns[slot.index()];
                    if state.alive {
                        state.alive = false;
                        self.metrics[state.instance as usize].failed_conns += 1;
                    }
                }
                (TcpOutput::Connected | TcpOutput::Failed(_), _) => {}
            }
        }
        self.spare_outs.push(outs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{EthScenario, ScenarioBuilder};

    fn small(mode: RxMode) -> EthScenario {
        ScenarioBuilder::ethernet()
            .mode(mode)
            .instances(1)
            .conns_per_instance(4)
            .ring_entries(64)
            .host_memory(ByteSize::mib(512))
            .memcached(small_cache(64))
            .working_set_keys(1000)
    }

    fn small_cache(mib: u64) -> MemcachedConfig {
        MemcachedConfig {
            max_bytes: ByteSize::mib(mib),
            value_size: 1024,
        }
    }

    #[test]
    fn pinned_testbed_serves_operations() {
        let mut bed = small(RxMode::Pin).build().expect("setup");
        bed.run_until(SimTime::from_secs(1));
        assert!(
            bed.total_ops() > 1000,
            "pinned mode must serve ops quickly: {}",
            bed.total_ops()
        );
        assert_eq!(bed.engine().counters().get("npf_events"), 0);
        assert_eq!(bed.total_failed_conns(), 0);
    }

    #[test]
    fn backup_testbed_recovers_from_cold_ring() {
        let mut bed = small(RxMode::Backup).build().expect("setup");
        bed.run_until(SimTime::from_secs(1));
        assert!(
            bed.total_ops() > 1000,
            "backup ring must ride through cold ring: {}",
            bed.total_ops()
        );
        assert!(
            bed.rx_counters().get("backup_stored") > 0,
            "cold ring must have faulted into the backup ring"
        );
        assert_eq!(bed.total_failed_conns(), 0);
    }

    #[test]
    fn drop_testbed_stalls_on_cold_ring() {
        let mut drop_bed = small(RxMode::Drop).build().expect("setup");
        drop_bed.run_until(SimTime::from_secs(1));
        let mut backup_bed = small(RxMode::Backup).build().expect("setup");
        backup_bed.run_until(SimTime::from_secs(1));
        assert!(
            drop_bed.total_ops() * 10 < backup_bed.total_ops().max(1),
            "dropping must be far slower during cold start: drop {} vs backup {}",
            drop_bed.total_ops(),
            backup_bed.total_ops()
        );
        assert!(drop_bed.rx_counters().get("dropped_fault") > 0);
    }

    #[test]
    fn pin_mode_fails_when_memory_insufficient() {
        let gib = small_cache(1024); // exceeds the 512 MiB host
        let err = small(RxMode::Pin).memcached(gib).build().err();
        assert!(err.is_some(), "pinning 1 GiB into 512 MiB must fail");
        // The same allocation works with NPFs.
        assert!(small(RxMode::Backup).memcached(gib).build().is_ok());
    }

    #[test]
    fn latency_percentiles_are_recorded() {
        let mut bed = small(RxMode::Pin).build().expect("setup");
        bed.run_until(SimTime::from_secs(1));
        let rep = bed.tenant_report(0);
        assert!(rep.ops > 0);
        assert!(rep.p50 > SimDuration::ZERO, "median latency recorded");
        assert!(rep.p99 >= rep.p50, "p99 dominates p50");
        assert_eq!(rep.conns, 4);
    }

    #[test]
    fn tenant_skew_concentrates_connections_and_load() {
        let scenario = small(RxMode::Backup)
            .instances(4)
            .conns_per_instance(4)
            .memcached(small_cache(16))
            .tenant_skew(1.2);
        let mut bed = scenario.build().expect("setup");
        let conns = &bed.conn_alloc;
        assert_eq!(conns.iter().sum::<u32>(), 16);
        assert!(conns[0] > conns[3], "skewed allocation: {conns:?}");
        bed.run_until(SimTime::from_millis(500));
        let head = bed.tenant_report(0);
        let tail = bed.tenant_report(3);
        assert!(
            head.ops > tail.ops,
            "hot tenant does more work: {} vs {}",
            head.ops,
            tail.ops
        );
    }

    /// The chaos heartbeat keeps ticking while any work is pending, a TCP
    /// retransmission timer waiting outside the queue's heap included.
    /// Fails on a queue whose `is_empty` leaves its far store out: the
    /// first tick would find the heap empty and stop for good.
    #[test]
    fn chaos_tick_rearms_while_only_a_far_tcp_timer_is_pending() {
        use simcore::chaos::ChaosProfile;

        let mut bed = small(RxMode::Pin)
            .chaos(ChaosConfig::profile(ChaosProfile::Memory, 7))
            .build()
            .expect("setup");
        bed.run_until(SimTime::from_millis(1));
        // Strip the queue down to the heartbeat and one armed RTO.
        bed.queue.clear();
        bed.chaos_tick_armed = false;
        bed.arm_chaos_tick();
        let slot = bed
            .client
            .stack
            .slot_of((20000, 11211))
            .expect("the first connection");
        let due = bed.now() + SimDuration::from_millis(200);
        let rto = bed
            .queue
            .schedule_timer(due, EthEvent::TcpTimer(Side::Client, slot));
        bed.client.conns[slot.index()].timer = Some(rto);
        let popped = bed.queue.popped_total();
        bed.run_until(due - CHAOS_TICK);
        assert!(bed.chaos_tick_armed, "the heartbeat stopped early");
        assert_eq!(bed.queue.len(), 2, "heartbeat and timer pending");
        assert!(
            bed.queue.popped_total() - popped > 3_000,
            "it ticked throughout"
        );
    }

    #[test]
    fn sampling_produces_time_series() {
        let mut bed = small(RxMode::Pin).build().expect("setup");
        bed.start_sampling();
        bed.run_until(SimTime::from_secs(1));
        let series = bed.metrics()[0].ops.series();
        assert!(series.len() >= 3, "samples recorded: {}", series.len());
        let late = series.window_mean(SimTime::from_millis(500), SimTime::from_secs(1));
        assert!(late > 0.0, "steady-state throughput visible");
    }
}

#[cfg(test)]
mod prefault_tests {
    use super::*;
    use crate::builder::ScenarioBuilder;

    #[test]
    fn prefault_window_shortens_cold_sequences() {
        let bed = |window: u64| {
            ScenarioBuilder::ethernet()
                .mode(RxMode::Backup)
                .instances(1)
                .conns_per_instance(8)
                .ring_entries(512)
                .bm_size(1024)
                .host_memory(ByteSize::mib(512))
                .memcached(MemcachedConfig {
                    max_bytes: ByteSize::mib(64),
                    ..MemcachedConfig::default()
                })
                .working_set_keys(1_000)
                .prefault_window(window)
                .build()
                .expect("setup")
        };
        let run = |window| {
            let mut bed = bed(window);
            bed.run_until_ops(2_000, SimTime::from_secs(30))
                .expect("completes")
        };
        let without = run(0);
        let with = run(64);
        assert!(
            with <= without,
            "pre-faulting must not slow the cold ring: {with} vs {without}"
        );
        // And it reduces the number of distinct fault events.
        let events = |window| {
            let mut bed = bed(window);
            bed.run_until(SimTime::from_millis(500));
            bed.engine().counters().get("npf_events")
        };
        assert!(events(64) < events(0), "wider resolutions, fewer events");
    }
}
