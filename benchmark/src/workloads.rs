//! The five named workloads, each driving `testbed`'s public API in a
//! closed loop over a fixed operation count, and the exact simulated
//! tallies read back through public accessors.

use std::time::Instant;

use memsim::swap::DiskConfig;
use memsim::types::{PageRange, VirtAddr};
use netsim::profile::{FabricProfile, RdmaTransport, TransportConfig};
use npf_core::{ArbiterPolicy, NpfConfig, NpfEngine};
use rdmasim::types::{QpId, SendOp, WcOpcode, WcStatus};
use simcore::rng::SimRng;
use simcore::stats::DurationHistogram;
use simcore::time::{SimDuration, SimTime};
use simcore::units::ByteSize;
use testbed::builder::{EthScenario, ScenarioBuilder};
use testbed::eth::{EthTestbed, RxMode};
use testbed::ib::IbCluster;
use workloads::memcached::MemcachedConfig;

use crate::spans::{SpanId, SpanLog};

/// Slices the measured window is run in (each a span when traced).
pub const SLICES: u64 = 20;

/// Simulated time every Ethernet run continues after the window so the
/// backup ring can drain before `rx_resolved` is checked.
const DRAIN: SimDuration = SimDuration::from_millis(50);

/// Guard against a diverging InfiniBand loop (events per run).
const IB_EVENT_GUARD: u64 = 2_000_000_000;

macro_rules! counts {
    ($($field:ident),* $(,)?) => {
        /// Cumulative counters read through the testbeds' public
        /// accessors; all exact and deterministic at a fixed seed.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counts { $(pub $field: u64),* }

        impl Counts {
            /// `self - earlier`, field by field.
            pub fn since(&self, earlier: &Counts) -> Counts {
                Counts { $($field: self.$field - earlier.$field),* }
            }

            /// `(name, value)` pairs in declaration order.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field)),*]
            }
        }
    };
}

counts! {
    sim_ns,
    ops,
    hits,
    events,
    events_scheduled,
    events_cancelled,
    rx_stored,
    rx_backup_stored,
    rx_resolved,
    rx_dropped,
    packets_sent,
    fabric_drops,
    ecn_marks,
    pfc_pauses,
    minor_faults,
    major_faults,
    evictions,
    swap_outs,
    npf_events,
    npf_pages,
    arb_waits,
    invalidations,
    iotlb_lookups,
    data_packets_sent,
    retransmits,
    rnr_retransmits,
    timeouts,
}

/// Latency figures of one repeat, in simulated nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latency {
    pub samples: u64,
    pub mean_ns: u64,
    /// Mean of the slowest 1 % of the samples.
    pub tail_mean_ns: u64,
    pub p50_ns: u64,
    pub p999_ns: u64,
}

/// Everything one repeat's simulation produced. Two repeats at one seed
/// must compare equal: the simulator is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tally {
    /// Counter deltas over the measured window.
    pub window: Counts,
    /// Operations the window set out to complete.
    pub attempted: u64,
    /// Failed connections, error completions and undelivered operations.
    pub failed: u64,
    pub failed_conns: u64,
    /// Client-observed latency: of every operation since t = 0 on
    /// Ethernet (`InstanceMetrics::latency` has no window), of the
    /// window's messages on InfiniBand.
    pub lat: Latency,
    /// TCP connections opened inside the window.
    pub conns_opened: u64,
    pub queue_depth_end: u64,
    pub backup_hwm: u64,
    pub arb_max_wait_ns: u64,
    /// `rx_resolved` after the post-window drain against
    /// `rx_backup_stored` at the window's end (cumulative, Ethernet).
    pub drained_resolved: u64,
    pub stored_at_window_end: u64,
}

/// One build-warm-measure pass over a fresh testbed.
#[derive(Debug, Clone)]
pub struct Repeat {
    pub setup_s: f64,
    pub warmup_s: f64,
    pub measure_s: f64,
    /// Host seconds of each slice of the window (the simulator's own
    /// work only; a traced repeat's counter snapshots fall between).
    pub slice_s: Vec<f64>,
    pub tally: Tally,
}

/// Where a traced repeat records its spans.
pub struct Trace<'a> {
    pub log: &'a mut SpanLog,
    pub parent: SpanId,
}

#[derive(Debug, Clone, Copy)]
pub struct EthSpec {
    pub instances: u32,
    pub conns_per_instance: u32,
    pub ring_entries: u64,
    pub bm_size: u64,
    pub host_memory: ByteSize,
    pub memcached_bytes: ByteSize,
    pub keys: u64,
    /// Swap device behind the host's memory.
    pub swap: DiskConfig,
    /// Multi-tenant knobs: Zipf skew, per-tenant backup quota, WFQ
    /// arbiter over a shared slot pool with tenant 0 at weight 4.
    pub tenants: Option<TenantSpec>,
    /// Simulated warm-up before the window opens.
    pub warm_until: SimTime,
    /// Operations in the measured window.
    pub ops: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct TenantSpec {
    pub skew: f64,
    pub backup_quota: u64,
    pub fault_slots: u32,
    pub heavy_weight: u32,
}

#[derive(Debug, Clone, Copy)]
pub struct IbSpec {
    /// Sender nodes; the receiver is the node after the last sender.
    pub senders: u32,
    /// Random loss probability of every fabric link; a lossy fabric
    /// also marks ECN at 20 us of queueing. 0 is the lossless default.
    pub loss: f64,
    pub transport: RdmaTransport,
    /// Outstanding sends per queue pair (the closed loop's window).
    pub depth: u64,
    /// Messages per sender that open the run unmeasured.
    pub warm_messages: u64,
    /// Messages per sender in the measured window.
    pub messages: u64,
    /// Message length is drawn per message from `mean ± jitter` bytes.
    pub message_bytes: u64,
    pub message_jitter: u64,
    /// Hot: one pinned and mapped 8 MiB buffer per side. Cold: every
    /// message lands in a fresh slice of an unmapped receiver region.
    pub cold_receiver: bool,
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Eth(EthSpec),
    Ib(IbSpec),
}

/// Lower and upper limits on per-operation ratios that keep a workload
/// stressing what it claims to (checked on every repeat).
#[derive(Debug, Clone, Copy)]
pub struct ShapeGuard {
    pub metric: &'static str,
    pub min: f64,
    pub max: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub guards: &'static [ShapeGuard],
    /// The paper's number for `sim_ops_per_s` and the tolerated relative
    /// error, where the paper gives one.
    pub anchor: Option<(f64, f64)>,
}

const fn guard(metric: &'static str, min: f64, max: f64) -> ShapeGuard {
    ShapeGuard { metric, min, max }
}

/// The benchmark's workloads, in report order.
pub fn all() -> [Workload; 5] {
    [
    Workload {
        name: "eth_memcached_warm",
        why: "Fig. 4(a)/Table 5 base config in steady state: tcpsim, nicsim rx, netsim link, kv and the event queue do the work; the NPF path is idle",
        kind: Kind::Eth(EthSpec {
            instances: 1,
            conns_per_instance: 16,
            ring_entries: 64,
            bm_size: 128,
            host_memory: ByteSize::gib(8),
            memcached_bytes: ByteSize::gib(3),
            keys: 1_800_000,
            swap: DiskConfig::hard_drive(),
            tenants: None,
            warm_until: SimTime::from_millis(1000),
            ops: 1_000_000,
        }),
        guards: { const G: &[ShapeGuard] = &[guard("npf-core.npf_per_op", 0.0, 0.001),
            guard("memsim.evictions_per_op", 0.0, 0.0)]; G },
        // Table 5 row 1: 186 KTPS for one memcached instance.
        anchor: Some((186_000.0, 0.15)),
    },
    Workload {
        name: "eth_overcommit_reclaim",
        why: "host memory below resident demand: memsim reclaim, swap-out, major faults and npf-core/iommu invalidation run continuously under the same TCP path",
        kind: Kind::Eth(EthSpec {
            instances: 4,
            conns_per_instance: 8,
            ring_entries: 64,
            bm_size: 128,
            host_memory: ByteSize::mib(768),
            memcached_bytes: ByteSize::mib(512),
            keys: 300_000,
            swap: DiskConfig::nvme(),
            tenants: None,
            warm_until: SimTime::from_millis(500),
            ops: 600_000,
        }),
        guards: { const G: &[ShapeGuard] = &[guard("memsim.evictions_per_op", 0.1, f64::INFINITY)]; G },
        anchor: None,
    },
    Workload {
        name: "eth_coldring_tenants",
        why: "the paper's backup-ring mechanism at scale: 128 skewed tenants on cold 1024-entry rings, so npf-core arbiter, nicsim backup ring and memsim fault-in dominate",
        kind: Kind::Eth(EthSpec {
            instances: 128,
            conns_per_instance: 4,
            ring_entries: 1024,
            bm_size: 2048,
            host_memory: ByteSize::gib(2),
            memcached_bytes: ByteSize::mib(8),
            keys: 2_000,
            swap: DiskConfig::hard_drive(),
            tenants: Some(TenantSpec {
                skew: 1.0,
                backup_quota: 16,
                fault_slots: 64,
                heavy_weight: 4,
            }),
            warm_until: SimTime::ZERO,
            ops: 400_000,
        }),
        guards: { const G: &[ShapeGuard] = &[guard("npf-core.npf_per_op", 0.15, f64::INFINITY)]; G },
        anchor: None,
    },
    Workload {
        name: "ib_stream_hot",
        why: "Fig. 10-right clean loop on pinned buffers: rdmasim send/ACK fast path and netsim fabric only; npf-core and memsim are bypassed, so a fault-path change must not move it",
        kind: Kind::Ib(IbSpec {
            senders: 1,
            loss: 0.0,
            transport: RdmaTransport::GoBackN,
            depth: 64,
            warm_messages: 2_000,
            messages: 250_000,
            message_bytes: 64 * 1024,
            message_jitter: 16 * 1024,
            cold_receiver: false,
        }),
        guards: { const G: &[ShapeGuard] = &[guard("npf-core.npf_per_op", 0.0, 0.001),
            guard("rdmasim.goodput_ratio", 0.999, 1.0)]; G },
        anchor: None,
    },
    Workload {
        name: "ib_incast_cold_lossy",
        why: "the paper's RNR-NACK rNPF path plus IRN recovery: 3-to-1 incast on a lossy ECN fabric into unmapped memory, so rdmasim recovery, npf-core faults and netsim queues dominate",
        kind: Kind::Ib(IbSpec {
            senders: 3,
            loss: 0.001,
            transport: RdmaTransport::SelectiveRepeat,
            depth: 64,
            warm_messages: 0,
            messages: 20_000,
            message_bytes: 64 * 1024,
            message_jitter: 0,
            cold_receiver: true,
        }),
        guards: { const G: &[ShapeGuard] = &[guard("npf-core.npf_per_op", 0.5, f64::INFINITY)]; G },
        anchor: None,
    },
    ]
}

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl EthSpec {
    /// The scenario at `seed` (the seed feeds `EthConfig::seed` only).
    pub fn scenario(&self, seed: u64) -> EthScenario {
        let mut npf = NpfConfig::default();
        let mut scenario = ScenarioBuilder::ethernet()
            .mode(RxMode::Backup)
            .instances(self.instances)
            .conns_per_instance(self.conns_per_instance)
            .ring_entries(self.ring_entries)
            .bm_size(self.bm_size)
            .backup_capacity(512)
            .host_memory(self.host_memory)
            .disk(self.swap)
            .memcached(MemcachedConfig {
                max_bytes: self.memcached_bytes,
                value_size: 1024,
                ..MemcachedConfig::default()
            })
            .working_set_keys(self.keys)
            .seed(seed);
        if let Some(t) = self.tenants {
            npf = npf
                .with_arbiter(ArbiterPolicy::WeightedFair)
                .with_total_fault_slots(t.fault_slots);
            scenario = scenario
                .tenant_skew(t.skew)
                .backup_quota(t.backup_quota)
                .tenant_weight(0, t.heavy_weight);
        }
        scenario.npf(npf)
    }

    pub fn total_conns(&self) -> u64 {
        u64::from(self.instances) * u64::from(self.conns_per_instance)
    }
}

/// IOTLB hits plus misses: how often the engine's translations went
/// through the TLB at all.
fn iotlb_lookups(engine: &NpfEngine) -> u64 {
    let tlb = engine.iommu().tlb();
    tlb.hits() + tlb.misses()
}

fn eth_counts(bed: &EthTestbed) -> Counts {
    let (scheduled, popped, cancelled, _) = bed.queue_stats();
    let rx = bed.rx_counters();
    let npf = bed.engine().counters();
    let mem = bed.engine().memory().counters();
    let stored = rx.get("stored");
    let backup_stored = rx.get("backup_stored");
    let dropped = rx.get("dropped_fault") + rx.get("dropped_no_buffer");
    Counts {
        sim_ns: bed.now().as_nanos(),
        ops: bed.total_ops(),
        hits: bed.metrics().iter().map(|m| m.hits.total()).sum(),
        events: popped,
        events_scheduled: scheduled,
        events_cancelled: cancelled,
        rx_stored: stored,
        rx_backup_stored: backup_stored,
        rx_resolved: rx.get("resolved"),
        rx_dropped: dropped,
        // `EthTestbed` exposes no link counters; what the server NIC
        // saw arrive is the client-to-server half of the traffic.
        packets_sent: stored + backup_stored + dropped,
        minor_faults: mem.get("minor_faults"),
        major_faults: mem.get("major_faults"),
        evictions: mem.get("evictions"),
        swap_outs: mem.get("swap_outs"),
        npf_events: npf.get("npf_events"),
        npf_pages: npf.get("npf_pages"),
        arb_waits: npf.get("arb_waits"),
        invalidations: npf.get("invalidations"),
        iotlb_lookups: iotlb_lookups(bed.engine()),
        ..Counts::default()
    }
}

/// Closes slice `i` of the window: a span with the counter deltas.
fn end_slice(trace: &mut Option<Trace<'_>>, span: Option<SpanId>, delta: Counts) {
    if let (Some(t), Some(span)) = (trace.as_mut(), span) {
        let counters = delta
            .fields()
            .into_iter()
            .filter(|&(_, v)| v != 0)
            .collect();
        t.log.end(span, counters);
    }
}

fn begin_span(trace: &mut Option<Trace<'_>>, name: impl Into<String>) -> Option<SpanId> {
    trace.as_mut().map(|t| t.log.begin(name, Some(t.parent)))
}

fn begin_slice(trace: &mut Option<Trace<'_>>, measure: Option<SpanId>, i: u64) -> Option<SpanId> {
    trace
        .as_mut()
        .map(|t| t.log.begin(format!("slice.{i}"), measure))
}

fn end_span(trace: &mut Option<Trace<'_>>, span: Option<SpanId>) {
    end_slice(trace, span, Counts::default());
}

impl Latency {
    /// Reads the figures off a histogram. It exposes order statistics
    /// only; rank by rank they yield its slowest samples.
    fn of(hist: &mut DurationHistogram) -> Self {
        let n = hist.count();
        let tail = n.div_ceil(100);
        let tail_sum: u128 = (n - tail..n)
            .map(|rank| u128::from(hist.percentile((rank as f64 + 0.5) / n as f64).as_nanos()))
            .sum();
        Latency {
            samples: n as u64,
            mean_ns: hist.mean().as_nanos(),
            tail_mean_ns: tail_sum.checked_div(tail as u128).unwrap_or(0) as u64,
            p50_ns: hist.percentile(0.5).as_nanos(),
            p999_ns: hist.percentile(0.999).as_nanos(),
        }
    }
}

/// Runs one repeat of an Ethernet workload on a fresh testbed.
pub fn run_eth(spec: &EthSpec, seed: u64, mut trace: Option<Trace<'_>>) -> Repeat {
    let span = begin_span(&mut trace, "setup");
    let clock = Instant::now();
    let mut bed = spec
        .scenario(seed)
        .build()
        .expect("benchmark scenarios are valid and fit their host memory");
    let setup_s = clock.elapsed().as_secs_f64();
    end_span(&mut trace, span);

    let span = begin_span(&mut trace, "warmup");
    let clock = Instant::now();
    bed.run_until(spec.warm_until);
    let warmup_s = clock.elapsed().as_secs_f64();
    end_span(&mut trace, span);

    // The window: a fixed operation count, so a model change cannot
    // inflate host time by simulating more work.
    let deadline = bed.now() + SimDuration::from_secs(600);
    let start = eth_counts(&bed);
    let measure = begin_span(&mut trace, "measure");
    let clock = Instant::now();
    let mut prev = start;
    let mut slice_s = Vec::with_capacity(SLICES as usize);
    for i in 1..=SLICES {
        let span = begin_slice(&mut trace, measure, i);
        let target = start.ops + spec.ops * i / SLICES;
        let slice_clock = Instant::now();
        let reached = bed.run_until_ops(target, deadline);
        slice_s.push(slice_clock.elapsed().as_secs_f64());
        if span.is_some() {
            let now = eth_counts(&bed);
            end_slice(&mut trace, span, now.since(&prev));
            prev = now;
        }
        if reached.is_none() {
            break;
        }
    }
    let measure_s = clock.elapsed().as_secs_f64();
    let end = eth_counts(&bed);
    end_span(&mut trace, measure);

    let (_, _, _, queue_depth_end) = bed.queue_stats();
    let arb_max_wait_ns = bed.engine().arbiter().max_wait().as_nanos();
    let mut latency = DurationHistogram::new();
    for m in bed.metrics() {
        latency.merge_from(&m.latency);
    }

    // Let parked packets merge back before comparing the ring counters.
    bed.run_until(bed.now() + DRAIN);
    let drained_resolved = bed.rx_counters().get("resolved");
    let backup_hwm = (0..spec.instances)
        .map(|i| bed.tenant_report(i).backup_hwm)
        .max()
        .unwrap_or(0);

    let window = end.since(&start);
    let undelivered = spec.ops.saturating_sub(window.ops);
    let failed_conns = u64::from(bed.total_failed_conns());
    Repeat {
        setup_s,
        warmup_s,
        measure_s,
        slice_s,
        tally: Tally {
            window,
            attempted: spec.ops,
            failed: failed_conns + undelivered,
            failed_conns,
            lat: Latency::of(&mut latency),
            conns_opened: if spec.warm_until == SimTime::ZERO {
                spec.total_conns()
            } else {
                0
            },
            queue_depth_end: queue_depth_end as u64,
            backup_hwm,
            arb_max_wait_ns,
            drained_resolved,
            stored_at_window_end: end.rx_backup_stored,
        },
    }
}

/// One sender's side of the closed loop.
struct Flow {
    sender: u32,
    send_qp: QpId,
    recv_qp: QpId,
    src: VirtAddr,
    dst: VirtAddr,
    /// Length of every message, drawn from the seed before the run.
    lengths: Vec<u64>,
    /// Simulated post time of every message, by index.
    posted_at: Vec<u64>,
}

/// Bytes of the pinned buffer each side of a hot flow uses.
const HOT_BUFFER: u64 = 8 << 20;

impl IbSpec {
    fn receiver(&self) -> u32 {
        self.senders
    }

    fn per_sender(&self) -> u64 {
        self.warm_messages + self.messages
    }

    /// Largest message this spec can draw.
    fn max_message(&self) -> u64 {
        self.message_bytes + self.message_jitter
    }

    /// The cluster at `seed` (the seed feeds `IbConfig::seed`; message
    /// lengths come from a separate stream of the same seed).
    pub fn cluster(&self, seed: u64) -> IbCluster {
        let profile = if self.loss > 0.0 {
            FabricProfile::lossy(self.loss).with_ecn(Some(SimDuration::from_micros(20)))
        } else {
            FabricProfile::lossless()
        };
        ScenarioBuilder::infiniband()
            .nodes(self.senders + 1)
            .profile(profile)
            .transport(TransportConfig::default().with_transport(self.transport))
            .seed(seed)
            .build()
            .expect("benchmark scenarios are valid")
    }

    /// Message lengths of one sender: 64-byte multiples within the
    /// jitter band, so different seeds give different inputs even on
    /// the lossless fabric, where the cluster draws nothing.
    fn lengths(&self, rng: &mut SimRng) -> Vec<u64> {
        let lo = self.message_bytes - self.message_jitter;
        let steps = 2 * self.message_jitter / 64 + 1;
        (0..self.per_sender())
            .map(|_| lo + rng.below(steps) * 64)
            .collect()
    }
}

/// A cluster mid-run with the closed loop's bookkeeping.
struct IbRun<'a> {
    spec: &'a IbSpec,
    cluster: IbCluster,
    flows: Vec<Flow>,
    /// Messages completed at the receiver.
    done: u64,
    /// Events stepped (`IbCluster` has no queue counters of its own).
    events: u64,
    failed: u64,
    /// Post-to-receive-completion latency of every window message.
    latencies: DurationHistogram,
}

impl<'a> IbRun<'a> {
    fn new(spec: &'a IbSpec, seed: u64) -> Self {
        let mut cluster = spec.cluster(seed);
        let receiver = spec.receiver();
        let mut lengths_rng = SimRng::new(seed).fork(0x1b_5eed);
        let flows = (0..spec.senders)
            .map(|sender| {
                let (send_qp, recv_qp) = cluster.connect(sender, receiver);
                let (src_bytes, dst_bytes) = if spec.cold_receiver {
                    (spec.max_message(), spec.per_sender() * spec.max_message())
                } else {
                    (HOT_BUFFER, HOT_BUFFER)
                };
                let src = cluster.alloc_buffers(sender, ByteSize::bytes_exact(src_bytes));
                let dst = cluster.alloc_buffers(receiver, ByteSize::bytes_exact(dst_bytes));
                if !spec.cold_receiver {
                    for (node, qp, addr) in [(sender, send_qp, src), (receiver, recv_qp, dst)] {
                        let domain = cluster.node(node).domain_of(qp);
                        cluster
                            .node_mut(node)
                            .engine_mut()
                            .pin_and_map(domain, PageRange::covering(addr, HOT_BUFFER))
                            .expect("pinning 8 MiB fits the node");
                    }
                }
                Flow {
                    sender,
                    send_qp,
                    recv_qp,
                    src,
                    dst,
                    lengths: spec.lengths(&mut lengths_rng),
                    posted_at: Vec::with_capacity(spec.per_sender() as usize),
                }
            })
            .collect();
        IbRun {
            spec,
            cluster,
            flows,
            done: 0,
            events: 0,
            failed: 0,
            latencies: DurationHistogram::new(),
        }
    }

    /// Posts flow `index`'s next message: its receive, then the send.
    fn post_next(&mut self, index: usize) {
        let spec = self.spec;
        let flow = &mut self.flows[index];
        let i = flow.posted_at.len() as u64;
        let dst = if spec.cold_receiver {
            flow.dst.add(i * spec.max_message())
        } else {
            flow.dst
        };
        let wr_id = (index as u64) << 32 | i;
        self.cluster.post_recv(
            spec.receiver(),
            flow.recv_qp,
            wr_id,
            dst,
            spec.max_message(),
        );
        flow.posted_at.push(self.cluster.now().as_nanos());
        let op = SendOp::Send {
            local: flow.src,
            len: flow.lengths[i as usize],
        };
        self.cluster.post_send(flow.sender, flow.send_qp, wr_id, op);
    }

    /// Steps until `target` messages completed at the receiver; every
    /// completion refills its flow's window. `false` if the cluster went
    /// idle (or diverged) first.
    fn run_to(&mut self, target: u64) -> bool {
        let spec = self.spec;
        let receiver = spec.receiver();
        while self.done < target {
            if self.events >= IB_EVENT_GUARD || !self.cluster.step() {
                break;
            }
            self.events += 1;
            if self.cluster.completions(receiver).is_empty() {
                continue;
            }
            let now = self.cluster.now().as_nanos();
            for comp in self.cluster.drain_completions(receiver) {
                self.failed += u64::from(comp.status != WcStatus::Success);
                if comp.opcode != WcOpcode::Recv {
                    continue;
                }
                let index = (comp.wr_id >> 32) as usize;
                let message = (comp.wr_id & 0xffff_ffff) as usize;
                let flow = &self.flows[index];
                self.failed += u64::from(comp.len != flow.lengths[message]);
                self.done += 1;
                if message as u64 >= spec.warm_messages {
                    let latency = now - flow.posted_at[message];
                    self.latencies.record(SimDuration::from_nanos(latency));
                }
                if (flow.posted_at.len() as u64) < spec.per_sender() {
                    self.post_next(index);
                }
            }
        }
        // Send completions only need their status checked; once per
        // call keeps that out of the per-event path.
        for s in 0..spec.senders {
            for comp in self.cluster.drain_completions(s) {
                self.failed += u64::from(comp.status != WcStatus::Success);
            }
        }
        self.done >= target
    }

    fn counts(&self) -> Counts {
        let cluster = &self.cluster;
        let mut c = Counts {
            sim_ns: cluster.now().as_nanos(),
            ops: self.done,
            events: self.events,
            packets_sent: cluster.fabric().total_sent(),
            fabric_drops: cluster.fabric().total_drops(),
            ecn_marks: cluster.fabric().total_marked(),
            pfc_pauses: cluster.fabric().pfc_pauses(),
            ..Counts::default()
        };
        for n in 0..=self.spec.senders {
            let npf = cluster.node(n).engine().counters();
            let mem = cluster.node(n).engine().memory().counters();
            c.minor_faults += mem.get("minor_faults");
            c.major_faults += mem.get("major_faults");
            c.evictions += mem.get("evictions");
            c.swap_outs += mem.get("swap_outs");
            c.npf_events += npf.get("npf_events");
            c.npf_pages += npf.get("npf_pages");
            c.arb_waits += npf.get("arb_waits");
            c.invalidations += npf.get("invalidations");
            c.iotlb_lookups += iotlb_lookups(cluster.node(n).engine());
        }
        for f in &self.flows {
            let st = cluster.node(f.sender).qp_stats(f.send_qp);
            c.data_packets_sent += st.data_packets_sent;
            c.retransmits += st.retransmits;
            c.rnr_retransmits += st.rnr_retransmits;
            c.timeouts += st.timeouts;
        }
        c
    }
}

/// Runs one repeat of an InfiniBand workload on a fresh cluster.
pub fn run_ib(spec: &IbSpec, seed: u64, mut trace: Option<Trace<'_>>) -> Repeat {
    let span = begin_span(&mut trace, "setup");
    let clock = Instant::now();
    let mut run = IbRun::new(spec, seed);
    let setup_s = clock.elapsed().as_secs_f64();
    end_span(&mut trace, span);

    let flow_count = u64::from(spec.senders);
    let warm_total = spec.warm_messages * flow_count;
    let window_total = spec.messages * flow_count;

    let span = begin_span(&mut trace, "warmup");
    let clock = Instant::now();
    for index in 0..spec.senders as usize {
        for _ in 0..spec.depth.min(spec.per_sender()) {
            run.post_next(index);
        }
    }
    run.run_to(warm_total);
    let warmup_s = clock.elapsed().as_secs_f64();
    end_span(&mut trace, span);

    let start = run.counts();
    let measure = begin_span(&mut trace, "measure");
    let clock = Instant::now();
    let mut prev = start;
    let mut slice_s = Vec::with_capacity(SLICES as usize);
    for i in 1..=SLICES {
        let span = begin_slice(&mut trace, measure, i);
        let slice_clock = Instant::now();
        let reached = run.run_to(warm_total + window_total * i / SLICES);
        slice_s.push(slice_clock.elapsed().as_secs_f64());
        if span.is_some() {
            let now = run.counts();
            end_slice(&mut trace, span, now.since(&prev));
            prev = now;
        }
        if !reached {
            break;
        }
    }
    let measure_s = clock.elapsed().as_secs_f64();
    let end = run.counts();
    end_span(&mut trace, measure);

    let window = end.since(&start);
    Repeat {
        setup_s,
        warmup_s,
        measure_s,
        slice_s,
        tally: Tally {
            window,
            attempted: window_total,
            failed: run.failed + window_total.saturating_sub(window.ops),
            failed_conns: 0,
            lat: Latency::of(&mut run.latencies),
            conns_opened: 0,
            // `IbCluster` exposes neither its queue depth nor cancels.
            queue_depth_end: 0,
            backup_hwm: 0,
            arb_max_wait_ns: 0,
            drained_resolved: 0,
            stored_at_window_end: 0,
        },
    }
}

impl Workload {
    /// Builds the testbed as a repeat does, and returns the host
    /// seconds the build took (the testbed is dropped untimed).
    pub fn setup_only(&self, seed: u64) -> f64 {
        let clock = Instant::now();
        match &self.kind {
            Kind::Eth(spec) => {
                let bed = spec
                    .scenario(seed)
                    .build()
                    .expect("benchmark scenarios are valid");
                let elapsed = clock.elapsed().as_secs_f64();
                drop(bed);
                elapsed
            }
            Kind::Ib(spec) => {
                let run = IbRun::new(spec, seed);
                let elapsed = clock.elapsed().as_secs_f64();
                drop(run);
                elapsed
            }
        }
    }

    /// Runs one repeat on a fresh testbed.
    pub fn run(&self, seed: u64, trace: Option<Trace<'_>>) -> Repeat {
        match &self.kind {
            Kind::Eth(spec) => run_eth(spec, seed, trace),
            Kind::Ib(spec) => run_ib(spec, seed, trace),
        }
    }
}
