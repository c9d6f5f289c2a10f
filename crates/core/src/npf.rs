//! The NPF engine: the IOprovider driver of Figure 2.
//!
//! Owns the host [`MemoryManager`] and the [`Iommu`] and implements both
//! flows of Figure 2:
//!
//! * **NPF flow (1–4):** the NIC raises a fault; the driver queries the
//!   OS (allocating / swapping in pages), batch-updates the I/O page
//!   tables, and tells the NIC to resume. Batching and pre-faulting of
//!   whole scatter-gather ranges is the paper's third optimization; the
//!   firmware-bypass resume is the second; the per-channel concurrency
//!   limit (four outstanding faults) is the first.
//! * **Invalidation flow (a–d):** when the OS reclaims a page (an MMU
//!   notifier in Linux), the driver removes the IOMMU mapping — cheap
//!   when the page was never mapped, since ODP maps lazily.
//!
//! The engine is sans-IO: `begin_fault` computes *when* the fault will
//! be resolved and `complete_fault` applies the IOMMU update; the
//! testbed schedules the completion event.

use std::collections::{HashMap, VecDeque};

use iommu::{DomainId, Iommu, TableMode};
use memsim::manager::{Invalidation, MemError, MemoryManager};
use memsim::space::Pte;
use memsim::types::{PageRange, SpaceId, VirtAddr, Vpn};
use memsim::FrameId;
use simcore::chaos::{invariant, ChaosEngine, NpfFate};
use simcore::journal;
use simcore::rng::SimRng;
use simcore::stats::{CounterId, Counters, DurationHistogram};
use simcore::time::{SimDuration, SimTime};
use simcore::trace::{self, ArgValue};

use crate::backend::{trace_child_name, BackendKind, BackendSelect, FaultRequest, OdpBackend};
use crate::cost::{CostModel, NpfBreakdown};

/// Engine configuration: the paper's optimizations as toggles, for the
/// ablation benches.
///
/// Non-exhaustive: construct via [`NpfConfig::default`] and the
/// `with_*` setters so new knobs (arbitration, slot pools) are not
/// breaking changes.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct NpfConfig {
    /// Costs in force.
    pub cost: CostModel,
    /// Maximum concurrently-serviced faults per channel (the prototype
    /// uses four, §4). Extra faults queue behind outstanding ones.
    pub concurrent_faults_per_channel: u32,
    /// Resolve the NIC-provided *entire* scatter-gather range per fault
    /// event (`true`, the paper's design) or one page per event (ATS/PRI
    /// discipline — the ablation showing >220 ms cold 4 MB messages).
    pub batch_resolution: bool,
    /// Use the firmware-bypass fast resume.
    pub firmware_bypass: bool,
    /// Cross-channel arbitration over the engine-wide fault-servicing
    /// capacity. [`ArbiterPolicy::ChannelOnly`] reproduces the paper's
    /// prototype (per-channel limits only, no global pool).
    pub arbiter: ArbiterPolicy,
    /// Engine-wide concurrent-fault capacity shared by every channel.
    /// `0` means unbounded (per-channel limits still apply); ignored
    /// under [`ArbiterPolicy::ChannelOnly`].
    pub total_fault_slots: u32,
    /// Inert: the IOMMU has no translation cache and nothing reads
    /// this. Kept only because the frozen `benchmark/` names the field
    /// (see the residue note in `iommu::unit`).
    pub iotlb_entries: usize,
    /// Which ODP backend services faults: the paper's firmware NPF
    /// path (default), the NP-RDMA-style driver-level software
    /// emulation, or the pinned-only baseline.
    pub backend: BackendSelect,
    /// Fold runs of 512 resident 4 KiB pages into 2 MiB leaves in the
    /// IOMMU page tables. Promotion and demotion maintenance is charged
    /// to the next fault's OS span.
    pub huge_pages: bool,
    /// Speculative NPF prefetch depth in pages (0 disables). When a
    /// per-channel stride detector trains on the fault stream, each
    /// demand fault issues one bounded speculative pre-fault for the
    /// predicted next window. Speculative faults never occupy arbiter
    /// or per-channel fault slots and draw no RNG.
    pub prefetch_depth: u32,
}

impl Default for NpfConfig {
    fn default() -> Self {
        NpfConfig {
            cost: CostModel::default(),
            concurrent_faults_per_channel: 4,
            batch_resolution: true,
            firmware_bypass: false,
            arbiter: ArbiterPolicy::ChannelOnly,
            total_fault_slots: 0,
            iotlb_entries: 4096,
            backend: BackendSelect::Firmware,
            huge_pages: false,
            prefetch_depth: 0,
        }
    }
}

impl NpfConfig {
    /// Replaces the cost model.
    #[must_use]
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the per-channel concurrent-fault limit.
    #[must_use]
    pub fn with_concurrent_faults_per_channel(mut self, limit: u32) -> Self {
        self.concurrent_faults_per_channel = limit;
        self
    }

    /// Toggles whole-scatter-gather-range fault resolution.
    #[must_use]
    pub fn with_batch_resolution(mut self, on: bool) -> Self {
        self.batch_resolution = on;
        self
    }

    /// Toggles the firmware-bypass fast resume.
    #[must_use]
    pub fn with_firmware_bypass(mut self, on: bool) -> Self {
        self.firmware_bypass = on;
        self
    }

    /// Selects the cross-channel arbitration policy.
    #[must_use]
    pub fn with_arbiter(mut self, policy: ArbiterPolicy) -> Self {
        self.arbiter = policy;
        self
    }

    /// Sets the engine-wide concurrent-fault capacity (0 = unbounded).
    #[must_use]
    pub fn with_total_fault_slots(mut self, slots: u32) -> Self {
        self.total_fault_slots = slots;
        self
    }

    /// Selects the ODP backend.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendSelect) -> Self {
        self.backend = backend;
        self
    }

    /// Toggles 2 MiB huge-page folding in the IOMMU.
    #[must_use]
    pub fn with_huge_pages(mut self, on: bool) -> Self {
        self.huge_pages = on;
        self
    }

    /// Sets the speculative prefetch depth in pages (0 disables).
    #[must_use]
    pub fn with_prefetch_depth(mut self, pages: u32) -> Self {
        self.prefetch_depth = pages;
        self
    }
}

/// How channels contend for the engine-wide fault-servicing capacity
/// ([`NpfConfig::total_fault_slots`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArbiterPolicy {
    /// Legacy prototype behavior: each channel is limited to
    /// `concurrent_faults_per_channel`, channels never contend with one
    /// another, and the global pool is ignored.
    #[default]
    ChannelOnly,
    /// One global pool of slots granted in arrival order. Combined with
    /// the per-channel cap this round-robins between contending
    /// channels: no channel can occupy more than its per-channel limit,
    /// so waiting channels interleave — but a burst of many channels
    /// can still queue a late arrival behind everyone.
    RoundRobin,
    /// Global pool with per-channel occupancy capped at the channel's
    /// *registered* weight share, `max(1, total · w / Σw)`. Reservation
    /// semantics: a channel never occupies beyond its share even when
    /// the pool is otherwise idle, so every other channel's share stays
    /// available and no tenant's wait depends on another's backlog —
    /// starvation is bounded by the drain time of the channel's own
    /// share.
    WeightedFair,
}

impl ArbiterPolicy {
    /// Parses the CLI spellings used by the bench bins.
    ///
    /// # Errors
    ///
    /// Returns the unrecognized input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "channel" | "channel-only" | "none" => Ok(ArbiterPolicy::ChannelOnly),
            "rr" | "round-robin" => Ok(ArbiterPolicy::RoundRobin),
            "wfq" | "weighted-fair" => Ok(ArbiterPolicy::WeightedFair),
            other => Err(other.to_owned()),
        }
    }
}

/// Per-domain starvation accounting for the fault arbiter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArbiterStats {
    /// Faults admitted for this domain.
    pub grants: u64,
    /// Grants that had to wait on arbitration (beyond any per-channel
    /// queueing).
    pub queued: u64,
    /// Total arbitration wait across all grants.
    pub total_wait: SimDuration,
    /// Worst single arbitration wait.
    pub max_wait: SimDuration,
}

/// Cross-channel fault arbiter: models the engine-wide fault-servicing
/// capacity as `total_fault_slots` slot servers, each with a busy-until
/// time and a last owner.
///
/// Sans-IO like the engine: `admit` picks a slot and returns the
/// service start time; the caller commits the completion time so later
/// admissions see it. Under [`ArbiterPolicy::RoundRobin`] every fault
/// takes the earliest-free slot (arrival order); under
/// [`ArbiterPolicy::WeightedFair`] a domain already holding its weight
/// share of busy slots serializes on its own slots instead of spreading
/// further — heavy tenants stack depth-wise on their share and the
/// remaining slots stay available to light tenants.
#[derive(Debug)]
pub struct FaultArbiter {
    policy: ArbiterPolicy,
    total_slots: u32,
    /// Registered weight per domain, indexed by the dense domain id
    /// (0 = unregistered; registered weights are clamped to ≥ 1).
    weights: Vec<u32>,
    /// Σ of registered weights (kept incrementally; the share divisor).
    weight_sum: u64,
    /// Per-slot `(busy_until, last_owner)`.
    servers: Vec<(SimTime, Option<DomainId>)>,
    /// Slot chosen by the in-flight `admit`, consumed by `commit`.
    pending_slot: Option<usize>,
    /// Starvation accounting, indexed by the dense domain id. `None`
    /// until the domain's first admission (so reports only list domains
    /// that actually faulted).
    stats: Vec<Option<ArbiterStats>>,
}

impl FaultArbiter {
    fn new(policy: ArbiterPolicy, total_slots: u32) -> Self {
        let slots = if policy == ArbiterPolicy::ChannelOnly {
            0
        } else {
            total_slots as usize
        };
        FaultArbiter {
            policy,
            total_slots,
            weights: Vec::new(),
            weight_sum: 0,
            servers: vec![(SimTime::ZERO, None); slots],
            pending_slot: None,
            stats: Vec::new(),
        }
    }

    /// Grows a dense per-domain table to cover `domain`.
    fn ensure_len<T: Clone + Default>(v: &mut Vec<T>, domain: DomainId) -> &mut T {
        let idx = domain.0 as usize;
        if idx >= v.len() {
            v.resize(idx + 1, T::default());
        }
        &mut v[idx]
    }

    /// Whether the global pool is actually in force.
    fn active(&self) -> bool {
        self.policy != ArbiterPolicy::ChannelOnly && self.total_slots > 0
    }

    /// Registers a domain at the default weight 1 (no-op if already
    /// registered). Channels register at creation.
    pub fn register(&mut self, domain: DomainId) {
        let w = Self::ensure_len(&mut self.weights, domain);
        if *w == 0 {
            *w = 1;
            self.weight_sum += 1;
        }
    }

    /// Sets a domain's weight (clamped to ≥ 1). Only
    /// [`ArbiterPolicy::WeightedFair`] consults weights.
    pub fn set_weight(&mut self, domain: DomainId, weight: u32) {
        let w = weight.max(1);
        let slot = Self::ensure_len(&mut self.weights, domain);
        let old = *slot;
        *slot = w;
        self.weight_sum = self.weight_sum - u64::from(old) + u64::from(w);
    }

    /// Whether a domain has been registered (or explicitly weighted).
    fn registered(&self, domain: DomainId) -> bool {
        self.weights.get(domain.0 as usize).is_some_and(|&w| w != 0)
    }

    /// A domain's weight (default 1).
    #[must_use]
    pub fn weight(&self, domain: DomainId) -> u32 {
        match self.weights.get(domain.0 as usize) {
            Some(&w) if w != 0 => w,
            _ => 1,
        }
    }

    /// Starvation accounting for one domain.
    #[must_use]
    pub fn stats(&self, domain: DomainId) -> ArbiterStats {
        self.stats
            .get(domain.0 as usize)
            .copied()
            .flatten()
            .unwrap_or_default()
    }

    /// All per-domain stats, in domain order (deterministic). Only
    /// domains that admitted at least one fault appear.
    #[must_use]
    pub fn stats_sorted(&self) -> Vec<(DomainId, ArbiterStats)> {
        self.stats
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|s| (DomainId(u32::try_from(i).expect("dense id")), s)))
            .collect()
    }

    /// The worst arbitration wait seen by any domain.
    #[must_use]
    pub fn max_wait(&self) -> SimDuration {
        self.stats
            .iter()
            .flatten()
            .map(|s| s.max_wait)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// The mutable stats cell for `domain`, created on first touch.
    fn stats_mut(&mut self, domain: DomainId) -> &mut ArbiterStats {
        Self::ensure_len(&mut self.stats, domain).get_or_insert_with(ArbiterStats::default)
    }

    /// Earliest time a fault for `domain` (already cleared for service
    /// at `chan_start` by the per-channel limiter) may start under the
    /// global policy. Records starvation stats and remembers the chosen
    /// slot for `commit`.
    fn admit(&mut self, _now: SimTime, domain: DomainId, chan_start: SimTime) -> SimTime {
        self.pending_slot = None;
        if !self.active() {
            self.stats_mut(domain).grants += 1;
            return chan_start;
        }
        // One pass over the slot servers finds both candidates: the
        // earliest-free slot overall, and the earliest-free of the slots
        // this domain still holds busy. The strict `<` keeps the lowest
        // index on ties (deterministic).
        let weighted = self.policy == ArbiterPolicy::WeightedFair;
        let mut global_best = 0;
        let mut mine_busy = 0usize;
        let mut mine_best: Option<usize> = None;
        for (i, &(t, owner)) in self.servers.iter().enumerate() {
            if t < self.servers[global_best].0 {
                global_best = i;
            }
            if weighted && t > chan_start && owner == Some(domain) {
                mine_busy += 1;
                if mine_best.is_none_or(|best| t < self.servers[best].0) {
                    mine_best = Some(i);
                }
            }
        }
        let chosen = if weighted {
            // Reservation share over the registered weights: the cap
            // holds even when other channels are idle, so their shares
            // stay available to them (non-work-conserving by design).
            let w_d = u64::from(self.weight(domain));
            let w_sum = if self.registered(domain) {
                self.weight_sum
            } else {
                self.weight_sum + w_d
            };
            let share = usize::try_from((u64::from(self.total_slots) * w_d / w_sum.max(1)).max(1))
                .unwrap_or(usize::MAX);
            match mine_best {
                // At the weight share: serialize on the soonest-free of
                // this domain's own slots rather than spreading wider.
                Some(own) if mine_busy >= share => own,
                _ => global_best,
            }
        } else {
            global_best
        };
        let start = chan_start.max(self.servers[chosen].0);
        self.pending_slot = Some(chosen);
        let wait = start.saturating_since(chan_start);
        let s = self.stats_mut(domain);
        s.grants += 1;
        if wait > SimDuration::ZERO {
            s.queued += 1;
        }
        s.total_wait += wait;
        if wait > s.max_wait {
            s.max_wait = wait;
        }
        start
    }

    /// Registers an admitted fault's completion time on its slot.
    fn commit(&mut self, domain: DomainId, ready_at: SimTime) {
        if let Some(i) = self.pending_slot.take() {
            self.servers[i] = (ready_at, Some(domain));
        }
    }
}

/// A fault in flight.
#[derive(Debug, Clone)]
pub struct FaultRecord {
    /// Correlation id.
    pub id: u64,
    /// Faulting channel's IOMMU domain.
    pub domain: DomainId,
    /// Owning address space.
    pub space: SpaceId,
    /// Pages being resolved by this event.
    pub range: PageRange,
    /// Write access?
    pub write: bool,
    /// When resolution completes and the NIC may resume.
    pub ready_at: SimTime,
    /// Cost breakdown (for Figure 3 / Table 4).
    pub breakdown: NpfBreakdown,
    /// Driver-initiated speculative pre-fault (no NIC event behind it).
    pub speculative: bool,
    /// Mappings to install at completion.
    mappings: Vec<(Vpn, FrameId)>,
}

/// Per-channel stride detector state for speculative prefetch.
#[derive(Debug, Clone, Copy, Default)]
struct StrideStream {
    /// Whether `last_start` holds a real observation yet.
    primed: bool,
    /// Start page of the previous demand fault on this channel.
    last_start: u64,
    /// Last observed start-to-start stride in pages.
    stride: i64,
    /// Consecutive faults that repeated `stride`.
    streak: u32,
}

/// Strides this large stop looking like a stream and are not prefetched.
const MAX_PREFETCH_STRIDE: i64 = 64;

/// Ids of the counters the engine itself bumps (the backend registers
/// its own), resolved once in [`NpfEngine::new`] so the fault and
/// invalidation paths index instead of hashing.
#[derive(Debug, Clone, Copy)]
struct NpfCounterIds {
    arb_waits: CounterId,
    huge_demotions: CounterId,
    huge_promotions: CounterId,
    invalidations: CounterId,
    invalidations_mapped: CounterId,
    npf_chaos_delays: CounterId,
    npf_chaos_retries: CounterId,
    npf_events: CounterId,
    npf_major: CounterId,
    npf_pages: CounterId,
    npf_tier_fetches: CounterId,
    prefetch_hits: CounterId,
    prefetch_issued: CounterId,
    prefetch_pages: CounterId,
    softemu_retries: CounterId,
}

impl NpfCounterIds {
    fn register(counters: &mut Counters) -> Self {
        NpfCounterIds {
            arb_waits: counters.register("arb_waits"),
            huge_demotions: counters.register("huge_demotions"),
            huge_promotions: counters.register("huge_promotions"),
            invalidations: counters.register("invalidations"),
            invalidations_mapped: counters.register("invalidations_mapped"),
            npf_chaos_delays: counters.register("npf_chaos_delays"),
            npf_chaos_retries: counters.register("npf_chaos_retries"),
            npf_events: counters.register("npf_events"),
            npf_major: counters.register("npf_major"),
            npf_pages: counters.register("npf_pages"),
            npf_tier_fetches: counters.register("npf_tier_fetches"),
            prefetch_hits: counters.register("prefetch_hits"),
            prefetch_issued: counters.register("prefetch_issued"),
            prefetch_pages: counters.register("prefetch_pages"),
            softemu_retries: counters.register("softemu_retries"),
        }
    }
}

/// The NPF engine.
#[derive(Debug)]
pub struct NpfEngine {
    config: NpfConfig,
    mm: MemoryManager,
    iommu: Iommu,
    /// Domain → bound space, indexed by the dense domain id.
    bindings: Vec<Option<SpaceId>>,
    /// In-flight faults, sorted by id (ids are monotone, so pushes keep
    /// the order). Lookups binary-search; overlap scans iterate in id
    /// order, which makes "lowest covering id" the first hit.
    pending: VecDeque<FaultRecord>,
    /// `(id, range)` of every pending fault, per dense domain id, in id
    /// order: the overlap scans walk one channel's faults instead of
    /// every tenant's. Linked by `push_pending`, unlinked by
    /// `complete_fault`.
    pending_by_domain: Vec<Vec<(u64, PageRange)>>,
    /// Completion times of outstanding faults, per dense domain id
    /// (concurrency limiting).
    outstanding: Vec<Vec<SimTime>>,
    arbiter: FaultArbiter,
    next_fault: u64,
    rng: SimRng,
    /// Invariant-note namespace: salts fault ids (and, via the
    /// allocator and IOMMU, frame/domain ids) so engines never alias
    /// inside one process-global checker.
    chaos_ns: u64,
    /// Fault injector for the NPF resolution path (None = chaos off).
    chaos: Option<ChaosEngine>,
    /// The ODP backend servicing faults, built from
    /// [`NpfConfig::backend`].
    backend: Box<dyn OdpBackend>,
    counters: Counters,
    ids: NpfCounterIds,
    /// Scratch for the page-table entries of the range a fault covers,
    /// kept between faults so resolving one allocates nothing for it.
    scratch_ptes: Vec<(Vpn, Pte)>,
    /// Scratch for the mappings of a completing fault that are still
    /// resident.
    scratch_resident: Vec<(Vpn, FrameId)>,
    fault_latency: DurationHistogram,
    fault_latency_by_tag: HashMap<&'static str, DurationHistogram>,
    last_breakdown: Option<NpfBreakdown>,
    /// Stride-detector state per dense domain id.
    streams: Vec<StrideStream>,
    /// Speculative faults issued since the last drain; the testbed
    /// schedules a completion event for each.
    spawned_prefetches: Vec<(u64, SimTime)>,
    /// Pages mapped by completed speculative faults and not yet touched
    /// by DMA, keyed `(domain, vpn)`. Interior mutability because hit
    /// detection happens inside the read-only `dma_ready` probe; only
    /// membership is ever queried, so iteration order cannot leak.
    prefetched: std::cell::RefCell<std::collections::HashSet<(u32, u64)>>,
    /// Hits observed by `dma_ready` awaiting transfer into `counters`.
    prefetch_hits_pending: std::cell::Cell<u64>,
    /// `Iommu::huge_stats` promotions seen and charged so far.
    seen_promotions: u64,
    /// `Iommu::huge_stats` demotions seen and charged so far.
    seen_demotions: u64,
    /// Page-table maintenance cost (folds/splits) accrued since the
    /// last fault, drained into the next fault's OS span.
    pending_huge_cost: SimDuration,
}

impl NpfEngine {
    /// Creates an engine over `mm`.
    #[must_use]
    pub fn new(config: NpfConfig, mut mm: MemoryManager, rng: SimRng) -> Self {
        // One shared note namespace per engine: the allocator's frame
        // ids and the IOMMU's domain/frame ids must agree with each
        // other but never alias another node's.
        let ns = invariant::fresh_namespace();
        mm.set_chaos_namespace(ns);
        let mut iommu = Iommu::new(0);
        iommu.set_chaos_namespace(ns);
        iommu.set_huge_pages(config.huge_pages);
        let mut counters = Counters::new();
        let ids = NpfCounterIds::register(&mut counters);
        let backend = config.backend.build(&mut counters);
        NpfEngine {
            config,
            mm,
            iommu,
            bindings: Vec::new(),
            pending: VecDeque::new(),
            pending_by_domain: Vec::new(),
            outstanding: Vec::new(),
            arbiter: FaultArbiter::new(config.arbiter, config.total_fault_slots),
            next_fault: 0,
            rng,
            chaos_ns: ns,
            chaos: None,
            backend,
            counters,
            ids,
            scratch_ptes: Vec::new(),
            scratch_resident: Vec::new(),
            fault_latency: DurationHistogram::new(),
            fault_latency_by_tag: HashMap::new(),
            last_breakdown: None,
            streams: Vec::new(),
            spawned_prefetches: Vec::new(),
            prefetched: std::cell::RefCell::new(std::collections::HashSet::new()),
            prefetch_hits_pending: std::cell::Cell::new(0),
            seen_promotions: 0,
            seen_demotions: 0,
            pending_huge_cost: SimDuration::ZERO,
        }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &NpfConfig {
        &self.config
    }

    /// The host memory manager.
    #[must_use]
    pub fn memory(&self) -> &MemoryManager {
        &self.mm
    }

    /// Mutable host memory access — for CPU-side workload touches. Use
    /// [`NpfEngine::touch`] instead when invalidation propagation is
    /// needed (it almost always is).
    pub fn memory_mut(&mut self) -> &mut MemoryManager {
        &mut self.mm
    }

    /// The IOMMU.
    #[must_use]
    pub fn iommu(&self) -> &Iommu {
        &self.iommu
    }

    /// Mutable IOMMU access.
    pub fn iommu_mut(&mut self) -> &mut Iommu {
        &mut self.iommu
    }

    /// Statistics: `npf_events`, `npf_pages`, `npf_major`,
    /// `invalidations`, `invalidations_mapped`.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// End-to-end fault latency histogram (Table 4).
    pub fn fault_latency(&mut self) -> &mut DurationHistogram {
        &mut self.fault_latency
    }

    /// Latency histogram for faults recorded under `tag` (e.g. one per
    /// message size).
    pub fn fault_latency_tagged(&mut self, tag: &'static str) -> &mut DurationHistogram {
        self.fault_latency_by_tag.entry(tag).or_default()
    }

    /// The breakdown of the most recent fault (Figure 3a plumbing).
    #[must_use]
    pub fn last_breakdown(&self) -> Option<NpfBreakdown> {
        self.last_breakdown
    }

    /// The cross-channel fault arbiter (starvation accounting).
    #[must_use]
    pub fn arbiter(&self) -> &FaultArbiter {
        &self.arbiter
    }

    /// Which ODP backend is servicing this engine's faults.
    #[must_use]
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// Sets a channel's weight for [`ArbiterPolicy::WeightedFair`]
    /// arbitration (clamped to ≥ 1).
    pub fn set_channel_weight(&mut self, domain: DomainId, weight: u32) {
        self.arbiter.set_weight(domain, weight);
    }

    /// Creates an IOchannel: a page-fault-capable IOMMU domain bound to
    /// `space`.
    pub fn create_channel(&mut self, space: SpaceId) -> DomainId {
        let d = self.iommu.create_domain(TableMode::PageFaultCapable);
        self.bind(d, space);
        self.arbiter.register(d);
        d
    }

    /// Records a domain → space binding in the dense table.
    fn bind(&mut self, domain: DomainId, space: SpaceId) {
        let idx = domain.0 as usize;
        if idx >= self.bindings.len() {
            self.bindings.resize(idx + 1, None);
        }
        self.bindings[idx] = Some(space);
    }

    /// Creates a legacy (pinned-only) channel for baseline
    /// configurations.
    pub fn create_pinned_channel(&mut self, space: SpaceId) -> DomainId {
        let d = self.iommu.create_domain(TableMode::PinnedOnly);
        self.bind(d, space);
        self.arbiter.register(d);
        d
    }

    /// The space a domain is bound to.
    ///
    /// # Panics
    ///
    /// Panics for unbound domains (wiring bug).
    #[must_use]
    pub fn space_of(&self, domain: DomainId) -> SpaceId {
        self.bindings
            .get(domain.0 as usize)
            .copied()
            .flatten()
            .expect("unbound domain")
    }

    /// Whether a DMA of `len` bytes at `addr` would currently succeed.
    #[must_use]
    pub fn dma_ready(&self, domain: DomainId, addr: VirtAddr, len: u64, write: bool) -> bool {
        let range = PageRange::covering(addr, len.max(1));
        let ready = self.iommu.probe_range(domain, range, write);
        if ready {
            // Prefetch-accuracy accounting: a successful probe of a page
            // a speculative fault mapped is a hit (counted once — the
            // page leaves the set). Interior mutability because probes
            // are read-only to the simulation.
            let mut set = self.prefetched.borrow_mut();
            if !set.is_empty() {
                let mut hits = 0;
                for vpn in range.iter() {
                    if set.remove(&(domain.0, vpn.0)) {
                        hits += 1;
                    }
                }
                if hits > 0 {
                    self.prefetch_hits_pending
                        .set(self.prefetch_hits_pending.get() + hits);
                }
            }
        }
        ready
    }

    /// Moves hit counts observed by the read-only `dma_ready` probe into
    /// the counters (called on the mutating paths, so `counters()` is
    /// up to date whenever the simulation can observe it).
    fn sync_prefetch_hits(&mut self) {
        let hits = self.prefetch_hits_pending.take();
        if hits > 0 {
            self.counters.add_id(self.ids.prefetch_hits, hits);
            if trace::enabled() {
                trace::metrics(|m| m.counter_add("npf.prefetch_hits", hits));
            }
        }
    }

    /// Pages a completed speculative fault mapped that DMA has since
    /// used (the prefetch-accuracy numerator).
    #[must_use]
    pub fn prefetch_hits(&self) -> u64 {
        self.counters.get("prefetch_hits") + self.prefetch_hits_pending.get()
    }

    /// Is any pending fault already covering `addr..addr+len`? Returns
    /// its id — the NIC's in-flight-fault bitmap (§4's second
    /// optimization) maps onto this: repeated faults on the same range
    /// do not raise new events.
    #[must_use]
    pub fn pending_fault_covering(
        &self,
        domain: DomainId,
        addr: VirtAddr,
        len: u64,
    ) -> Option<u64> {
        self.pending_overlap(domain, PageRange::covering(addr, len.max(1)))
    }

    /// The lowest-id pending fault of `domain` overlapping `range`. The
    /// per-domain list is in id order, so the first overlap is the
    /// earliest fault raised — the one the hardware bitmap would have
    /// kept.
    fn pending_overlap(&self, domain: DomainId, range: PageRange) -> Option<u64> {
        self.pending_by_domain
            .get(domain.0 as usize)?
            .iter()
            .find(|(_, r)| r.overlaps(range))
            .map(|&(id, _)| id)
    }

    /// Appends a fault to `pending` and links it into its domain's
    /// index. Ids are monotone, so both stay sorted by id.
    fn push_pending(&mut self, record: FaultRecord) {
        let idx = record.domain.0 as usize;
        if idx >= self.pending_by_domain.len() {
            self.pending_by_domain.resize_with(idx + 1, Vec::new);
        }
        self.pending_by_domain[idx].push((record.id, record.range));
        self.pending.push_back(record);
    }

    /// A pending fault by id.
    #[must_use]
    pub fn pending_fault(&self, id: u64) -> Option<&FaultRecord> {
        self.pending
            .binary_search_by_key(&id, |f| f.id)
            .ok()
            .map(|i| &self.pending[i])
    }

    /// Number of unresolved faults.
    #[must_use]
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Begins resolving an NPF for `addr..addr+len` in `domain`,
    /// optionally tagging the latency sample. Returns the fault record;
    /// the caller schedules `complete_fault(id)` at `record.ready_at`.
    ///
    /// The OS work (allocation, swap-in, reclaim) happens *now*; the
    /// IOMMU mappings are installed at completion. Invalidation costs of
    /// any reclaim are folded into the driver component.
    ///
    /// # Errors
    ///
    /// Propagates memory errors (OOM, swap full).
    pub fn begin_fault(
        &mut self,
        now: SimTime,
        domain: DomainId,
        addr: VirtAddr,
        len: u64,
        write: bool,
        tag: Option<&'static str>,
    ) -> Result<&FaultRecord, MemError> {
        self.sync_prefetch_hits();
        let space = self.space_of(domain);
        let full_range = PageRange::covering(addr, len.max(1));
        // ATS/PRI ablation: one page per fault event.
        let range = if self.config.batch_resolution {
            full_range
        } else {
            PageRange::new(full_range.start, 1)
        };

        // Resolve all non-resident pages and collect mappings for the
        // whole (possibly batched) range.
        let mut os_cost = SimDuration::ZERO;
        let mut tier_cost = SimDuration::ZERO;
        let mut mappings = Vec::new();
        let mut invalidation_cost = SimDuration::ZERO;
        let mut major = false;
        // One pass over the page tables for the whole scatter-gather
        // range (the VMA and each PTE leaf are resolved once), then the
        // per-page fault logic runs on the collected entries.
        let mut ptes = std::mem::take(&mut self.scratch_ptes);
        ptes.clear();
        self.mm
            .space(space)?
            .for_each_pte(range, |vpn, pte| ptes.push((vpn, pte)))?;
        for &(vpn, pte) in &ptes {
            let frame = if let Some(f) = pte.frame() {
                if write && pte.cow {
                    // A DMA write to a COW-shared page must break the
                    // sharing first (otherwise the device would scribble
                    // on the other sharers' frame).
                    let access = self.mm.touch(space, vpn, true)?;
                    let broke = access.fault.expect("COW break reports a fault");
                    os_cost += broke.cost;
                    for inv in &broke.invalidations {
                        invalidation_cost += self.run_invalidation(*inv);
                    }
                    broke.frame
                } else {
                    f
                }
            } else {
                let res = self.mm.resolve_fault(space, vpn, write)?;
                // Only the I/O share: the driver's own software costs
                // (per-page translation, PT updates) come from the
                // calibrated cost model below.
                os_cost += res.io_cost;
                tier_cost += res.tier_cost;
                major |= res.kind == memsim::FaultKind::Major;
                if res.kind == memsim::FaultKind::Major {
                    self.counters.bump_id(self.ids.npf_major);
                }
                if res.tier_cost > SimDuration::ZERO {
                    self.counters.bump_id(self.ids.npf_tier_fetches);
                }
                // Reclaim may have revoked other pages: purge their
                // IOMMU mappings now (Figure 2 a–d).
                for inv in &res.invalidations {
                    invalidation_cost += self.run_invalidation(*inv);
                }
                res.frame
            };
            mappings.push((vpn, frame));
        }
        self.scratch_ptes = ptes;

        // The backend prices the fault: an ordered phase plan plus the
        // synthesized Figure 3 breakdown. The firmware backend draws
        // its hardware jitter from the engine RNG exactly where the
        // direct cost-model call used to, so firmware runs stay
        // byte-identical to the pre-refactor engine.
        // Page-table maintenance from huge-page folds/splits since the
        // last fault lands on this fault's OS span.
        let huge_cost = std::mem::replace(&mut self.pending_huge_cost, SimDuration::ZERO);
        let request = FaultRequest {
            // Charge for what the speculation will actually map, not the
            // nominal window (which may have been clamped above).
            pages: mappings.len() as u64,
            os_cost: os_cost + invalidation_cost + huge_cost,
            write,
            firmware_bypass: self.config.firmware_bypass,
            speculative: false,
            tier_cost,
        };
        let plan = self.backend.plan(
            &request,
            &self.config.cost,
            &mut self.rng,
            &mut self.counters,
        );
        let breakdown = plan.breakdown;

        // Concurrency limiting: if the channel already has the maximum
        // outstanding faults, this one starts after the earliest
        // completes.
        let chan_start = {
            let idx = domain.0 as usize;
            if idx >= self.outstanding.len() {
                self.outstanding.resize_with(idx + 1, Vec::new);
            }
            let slots = &mut self.outstanding[idx];
            slots.retain(|&t| t > now);
            if slots.len() >= self.config.concurrent_faults_per_channel as usize {
                let (idx, &earliest) = slots
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, t)| *t)
                    .expect("nonempty");
                slots.remove(idx);
                earliest
            } else {
                now
            }
        };
        // Cross-channel arbitration over the engine-wide slot pool.
        let arb_start = self.arbiter.admit(now, domain, chan_start);
        if arb_start > chan_start {
            self.counters.bump_id(self.ids.arb_waits);
        }
        // Backend-side admission: the software emulation may hold the
        // fault here waiting for a bounce buffer (backpressure, never
        // a drop); firmware passes through.
        let start = self.backend.admit(arb_start, &mut self.counters);
        let ready_at = start + breakdown.total();
        // Chaos: NPF resolution delay / transient-failure / retry. The
        // perturbed time extends the outstanding slot too, so the
        // concurrency limiter sees the real completion.
        let ready_at = match self.chaos.as_mut().map(ChaosEngine::npf_fate) {
            None | Some(NpfFate::Normal) => ready_at,
            Some(NpfFate::Delay { extra }) => {
                self.counters.bump_id(self.ids.npf_chaos_delays);
                ready_at + extra
            }
            Some(NpfFate::Transient {
                retries,
                retry_delay,
            }) => {
                self.counters
                    .add_id(self.ids.npf_chaos_retries, u64::from(retries));
                if self.backend.kind() == BackendKind::SoftEmu {
                    self.counters
                        .add_id(self.ids.softemu_retries, u64::from(retries));
                }
                ready_at + self.backend.transient_penalty(retries, retry_delay)
            }
        };
        self.outstanding[domain.0 as usize].push(ready_at);
        self.arbiter.commit(domain, ready_at);
        self.backend.commit(ready_at);

        let id = self.next_fault;
        self.next_fault += 1;
        self.counters.bump_id(self.ids.npf_events);
        self.counters.add_id(self.ids.npf_pages, range.pages);
        let latency = ready_at.saturating_since(now);
        self.fault_latency.record(latency);
        if let Some(t) = tag {
            self.fault_latency_by_tag
                .entry(t)
                .or_default()
                .record(latency);
        }
        self.last_breakdown = Some(breakdown);

        if trace::enabled() {
            // The fault lifecycle span, decomposed into the backend's
            // service plan: Figure 3's five components (i)–(v) under
            // firmware, validate/bounce/copy under the software
            // emulation. The children tile the parent exactly.
            let parent = trace::span(
                start,
                breakdown.total(),
                "npf",
                "npf",
                vec![
                    ("fault_id", ArgValue::U64(id)),
                    ("pages", ArgValue::U64(range.pages)),
                    ("write", ArgValue::Bool(write)),
                    ("major", ArgValue::Bool(major)),
                    (
                        "queued_us",
                        ArgValue::F64(start.saturating_since(now).as_micros_f64()),
                    ),
                ],
            );
            if let Some(parent) = parent {
                let mut at = start;
                for &(phase, d) in plan.slices.iter() {
                    trace::child_span(at, d, "npf", trace_child_name(phase), parent, Vec::new());
                    at += d;
                }
            }
            trace::counter(
                now,
                "npf",
                "pending_faults",
                (self.pending.len() + 1) as f64,
            );
            trace::metrics(|m| {
                m.counter_add("npf.events", 1);
                m.counter_add("npf.pages", range.pages);
                m.duration_record("npf.latency", latency);
            });
        }

        if journal::enabled() {
            // The causal journal records the same decomposition as the
            // trace span above, plus the pre-admission waits, as typed
            // phases that tile `[now, ready_at]` exactly: their sum IS
            // the end-to-end latency, by construction.
            let chaos_extra = ready_at.saturating_since(start + breakdown.total());
            let key = (self.chaos_ns << 32) | id;
            let slices = &plan.slices;
            journal::with(|j| {
                j.fault_begun(key, u64::from(domain.0), range.pages, major, now, ready_at);
                j.phase(
                    key,
                    journal::Phase::QueueWait,
                    now,
                    chan_start.saturating_since(now),
                );
                j.phase(
                    key,
                    journal::Phase::ArbWait,
                    chan_start,
                    arb_start.saturating_since(chan_start),
                );
                // Bounce-pool backpressure (zero-width under firmware).
                j.phase(
                    key,
                    journal::Phase::BounceWait,
                    arb_start,
                    start.saturating_since(arb_start),
                );
                let mut at = start;
                for &(phase, d) in slices.iter() {
                    j.phase(key, phase, at, d);
                    at += d;
                }
                j.phase(key, journal::Phase::ChaosExtra, at, chaos_extra);
            });
        }

        let record = FaultRecord {
            id,
            domain,
            space,
            range,
            write,
            ready_at,
            breakdown,
            speculative: false,
            mappings,
        };
        invariant::note_fault_begun((self.chaos_ns << 32) | id, now);
        self.push_pending(record);
        let demand_idx = self.pending.len() - 1;
        // The demand fault is fully recorded; train the stride detector
        // and (possibly) issue one speculative pre-fault for the
        // predicted next window. Prefetch ids are allocated after the
        // demand id, so `pending` stays sorted.
        self.maybe_prefetch(now, domain, range, write);
        Ok(&self.pending[demand_idx])
    }

    /// Trains the per-channel stride detector on a demand fault and
    /// issues a bounded speculative pre-fault once a stream is
    /// established. Speculative faults skip the per-channel slots, the
    /// arbiter, backend admission and chaos — they model driver-side
    /// pre-validation, not NIC events — and draw no RNG, so enabling
    /// prefetch never perturbs the demand path's draw sites.
    fn maybe_prefetch(&mut self, now: SimTime, domain: DomainId, range: PageRange, write: bool) {
        let depth = self.config.prefetch_depth;
        if depth == 0 {
            return;
        }
        let idx = domain.0 as usize;
        if idx >= self.streams.len() {
            self.streams.resize(idx + 1, StrideStream::default());
        }
        let s = &mut self.streams[idx];
        let stride = range.start.0 as i64 - s.last_start as i64;
        // A trained stream keeps its streak when the observed stride is
        // a multiple of the base stride: our own prefetches absorb
        // intermediate windows, so the next *demand* fault lands several
        // strides ahead. That gap is continuation, not a new pattern.
        let continuation = s.primed
            && stride > 0
            && stride <= MAX_PREFETCH_STRIDE
            && (stride == s.stride || (s.streak >= 2 && s.stride > 0 && stride % s.stride == 0));
        if continuation {
            s.streak += 1;
        } else {
            s.stride = stride;
            s.streak = 0;
        }
        s.last_start = range.start.0;
        s.primed = true;
        if s.streak < 2 {
            return;
        }
        // Predicted next window: one stride ahead, but never inside the
        // range the demand fault just resolved.
        let stride = s.stride as u64;
        let first = (range.start.0 + stride).max(range.start.0 + range.pages);
        let target = PageRange::new(Vpn(first), u64::from(depth));
        if self.iommu.probe_range(domain, target, write) {
            return; // already mapped (e.g. by an earlier prefetch)
        }
        if self.pending_overlap(domain, target).is_some() {
            return; // a demand or speculative fault already covers it
        }
        if let Some((id, ready_at)) = self.issue_prefetch(now, domain, target, write) {
            self.spawned_prefetches.push((id, ready_at));
        }
    }

    /// Issues one speculative pre-fault over `range`. Returns `None`
    /// (with no fault raised) when the range is unmapped VMA space or
    /// memory cannot be found — speculation must never surface errors.
    fn issue_prefetch(
        &mut self,
        now: SimTime,
        domain: DomainId,
        range: PageRange,
        write: bool,
    ) -> Option<(u64, SimTime)> {
        let space = self.space_of(domain);
        let mut ptes = std::mem::take(&mut self.scratch_ptes);
        ptes.clear();
        // The predicted window may run past the covering VMA (the end of
        // an rx ring, say): `for_each_pte` reports the covered prefix
        // before erroring, and speculation clamps to that prefix rather
        // than giving up — it must never surface errors.
        let _ = self
            .mm
            .space(space)
            .ok()?
            .for_each_pte(range, |vpn, pte| ptes.push((vpn, pte)));
        let mut os_cost = SimDuration::ZERO;
        let mut tier_cost = SimDuration::ZERO;
        let mut invalidation_cost = SimDuration::ZERO;
        let mut mappings = Vec::new();
        for &(vpn, pte) in &ptes {
            let frame = if let Some(f) = pte.frame() {
                if write && pte.cow {
                    // Never break COW speculatively: leave the page to a
                    // demand fault that knows the write really happened.
                    continue;
                }
                f
            } else {
                let Ok(res) = self.mm.resolve_fault(space, vpn, write) else {
                    // Out of memory: stop speculating, keep what we have.
                    break;
                };
                os_cost += res.io_cost;
                tier_cost += res.tier_cost;
                for inv in &res.invalidations {
                    invalidation_cost += self.run_invalidation(*inv);
                }
                res.frame
            };
            mappings.push((vpn, frame));
        }
        self.scratch_ptes = ptes;
        if mappings.is_empty() {
            return None;
        }
        let huge_cost = std::mem::replace(&mut self.pending_huge_cost, SimDuration::ZERO);
        let request = FaultRequest {
            // Charge for what the speculation will actually map, not the
            // nominal window (which may have been clamped above).
            pages: mappings.len() as u64,
            os_cost: os_cost + invalidation_cost + huge_cost,
            write,
            firmware_bypass: self.config.firmware_bypass,
            speculative: true,
            tier_cost,
        };
        // Speculative plans draw no RNG (pinned by the backend tests),
        // so the demand path's draw sites are untouched.
        let plan = self.backend.plan(
            &request,
            &self.config.cost,
            &mut self.rng,
            &mut self.counters,
        );
        let breakdown = plan.breakdown;
        let ready_at = now + breakdown.total();
        let id = self.next_fault;
        self.next_fault += 1;
        self.counters.bump_id(self.ids.prefetch_issued);
        self.counters
            .add_id(self.ids.prefetch_pages, mappings.len() as u64);

        if trace::enabled() {
            let parent = trace::span(
                now,
                breakdown.total(),
                "npf",
                "npf_prefetch",
                vec![
                    ("fault_id", ArgValue::U64(id)),
                    ("pages", ArgValue::U64(range.pages)),
                    ("write", ArgValue::Bool(write)),
                ],
            );
            if let Some(parent) = parent {
                let mut at = now;
                for &(phase, d) in plan.slices.iter() {
                    trace::child_span(at, d, "npf", trace_child_name(phase), parent, Vec::new());
                    at += d;
                }
            }
            trace::metrics(|m| m.counter_add("npf.prefetches", 1));
        }
        if journal::enabled() {
            // Same exact-tiling contract as demand faults: no waits and
            // no chaos, so the plan slices alone tile `[now, ready_at]`.
            let key = (self.chaos_ns << 32) | id;
            let slices = &plan.slices;
            journal::with(|j| {
                j.fault_begun(key, u64::from(domain.0), range.pages, false, now, ready_at);
                let mut at = now;
                for &(phase, d) in slices.iter() {
                    j.phase(key, phase, at, d);
                    at += d;
                }
            });
        }
        let record = FaultRecord {
            id,
            domain,
            space,
            range,
            write,
            ready_at,
            breakdown,
            speculative: true,
            mappings,
        };
        invariant::note_fault_begun((self.chaos_ns << 32) | id, now);
        self.push_pending(record);
        Some((id, ready_at))
    }

    /// Drains the speculative faults issued since the last call; the
    /// testbed schedules `complete_fault(id)` at each `ready_at`.
    pub fn drain_spawned_prefetches(&mut self) -> Vec<(u64, SimTime)> {
        std::mem::take(&mut self.spawned_prefetches)
    }

    /// Completes a fault: installs the IOMMU mappings so subsequent DMA
    /// succeeds. Call at `ready_at`.
    ///
    /// # Panics
    ///
    /// Panics for unknown fault ids.
    pub fn complete_fault(&mut self, id: u64) -> FaultRecord {
        self.sync_prefetch_hits();
        let idx = self
            .pending
            .binary_search_by_key(&id, |f| f.id)
            .expect("unknown fault id");
        // Faults mostly complete oldest first, and a deque removes near
        // its front without moving the tail.
        let record = self.pending.remove(idx).expect("index from the search");
        let linked = &mut self.pending_by_domain[record.domain.0 as usize];
        let at = linked
            .binary_search_by_key(&id, |&(id, _)| id)
            .expect("every pending fault is linked under its domain");
        linked.remove(at);
        invariant::note_fault_resolved((self.chaos_ns << 32) | id);
        journal::with(|j| j.fault_resolved((self.chaos_ns << 32) | id));
        if trace::enabled() {
            trace::instant(
                record.ready_at,
                "npf",
                "fault_complete",
                vec![
                    ("fault_id", ArgValue::U64(id)),
                    ("pages", ArgValue::U64(record.range.pages)),
                ],
            );
            trace::counter(
                record.ready_at,
                "npf",
                "pending_faults",
                self.pending.len() as f64,
            );
        }
        // Pages may have been reclaimed again between fault start and
        // completion under extreme pressure; map only what is still
        // resident (the next access faults again, which is correct).
        let mut still_resident = std::mem::take(&mut self.scratch_resident);
        still_resident.clear();
        if let Ok(s) = self.mm.space(record.space) {
            still_resident.extend(
                record
                    .mappings
                    .iter()
                    .copied()
                    .filter(|&(vpn, frame)| s.frame_of(vpn) == Some(frame)),
            );
        }
        if record.speculative {
            // No NIC event and no bounce buffer behind a speculative
            // fault: skip backend completion accounting, and remember
            // the mapped pages for prefetch-accuracy hit detection.
            let mut set = self.prefetched.borrow_mut();
            for &(vpn, _) in &still_resident {
                set.insert((record.domain.0, vpn.0));
            }
        } else {
            // Backend completion accounting: the software emulation
            // copies bounced data out to the still-resident pages and
            // skips the evicted ones (never a stale-frame copy).
            self.backend.on_complete(
                still_resident.len() as u64,
                record.range.pages,
                &mut self.counters,
            );
        }
        self.iommu.map_batch(record.domain, &still_resident, true);
        self.scratch_resident = still_resident;
        self.absorb_huge_deltas();
        record
    }

    /// Folds the IOMMU's promotion/demotion deltas since the last check
    /// into counters and the pending maintenance cost (drained into the
    /// next fault's OS span — deterministic, no RNG).
    fn absorb_huge_deltas(&mut self) {
        if !self.config.huge_pages {
            return;
        }
        let (promotions, demotions) = self.iommu.huge_stats();
        if promotions > self.seen_promotions {
            let delta = promotions - self.seen_promotions;
            self.seen_promotions = promotions;
            self.counters.add_id(self.ids.huge_promotions, delta);
            self.pending_huge_cost += self.config.cost.huge_promote() * delta;
            if trace::enabled() {
                trace::metrics(|m| m.counter_add("npf.huge_promotions", delta));
            }
        }
        if demotions > self.seen_demotions {
            let delta = demotions - self.seen_demotions;
            self.seen_demotions = demotions;
            self.counters.add_id(self.ids.huge_demotions, delta);
            self.pending_huge_cost += self.config.cost.huge_demote() * delta;
            if trace::enabled() {
                trace::metrics(|m| m.counter_add("npf.huge_demotions", delta));
            }
        }
    }

    /// Arms the NPF-resolution fault injector. The engine draws one
    /// [`NpfFate`] per fault from the injector's dedicated stream.
    pub fn set_chaos(&mut self, chaos: ChaosEngine) {
        self.chaos = Some(chaos);
    }

    /// The engine's fault injector, when armed.
    #[must_use]
    pub fn chaos(&self) -> Option<&ChaosEngine> {
        self.chaos.as_ref()
    }

    /// Chaos memory pressure: forcibly reclaims up to `pages` pages and
    /// runs the Figure 2 invalidation flow for every revoked mapping,
    /// exactly as organic reclaim would. Returns pages invalidated.
    pub fn chaos_evict(&mut self, pages: u64) -> u64 {
        let invalidations = self.mm.reclaim(pages);
        let n = invalidations.len() as u64;
        for inv in invalidations {
            self.run_invalidation(inv);
        }
        n
    }

    /// Runs the Figure 2 invalidation flow for one revoked page,
    /// returning its cost.
    fn run_invalidation(&mut self, inv: Invalidation) -> SimDuration {
        self.counters.bump_id(self.ids.invalidations);
        // Find the domains bound to the space that lost the page. The
        // dense table iterates in domain-id order, so the cost
        // attribution order is deterministic by construction.
        let domains: Vec<DomainId> = self
            .bindings
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == Some(inv.space))
            .map(|(d, _)| DomainId(u32::try_from(d).expect("dense id")))
            .collect();
        let mut cost = SimDuration::ZERO;
        for d in domains {
            let was_mapped = self.iommu.invalidate(d, inv.vpn);
            if was_mapped {
                self.counters.bump_id(self.ids.invalidations_mapped);
            }
            // A revoked page can no longer be a prefetch hit.
            self.prefetched.get_mut().remove(&(d.0, inv.vpn.0));
            cost += self.config.cost.invalidation(1, was_mapped).total();
            if trace::enabled() {
                // No `now` in scope (invalidations arrive from MMU
                // notifier callbacks); stamp with the recorder clock.
                trace::instant_now(
                    "npf",
                    "invalidation",
                    vec![
                        ("vpn", ArgValue::U64(inv.vpn.0)),
                        ("was_mapped", ArgValue::Bool(was_mapped)),
                    ],
                );
                trace::metrics(|m| m.counter_add("npf.invalidations", 1));
            }
        }
        // Partial unmaps may have split folded leaves; price them.
        self.absorb_huge_deltas();
        cost
    }

    /// Forks an IOuser's address space with COW sharing and runs the
    /// resulting invalidation storm against the IOMMU (§5 names forking
    /// as a cause of cold sequences: every formerly-mapped page must be
    /// re-faulted before the NIC can DMA again). Returns the child space
    /// and the total invalidation cost.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn fork_iouser(&mut self, parent: SpaceId) -> Result<(SpaceId, SimDuration), MemError> {
        let (child, invalidations) = self.mm.fork_space(parent)?;
        let mut cost = SimDuration::ZERO;
        for inv in invalidations {
            cost += self.run_invalidation(inv);
        }
        Ok((child, cost))
    }

    /// CPU-side touch with invalidation propagation: workloads use this
    /// instead of raw `MemoryManager::touch`.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn touch(
        &mut self,
        space: SpaceId,
        vpn: Vpn,
        write: bool,
    ) -> Result<SimDuration, MemError> {
        let access = self.mm.touch(space, vpn, write)?;
        let mut cost = access.cost();
        for inv in access.invalidations().to_vec() {
            cost += self.run_invalidation(inv);
        }
        Ok(cost)
    }

    /// Touches a whole byte range (see [`NpfEngine::touch`]).
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn touch_range(
        &mut self,
        space: SpaceId,
        addr: VirtAddr,
        len: u64,
        write: bool,
    ) -> Result<SimDuration, MemError> {
        let (cpu, io) = self.touch_range_split(space, addr, len, write)?;
        Ok(cpu + io)
    }

    /// Like [`NpfEngine::touch_range`] but splits the cost into a CPU
    /// share and a blocking-I/O share (major-fault disk waits). Hosts
    /// with a CPU model charge only the CPU share to a core; the I/O
    /// share is wall-clock sleep.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn touch_range_split(
        &mut self,
        space: SpaceId,
        addr: VirtAddr,
        len: u64,
        write: bool,
    ) -> Result<(SimDuration, SimDuration), MemError> {
        let mut cpu = SimDuration::ZERO;
        let mut io = SimDuration::ZERO;
        for vpn in PageRange::covering(addr, len.max(1)).iter() {
            let access = self.mm.touch(space, vpn, write)?;
            let total = access.cost();
            let fault_io = access
                .fault
                .as_ref()
                .map_or(SimDuration::ZERO, |res| res.io_cost);
            cpu += total.saturating_sub(fault_io);
            io += fault_io;
            for inv in access.invalidations().to_vec() {
                cpu += self.run_invalidation(inv);
            }
        }
        Ok((cpu, io))
    }

    /// Pins a range and maps it in the IOMMU (registration-time work of
    /// the pinning strategies). Returns the total cost.
    ///
    /// # Errors
    ///
    /// Propagates memory errors, including `RLIMIT_MEMLOCK`.
    pub fn pin_and_map(
        &mut self,
        domain: DomainId,
        range: PageRange,
    ) -> Result<SimDuration, MemError> {
        let space = self.space_of(domain);
        let outcome = self.mm.pin_range(space, range)?;
        let mut cost = outcome.cost;
        for inv in outcome.invalidations {
            cost += self.run_invalidation(inv);
        }
        let mut mappings = Vec::with_capacity(range.pages as usize);
        {
            let s = self.mm.space(space)?;
            for vpn in range.iter() {
                let frame = s.frame_of(vpn).expect("pinned page is resident");
                mappings.push((vpn, frame));
            }
        }
        self.iommu.map_batch(domain, &mappings, true);
        self.absorb_huge_deltas();
        cost += self.config.cost.register_pinned(range.pages);
        Ok(cost)
    }

    /// Unpins and unmaps a range, returning the cost.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn unpin_and_unmap(
        &mut self,
        domain: DomainId,
        range: PageRange,
    ) -> Result<SimDuration, MemError> {
        let space = self.space_of(domain);
        self.mm.unpin_range(space, range)?;
        self.iommu.invalidate_range(domain, range);
        self.absorb_huge_deltas();
        Ok(self.config.cost.deregister_pinned(range.pages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::manager::MemConfig;
    use memsim::space::Backing;
    use simcore::units::ByteSize;

    fn engine() -> (NpfEngine, SpaceId, DomainId, PageRange) {
        let mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::mib(16),
            ..MemConfig::default()
        });
        let mut e = NpfEngine::new(NpfConfig::default(), mm, SimRng::new(1));
        let space = e.memory_mut().create_space();
        let range = e
            .memory_mut()
            .mmap(space, ByteSize::mib(4), Backing::Anonymous)
            .expect("mmap");
        let domain = e.create_channel(space);
        (e, space, domain, range)
    }

    #[test]
    fn fault_lifecycle_installs_mappings() {
        let (mut e, _s, d, r) = engine();
        let addr = r.start.base();
        assert!(!e.dma_ready(d, addr, 4096, true));
        let rec = e
            .begin_fault(SimTime::ZERO, d, addr, 4096, true, None)
            .expect("fault")
            .clone();
        assert!(rec.ready_at > SimTime::ZERO);
        assert!(
            !e.dma_ready(d, addr, 4096, true),
            "mapping invisible until completion"
        );
        e.complete_fault(rec.id);
        assert!(e.dma_ready(d, addr, 4096, true));
        assert_eq!(e.counters().get("npf_events"), 1);
    }

    #[test]
    fn minor_4kb_fault_latency_matches_paper() {
        let (mut e, _s, d, r) = engine();
        let rec = e
            .begin_fault(SimTime::ZERO, d, r.start.base(), 4096, true, None)
            .expect("fault")
            .clone();
        let us = rec.ready_at.saturating_since(SimTime::ZERO).as_micros_f64();
        assert!((150.0..350.0).contains(&us), "got {us:.1} us");
    }

    #[test]
    fn batched_fault_resolves_whole_range() {
        let (mut e, _s, d, r) = engine();
        let rec = e
            .begin_fault(SimTime::ZERO, d, r.start.base(), 4 << 20, true, None)
            .expect("fault")
            .clone();
        assert_eq!(rec.range.pages, 1024);
        e.complete_fault(rec.id);
        assert!(e.dma_ready(d, r.start.base(), 4 << 20, true));
        assert_eq!(e.counters().get("npf_pages"), 1024);
    }

    #[test]
    fn unbatched_mode_resolves_one_page() {
        let mm = MemoryManager::new(MemConfig::default());
        let mut e = NpfEngine::new(
            NpfConfig {
                batch_resolution: false,
                ..NpfConfig::default()
            },
            mm,
            SimRng::new(1),
        );
        let s = e.memory_mut().create_space();
        let r = e
            .memory_mut()
            .mmap(s, ByteSize::mib(4), Backing::Anonymous)
            .expect("mmap");
        let d = e.create_channel(s);
        let rec = e
            .begin_fault(SimTime::ZERO, d, r.start.base(), 4 << 20, true, None)
            .expect("fault")
            .clone();
        assert_eq!(rec.range.pages, 1);
        e.complete_fault(rec.id);
        assert!(!e.dma_ready(d, r.start.base(), 4 << 20, true));
        assert!(e.dma_ready(d, r.start.base(), 4096, true));
    }

    #[test]
    fn concurrency_limit_queues_fifth_fault() {
        let (mut e, _s, d, r) = engine();
        let mut readies = Vec::new();
        for i in 0..5 {
            let rec = e
                .begin_fault(
                    SimTime::ZERO,
                    d,
                    Vpn(r.start.0 + i).base(),
                    4096,
                    true,
                    None,
                )
                .expect("fault")
                .clone();
            readies.push(rec.ready_at);
        }
        let min_first_four = readies[..4].iter().min().copied().expect("four");
        assert!(
            readies[4] >= min_first_four + SimDuration::from_micros(150),
            "fifth fault must wait for a slot: {readies:?}"
        );
    }

    fn contended_engine(
        policy: ArbiterPolicy,
        total_slots: u32,
    ) -> (NpfEngine, Vec<(SpaceId, DomainId, PageRange)>) {
        let mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::mib(64),
            ..MemConfig::default()
        });
        let cfg = NpfConfig::default()
            .with_arbiter(policy)
            .with_total_fault_slots(total_slots);
        let mut e = NpfEngine::new(cfg, mm, SimRng::new(1));
        let mut tenants = Vec::new();
        for _ in 0..4 {
            let space = e.memory_mut().create_space();
            let range = e
                .memory_mut()
                .mmap(space, ByteSize::mib(4), Backing::Anonymous)
                .expect("mmap");
            let domain = e.create_channel(space);
            tenants.push((space, domain, range));
        }
        (e, tenants)
    }

    #[test]
    fn round_robin_pool_caps_global_concurrency() {
        let (mut e, tenants) = contended_engine(ArbiterPolicy::RoundRobin, 4);
        // Four channels × 3 faults each at t=0: only 4 may run at once,
        // so later admissions wait even though no channel exceeds its
        // own per-channel limit of 4.
        let mut readies = Vec::new();
        for i in 0..3u64 {
            for &(_, d, r) in &tenants {
                let rec = e
                    .begin_fault(
                        SimTime::ZERO,
                        d,
                        Vpn(r.start.0 + i).base(),
                        4096,
                        true,
                        None,
                    )
                    .expect("fault")
                    .clone();
                readies.push(rec.ready_at);
            }
        }
        let first_wave = readies[..4].iter().max().copied().expect("four");
        assert!(
            readies[11] > first_wave,
            "12th fault must queue behind the pool: {readies:?}"
        );
        assert!(e.counters().get("arb_waits") >= 8);
        let total_queued: u64 = tenants
            .iter()
            .map(|&(_, d, _)| e.arbiter().stats(d).queued)
            .sum();
        assert!(total_queued >= 8, "got {total_queued}");
    }

    /// Sustained mixed load: a heavy tenant (weight 1) oversubscribing
    /// the pool with 12 faults per 300 us round against a light tenant
    /// (weight 3) issuing one. The heavy arrival rate exceeds the
    /// pool's drain rate, so its backlog grows round over round.
    /// Returns the light tenant's worst arbitration wait.
    fn light_tenant_wait(policy: ArbiterPolicy) -> SimDuration {
        let mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::mib(64),
            ..MemConfig::default()
        });
        let cfg = NpfConfig::default()
            .with_arbiter(policy)
            .with_total_fault_slots(8)
            .with_concurrent_faults_per_channel(16);
        let mut e = NpfEngine::new(cfg, mm, SimRng::new(1));
        let mk = |e: &mut NpfEngine| {
            let space = e.memory_mut().create_space();
            let range = e
                .memory_mut()
                .mmap(space, ByteSize::mib(4), Backing::Anonymous)
                .expect("mmap");
            (e.create_channel(space), range)
        };
        let (heavy, heavy_r) = mk(&mut e);
        let (light, light_r) = mk(&mut e);
        e.set_channel_weight(heavy, 1);
        e.set_channel_weight(light, 3);
        for round in 0..6u64 {
            let now = SimTime::ZERO + SimDuration::from_micros(300 * round);
            for i in 0..12u64 {
                e.begin_fault(
                    now,
                    heavy,
                    Vpn(heavy_r.start.0 + round * 12 + i).base(),
                    4096,
                    true,
                    None,
                )
                .expect("fault");
            }
            e.begin_fault(
                now,
                light,
                Vpn(light_r.start.0 + round).base(),
                4096,
                true,
                None,
            )
            .expect("fault");
        }
        e.arbiter().stats(light).max_wait
    }

    #[test]
    fn weighted_fair_bounds_light_tenant_wait() {
        let wf = light_tenant_wait(ArbiterPolicy::WeightedFair);
        let rr = light_tenant_wait(ArbiterPolicy::RoundRobin);
        // Under round-robin the light tenant queues in FIFO behind the
        // heavy tenant's growing backlog; weighted-fair caps the heavy
        // tenant at its share so the light tenant starts within about
        // one service generation (a minor 4 KB fault is 150-350 us).
        assert!(
            wf < rr,
            "weighted-fair must beat round-robin for the light tenant: {wf} vs {rr}"
        );
        assert!(
            wf <= SimDuration::from_micros(400),
            "light tenant starved under weighted-fair: {wf}"
        );
    }

    #[test]
    fn channel_only_ignores_pool() {
        let (mut e, tenants) = contended_engine(ArbiterPolicy::ChannelOnly, 1);
        // Pool of 1 would serialize everything — but ChannelOnly must
        // ignore it: two channels' first faults both start at t=0.
        let (_, d0, r0) = tenants[0];
        let (_, d1, r1) = tenants[1];
        let a = e
            .begin_fault(SimTime::ZERO, d0, r0.start.base(), 4096, true, None)
            .expect("fault")
            .clone();
        let b = e
            .begin_fault(SimTime::ZERO, d1, r1.start.base(), 4096, true, None)
            .expect("fault")
            .clone();
        assert!(a.ready_at < SimTime::from_millis(1));
        assert!(b.ready_at < SimTime::from_millis(1));
        assert_eq!(e.counters().get("arb_waits"), 0);
        assert_eq!(e.arbiter().max_wait(), SimDuration::ZERO);
    }

    #[test]
    fn pending_fault_covering_suppresses_duplicates() {
        let (mut e, _s, d, r) = engine();
        let rec = e
            .begin_fault(SimTime::ZERO, d, r.start.base(), 8192, true, None)
            .expect("fault")
            .clone();
        assert_eq!(
            e.pending_fault_covering(d, r.start.base(), 4096),
            Some(rec.id)
        );
        assert_eq!(
            e.pending_fault_covering(d, Vpn(r.start.0 + 100).base(), 1),
            None
        );
        e.complete_fault(rec.id);
        assert_eq!(e.pending_fault_covering(d, r.start.base(), 4096), None);
    }

    #[test]
    fn reclaim_invalidates_iommu_mappings() {
        // Tiny memory: faulting in new pages evicts old ones, whose
        // IOMMU mappings must disappear.
        let mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::kib(32), // 8 frames
            ..MemConfig::default()
        });
        let mut e = NpfEngine::new(NpfConfig::default(), mm, SimRng::new(1));
        let s = e.memory_mut().create_space();
        let r = e
            .memory_mut()
            .mmap(s, ByteSize::kib(64), Backing::Anonymous)
            .expect("mmap");
        let d = e.create_channel(s);
        // Map the first page via a fault.
        let rec = e
            .begin_fault(SimTime::ZERO, d, r.start.base(), 4096, true, None)
            .expect("fault")
            .clone();
        e.complete_fault(rec.id);
        assert!(e.dma_ready(d, r.start.base(), 1, true));
        // Touch every other page from the CPU until the first is
        // evicted.
        for vpn in r.iter().skip(1) {
            e.touch(s, vpn, true).expect("touch");
        }
        assert!(
            !e.dma_ready(d, r.start.base(), 1, true),
            "stale IOMMU mapping survived reclaim"
        );
        assert!(e.counters().get("invalidations_mapped") >= 1);
    }

    #[test]
    fn pin_and_map_makes_dma_ready() {
        let (mut e, _s, d, r) = engine();
        let sub = PageRange::new(r.start, 16);
        let cost = e.pin_and_map(d, sub).expect("pin");
        assert!(cost > SimDuration::ZERO);
        assert!(e.dma_ready(d, r.start.base(), 16 * 4096, true));
        let uncost = e.unpin_and_unmap(d, sub).expect("unpin");
        assert!(uncost > SimDuration::ZERO);
        assert!(!e.dma_ready(d, r.start.base(), 1, true));
    }

    #[test]
    fn major_faults_cost_disk_time() {
        // Force swapping with tiny memory, then fault a swapped page
        // back via the NPF path.
        let mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::kib(16),
            ..MemConfig::default()
        });
        let mut e = NpfEngine::new(NpfConfig::default(), mm, SimRng::new(1));
        let s = e.memory_mut().create_space();
        let r = e
            .memory_mut()
            .mmap(s, ByteSize::kib(64), Backing::Anonymous)
            .expect("mmap");
        let d = e.create_channel(s);
        for vpn in r.iter() {
            e.touch(s, vpn, true).expect("touch");
        }
        // The first page was swapped out; an NPF on it is major.
        let rec = e
            .begin_fault(SimTime::ZERO, d, r.start.base(), 1, true, None)
            .expect("fault")
            .clone();
        assert!(
            rec.breakdown.total() > SimDuration::from_millis(4),
            "major fault must include disk latency, got {}",
            rec.breakdown.total()
        );
        assert_eq!(e.counters().get("npf_major"), 1);
    }

    fn softemu_engine(
        cfg: crate::backend::SoftEmuConfig,
    ) -> (NpfEngine, SpaceId, DomainId, PageRange) {
        let mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::mib(16),
            ..MemConfig::default()
        });
        let mut e = NpfEngine::new(
            NpfConfig::default().with_backend(BackendSelect::SoftEmu(cfg)),
            mm,
            SimRng::new(1),
        );
        let space = e.memory_mut().create_space();
        let range = e
            .memory_mut()
            .mmap(space, ByteSize::mib(4), Backing::Anonymous)
            .expect("mmap");
        let domain = e.create_channel(space);
        (e, space, domain, range)
    }

    #[test]
    fn softemu_fault_has_no_firmware_events_and_is_faster() {
        let (mut e, _s, d, r) = softemu_engine(crate::backend::SoftEmuConfig::default());
        assert_eq!(e.backend_kind(), BackendKind::SoftEmu);
        let rec = e
            .begin_fault(SimTime::ZERO, d, r.start.base(), 4096, true, None)
            .expect("fault")
            .clone();
        // No firmware: no trigger interrupt, no resume round trip —
        // the software path is far faster than the ~220 us NPF.
        assert_eq!(rec.breakdown.trigger_interrupt, SimDuration::ZERO);
        assert!(
            rec.ready_at < SimTime::from_micros(150),
            "software emulation beats firmware NPF: {}",
            rec.ready_at
        );
        e.complete_fault(rec.id);
        assert!(e.dma_ready(d, r.start.base(), 4096, true));
        assert_eq!(e.counters().get("npf_events"), 1);
        assert_eq!(e.counters().get("softemu_bounces"), 1);
        assert_eq!(e.counters().get("fw_npf_events"), 0);
        assert_eq!(e.counters().get("softemu_copyouts"), 1);
    }

    #[test]
    fn firmware_fault_has_no_softemu_counters() {
        let (mut e, _s, d, r) = engine();
        assert_eq!(e.backend_kind(), BackendKind::Firmware);
        let rec = e
            .begin_fault(SimTime::ZERO, d, r.start.base(), 4096, true, None)
            .expect("fault")
            .clone();
        e.complete_fault(rec.id);
        assert_eq!(e.counters().get("fw_npf_events"), 1);
        assert_eq!(e.counters().get("softemu_bounces"), 0);
        assert_eq!(e.counters().get("softemu_copyouts"), 0);
    }

    #[test]
    fn softemu_pool_exhaustion_backpressures_without_drops() {
        let cfg = crate::backend::SoftEmuConfig::default().with_bounce_buffers(1);
        let (mut e, _s, d, r) = softemu_engine(cfg);
        let mut readies = Vec::new();
        for i in 0..3u64 {
            let rec = e
                .begin_fault(
                    SimTime::ZERO,
                    d,
                    Vpn(r.start.0 + i).base(),
                    4096,
                    true,
                    None,
                )
                .expect("fault")
                .clone();
            readies.push((rec.id, rec.ready_at));
        }
        // Every fault is admitted (no drops), serialized on the single
        // bounce buffer.
        assert_eq!(e.counters().get("npf_events"), 3);
        assert!(readies[0].1 < readies[1].1 && readies[1].1 < readies[2].1);
        assert!(e.counters().get("softemu_pool_waits") >= 2);
        for (id, _) in readies {
            e.complete_fault(id);
        }
        assert_eq!(e.counters().get("softemu_copyouts"), 3);
    }

    #[test]
    fn softemu_copyout_skips_pages_evicted_mid_bounce() {
        // Tiny memory: by the time the bounced fault completes, its
        // target page has been reclaimed — the copy-out must skip it
        // rather than scribble on a reused frame.
        let mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::kib(32), // 8 frames
            ..MemConfig::default()
        });
        let mut e = NpfEngine::new(
            NpfConfig::default().with_backend(BackendSelect::SoftEmu(
                crate::backend::SoftEmuConfig::default(),
            )),
            mm,
            SimRng::new(1),
        );
        let s = e.memory_mut().create_space();
        let r = e
            .memory_mut()
            .mmap(s, ByteSize::kib(64), Backing::Anonymous)
            .expect("mmap");
        let d = e.create_channel(s);
        let rec = e
            .begin_fault(SimTime::ZERO, d, r.start.base(), 4096, true, None)
            .expect("fault")
            .clone();
        // Evict the target page while the bounce is in flight.
        for vpn in r.iter().skip(1) {
            e.touch(s, vpn, true).expect("touch");
        }
        e.complete_fault(rec.id);
        assert_eq!(e.counters().get("softemu_copy_skipped"), 1);
        assert_eq!(e.counters().get("softemu_copyouts"), 0);
        assert!(
            !e.dma_ready(d, r.start.base(), 1, true),
            "no stale mapping may be installed for the evicted page"
        );
    }

    #[test]
    fn pinned_backend_counts_unexpected_faults() {
        let mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::mib(16),
            ..MemConfig::default()
        });
        let mut e = NpfEngine::new(
            NpfConfig::default().with_backend(BackendSelect::Pinned),
            mm,
            SimRng::new(1),
        );
        let s = e.memory_mut().create_space();
        let r = e
            .memory_mut()
            .mmap(s, ByteSize::mib(1), Backing::Anonymous)
            .expect("mmap");
        let d = e.create_channel(s);
        // A properly pinned scenario never faults...
        e.pin_and_map(d, PageRange::new(r.start, 16)).expect("pin");
        assert!(e.dma_ready(d, r.start.base(), 16 * 4096, true));
        assert_eq!(e.counters().get("pinned_unexpected_faults"), 0);
        // ...and a cold access it forgot to pin is visible.
        let rec = e
            .begin_fault(
                SimTime::ZERO,
                d,
                Vpn(r.start.0 + 32).base(),
                4096,
                true,
                None,
            )
            .expect("fault")
            .clone();
        e.complete_fault(rec.id);
        assert_eq!(e.counters().get("pinned_unexpected_faults"), 1);
    }
}

#[cfg(test)]
mod cow_fork_tests {
    use super::*;
    use memsim::manager::MemConfig;
    use memsim::space::Backing;
    use simcore::units::ByteSize;

    /// §5's fork-causes-cold-sequences story, end to end: a DMA-ready
    /// channel loses its mappings when the IOuser forks, and the next
    /// DMA takes an NPF instead of corrupting the now-shared frame.
    #[test]
    fn fork_invalidates_dma_mappings() {
        let mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::mib(32),
            ..MemConfig::default()
        });
        let mut e = NpfEngine::new(NpfConfig::default(), mm, SimRng::new(5));
        let parent = e.memory_mut().create_space();
        let r = e
            .memory_mut()
            .mmap(parent, ByteSize::kib(64), Backing::Anonymous)
            .expect("mmap");
        let d = e.create_channel(parent);
        // Warm the channel: DMA-ready across the whole buffer.
        let rec = e
            .begin_fault(SimTime::ZERO, d, r.start.base(), 64 * 1024, true, None)
            .expect("fault")
            .clone();
        e.complete_fault(rec.id);
        assert!(e.dma_ready(d, r.start.base(), 64 * 1024, true));

        // Fork: the invalidation storm purges the parent's mappings.
        let (child, cost) = e.fork_iouser(parent).expect("fork");
        assert!(
            cost > SimDuration::from_micros(100),
            "16 invalidations cost time"
        );
        assert!(
            !e.dma_ready(d, r.start.base(), 1, true),
            "stale writable mapping must not survive the fork"
        );
        assert!(e.counters().get("invalidations_mapped") >= 16);

        // The cold sequence: the next DMA faults; resolution breaks COW
        // (write fault on a shared page) and the channel re-warms.
        let rec = e
            .begin_fault(SimTime::ZERO, d, r.start.base(), 4096, true, None)
            .expect("refault")
            .clone();
        e.complete_fault(rec.id);
        assert!(e.dma_ready(d, r.start.base(), 4096, true));
        // The child still shares the remaining pages untouched.
        assert_eq!(e.memory().space(child).expect("child").resident_pages(), 16);
    }
}

#[cfg(test)]
mod cow_dma_tests {
    use super::*;
    use memsim::manager::MemConfig;
    use memsim::space::Backing;
    use simcore::units::ByteSize;

    /// A DMA write fault on a COW page breaks the sharing: the channel
    /// maps a *private* frame, never the shared one.
    #[test]
    fn dma_write_fault_breaks_cow() {
        let mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::mib(8),
            ..MemConfig::default()
        });
        let mut e = NpfEngine::new(NpfConfig::default(), mm, SimRng::new(6));
        let parent = e.memory_mut().create_space();
        let r = e
            .memory_mut()
            .mmap(parent, ByteSize::kib(4), Backing::Anonymous)
            .expect("mmap");
        e.memory_mut()
            .touch(parent, r.start, true)
            .expect("populate");
        let (child, _cost) = e.fork_iouser(parent).expect("fork");
        let shared = e.memory().space(child).expect("child").frame_of(r.start);

        // The parent's channel DMA-writes the page.
        let d = e.create_channel(parent);
        let rec = e
            .begin_fault(SimTime::ZERO, d, r.start.base(), 4096, true, None)
            .expect("fault")
            .clone();
        e.complete_fault(rec.id);
        let parent_frame = e.memory().space(parent).expect("parent").frame_of(r.start);
        assert_ne!(
            parent_frame, shared,
            "the DMA target must be a private copy, not the shared frame"
        );
        assert_eq!(
            e.memory().space(child).expect("child").frame_of(r.start),
            shared,
            "the child keeps the original"
        );
        assert!(e.dma_ready(d, r.start.base(), 4096, true));
        assert!(e.counters().get("npf_events") >= 1);
        assert_eq!(e.memory().counters().get("cow_breaks"), 1);
    }
}

#[cfg(test)]
mod huge_prefetch_tests {
    use super::*;
    use memsim::manager::MemConfig;
    use memsim::space::Backing;
    use simcore::units::ByteSize;

    fn engine_with(config: NpfConfig) -> (NpfEngine, SpaceId, DomainId, PageRange) {
        let mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::mib(64),
            ..MemConfig::default()
        });
        let mut e = NpfEngine::new(config, mm, SimRng::new(1));
        let space = e.memory_mut().create_space();
        let range = PageRange::new(Vpn(0), 4096); // 16 MiB, 2 MiB aligned
        e.memory_mut()
            .mmap_fixed(space, range, Backing::Anonymous)
            .expect("mmap");
        let domain = e.create_channel(space);
        (e, space, domain, range)
    }

    #[test]
    fn huge_fault_folds_chunk_and_charges_next_fault() {
        let run = |huge: bool| {
            let (mut e, _s, d, r) = engine_with(NpfConfig::default().with_huge_pages(huge));
            // One batched 2 MiB fault: sequential frame allocation makes
            // the chunk promotable at completion time.
            let rec = e
                .begin_fault(SimTime::ZERO, d, r.start.base(), 2 << 20, true, None)
                .expect("fault")
                .clone();
            e.complete_fault(rec.id);
            let folded = e.counters().get("huge_promotions");
            // The next fault carries the fold's page-table maintenance.
            let rec2 = e
                .begin_fault(
                    SimTime::from_micros(10_000),
                    d,
                    Vpn(512).base(),
                    4096,
                    true,
                    None,
                )
                .expect("fault")
                .clone();
            let latency = rec2.ready_at.saturating_since(SimTime::from_micros(10_000));
            (folded, latency)
        };
        let (folded_on, latency_on) = run(true);
        let (folded_off, latency_off) = run(false);
        assert_eq!(folded_on, 1, "512 resident siblings fold exactly once");
        assert_eq!(folded_off, 0);
        // Same RNG seed and draw sites: the only difference is the
        // deterministic promotion charge (~21 us).
        let delta = latency_on.saturating_sub(latency_off);
        assert!(
            delta >= SimDuration::from_micros(15) && delta <= SimDuration::from_micros(30),
            "promotion charge out of range: {delta}"
        );
    }

    #[test]
    fn folded_translations_serve_dma_and_survive_partial_invalidation() {
        let (mut e, s, d, r) = engine_with(NpfConfig::default().with_huge_pages(true));
        let rec = e
            .begin_fault(SimTime::ZERO, d, r.start.base(), 2 << 20, true, None)
            .expect("fault")
            .clone();
        e.complete_fault(rec.id);
        assert!(e.dma_ready(d, r.start.base(), 2 << 20, true));
        // Revoking one page splits the leaf; the rest stay mapped.
        let cost = e.touch(s, Vpn(7), true).expect("touch");
        let _ = cost;
        let n = e.chaos_evict(1);
        assert!(n >= 1);
        assert_eq!(e.counters().get("huge_demotions"), 1);
        assert!(!e.dma_ready(d, r.start.base(), 2 << 20, true));
    }

    #[test]
    fn stride_stream_prefetches_and_halves_demand_faults() {
        let depth = 32;
        let (mut e, _s, d, _r) = engine_with(NpfConfig::default().with_prefetch_depth(depth));
        let pages_per_fault = 16u64;
        let mut demand = 0u64;
        let mut now = SimTime::ZERO;
        for i in 0..32u64 {
            let addr = Vpn(i * pages_per_fault).base();
            let len = pages_per_fault * 4096;
            now += SimDuration::from_millis(1);
            if e.dma_ready(d, addr, len, true) {
                continue; // prefetched: no NIC fault at all
            }
            if e.pending_fault_covering(d, addr, len).is_some() {
                continue; // in-flight speculative fault absorbs it
            }
            let rec = e
                .begin_fault(now, d, addr, len, true, None)
                .expect("fault")
                .clone();
            demand += 1;
            e.complete_fault(rec.id);
            for (id, _ready) in e.drain_spawned_prefetches() {
                e.complete_fault(id);
            }
        }
        assert!(
            e.counters().get("prefetch_issued") > 0,
            "stride detector must train on a sequential stream"
        );
        assert!(
            demand <= 16,
            "prefetch must absorb at least half the faults: {demand}"
        );
        assert_eq!(e.counters().get("npf_events"), demand);
        assert_eq!(
            e.counters().get("fw_npf_events"),
            demand,
            "speculative faults must not raise firmware NPF events"
        );
        assert!(e.prefetch_hits() > 0);
        e.sync_prefetch_hits();
        assert!(e.counters().get("prefetch_hits") > 0);
    }

    #[test]
    fn prefetch_draws_no_rng_and_skips_fault_slots() {
        // Two identical engines, same seed: one prefetching, one not.
        // The demand faults' jitter draws must align exactly.
        let run = |depth: u32| {
            let (mut e, _s, d, _r) = engine_with(NpfConfig::default().with_prefetch_depth(depth));
            let mut latencies = Vec::new();
            for i in 0..8u64 {
                let now = SimTime::from_micros(i * 1000);
                let rec = e
                    .begin_fault(now, d, Vpn(i * 4).base(), 4 * 4096, true, None)
                    .expect("fault")
                    .clone();
                latencies.push(rec.ready_at.saturating_since(now));
                e.complete_fault(rec.id);
                for (id, _ready) in e.drain_spawned_prefetches() {
                    e.complete_fault(id);
                }
            }
            latencies
        };
        let with_prefetch = run(8);
        let without = run(0);
        assert_eq!(
            with_prefetch, without,
            "speculative faults must not perturb demand draw sites or slots"
        );
    }
}
