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
//! Every fault takes one pipeline, `raise`, whether the NIC raised it
//! ([`NpfEngine::begin_fault`]) or the stride prefetcher predicted it:
//!
//! 1. **resolve** — one pass over the host page tables, then the OS
//!    work per page (allocate, zero-fill, swap in);
//! 2. **plan** — the [`OdpBackend`] prices the service as ordered phase
//!    slices;
//! 3. **admit** — the fault waits its turn: per-channel cap and
//!    cross-channel pool ([`crate::arbiter`]), backend bounce pool,
//!    chaos fate;
//! 4. **record** — trace spans and journal phases, both from the plan's
//!    slices;
//! 5. **pend** — the [`FaultRecord`] joins the in-flight set.
//!
//! The engine is sans-IO: the pipeline computes *when* the fault will
//! be resolved and `complete_fault` applies the IOMMU update; the
//! testbed schedules the completion event.

use std::collections::VecDeque;

use iommu::{DomainId, Iommu, TableMode};
use memsim::manager::{Invalidation, MemError, MemoryManager};
use memsim::space::Pte;
use memsim::types::{PageRange, SpaceId, VirtAddr, Vpn};
use memsim::FrameId;
use simcore::chaos::{invariant, ChaosConfig, ChaosEngine, NpfFate};
use simcore::journal::{self, Phase};
use simcore::rng::SimRng;
use simcore::stats::{CounterId, Counters};
use simcore::time::{SimDuration, SimTime};
use simcore::trace::{self, ArgValue};

use crate::arbiter::{ArbiterPolicy, FaultArbiter};
use crate::backend::{trace_child_name, BackendKind, FaultPlan, FaultRequest, OdpBackend};
use crate::cost::{NpfBreakdown, COST};
use crate::dense_slot;
use crate::prefetch::StridePrefetcher;

/// Engine configuration: the paper's optimizations as toggles, for the
/// ablation benches. Costs are not configured: every engine prices with
/// the calibrated [`COST`].
///
/// Non-exhaustive: construct via [`NpfConfig::default`] and the
/// `with_*` setters so new knobs (arbitration, slot pools) are not
/// breaking changes.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct NpfConfig {
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
    pub backend: BackendKind,
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
            concurrent_faults_per_channel: 4,
            batch_resolution: true,
            firmware_bypass: false,
            arbiter: ArbiterPolicy::ChannelOnly,
            total_fault_slots: 0,
            iotlb_entries: 4096,
            backend: BackendKind::Firmware,
            huge_pages: false,
            prefetch_depth: 0,
        }
    }
}

impl NpfConfig {
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
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
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

/// Who raised a fault — the one input that makes the pipeline's stages
/// differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// The NIC hit a not-present page: every page of the range must
    /// resolve (errors propagate) and the fault waits its turn in the
    /// admit stage.
    Demand,
    /// The stride prefetcher predicted the range. Driver-side
    /// pre-validation, not a NIC event: it maps what it can get without
    /// surfacing an error, skips the per-channel slots,
    /// the arbiter, backend admission and chaos, and draws no RNG — so
    /// enabling prefetch never perturbs the demand path's draw sites.
    Speculative,
}

/// What the resolve stage hands to the rest of the pipeline.
#[derive(Default)]
struct Resolved {
    /// Pages the fault will map at completion, ascending.
    mappings: Vec<(Vpn, FrameId)>,
    /// The memory subsystem's cost: I/O waits plus the invalidation
    /// flow of whatever reclaim revoked along the way.
    os_cost: SimDuration,
    /// Share of `os_cost` spent fetching from the slow tier.
    tier_cost: SimDuration,
    /// A demand fault swapped some page back in.
    major: bool,
}

/// What the admit stage decided: the instants between which the wait
/// phases and the plan's slices tile `[now, ready_at]`.
struct Admission {
    /// Cleared by the per-channel cap.
    chan_start: SimTime,
    /// Cleared by the cross-channel pool.
    arb_start: SimTime,
    /// Service start (the backend had a bounce buffer).
    start: SimTime,
    /// Completion, chaos included.
    ready_at: SimTime,
}

/// Ids of the counters the engine itself bumps (the backend and the
/// prefetcher register their own), resolved once in [`NpfEngine::new`]
/// so the fault and invalidation paths index instead of hashing.
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
    /// every tenant's. Linked by `pend`, unlinked by
    /// `complete_fault`.
    pending_by_domain: Vec<Vec<(u64, PageRange)>>,
    arbiter: FaultArbiter,
    prefetcher: StridePrefetcher,
    next_fault: u64,
    rng: SimRng,
    /// Invariant-note namespace: salts fault ids (and, via the
    /// allocator and IOMMU, frame/domain ids) so engines never alias
    /// inside one process-global checker.
    chaos_ns: u64,
    /// Fault injector for the NPF resolution path (a disabled engine
    /// until [`NpfEngine::set_chaos`] arms one).
    chaos: ChaosEngine,
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
            arbiter: FaultArbiter::new(
                config.arbiter,
                config.total_fault_slots,
                config.concurrent_faults_per_channel,
            ),
            prefetcher: StridePrefetcher::new(config.prefetch_depth, &mut counters),
            next_fault: 0,
            rng,
            chaos_ns: ns,
            chaos: ChaosEngine::new(ChaosConfig::disabled()),
            backend,
            counters,
            ids,
            scratch_ptes: Vec::new(),
            scratch_resident: Vec::new(),
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
        *dense_slot(&mut self.bindings, d) = Some(space);
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
            self.prefetcher.note_probe(domain, range);
        }
        ready
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

    /// Begins resolving an NPF for `addr..addr+len` in `domain`.
    /// Returns the fault record; the caller schedules
    /// `complete_fault(id)` at `record.ready_at`.
    ///
    /// The OS work (allocation, swap-in, reclaim) happens *now*; the
    /// IOMMU mappings are installed at completion. Invalidation costs of
    /// any reclaim are folded into the driver component.
    ///
    /// `_tag` is inert: it once keyed a per-tag latency histogram no
    /// caller ever read. Kept only because the frozen `benchmark/`
    /// spells the argument (same residue as
    /// [`NpfConfig::iotlb_entries`]).
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
        _tag: Option<&'static str>,
    ) -> Result<&FaultRecord, MemError> {
        self.prefetcher.sync_hits(&mut self.counters);
        let mut range = PageRange::covering(addr, len.max(1));
        if !self.config.batch_resolution {
            // ATS/PRI ablation: one page per fault event.
            range.pages = 1;
        }
        let demand = self
            .raise(now, domain, range, write, Origin::Demand)?
            .expect("a demand fault resolves every page of a non-empty range");
        // The demand fault is fully recorded; a speculative fault it
        // triggers gets the next id, so `pending` stays sorted.
        self.speculate(now, domain, range, write);
        Ok(&self.pending[demand])
    }

    /// Trains the stride prefetcher on a demand fault over `range` and
    /// raises a speculative fault for the window it predicts, if any.
    fn speculate(&mut self, now: SimTime, domain: DomainId, range: PageRange, write: bool) {
        let Some(window) = self.prefetcher.observe(domain, range) else {
            return;
        };
        // Already mapped (e.g. by an earlier prefetch), or covered by a
        // demand or speculative fault still in flight.
        if self.iommu.probe_range(domain, window, write)
            || self.pending_overlap(domain, window).is_some()
        {
            return;
        }
        if let Ok(Some(at)) = self.raise(now, domain, window, write, Origin::Speculative) {
            let fault = &self.pending[at];
            self.prefetcher.spawned.push((fault.id, fault.ready_at));
        }
    }

    /// The fault pipeline: resolve → plan → admit → record → pend.
    /// Returns the new fault's index in `pending`; `None` when a
    /// speculation found nothing to map (no fault is raised); a memory
    /// error only for a demand fault.
    fn raise(
        &mut self,
        now: SimTime,
        domain: DomainId,
        range: PageRange,
        write: bool,
        origin: Origin,
    ) -> Result<Option<usize>, MemError> {
        let space = self.space_of(domain);
        // The PTE scratch goes back on every exit, so an OOM does not
        // cost the next fault a reallocation.
        let mut ptes = std::mem::take(&mut self.scratch_ptes);
        let resolved = self.resolve(space, range, write, origin, &mut ptes);
        self.scratch_ptes = ptes;
        let resolved = resolved?;
        if resolved.mappings.is_empty() {
            return Ok(None);
        }
        let plan = self.plan(&resolved, write, origin);
        let admission = self.admit(now, domain, plan.service_time(), origin);
        let fault = FaultRecord {
            id: self.next_fault,
            domain,
            space,
            range,
            write,
            ready_at: admission.ready_at,
            breakdown: plan.breakdown,
            speculative: origin == Origin::Speculative,
            mappings: resolved.mappings,
        };
        self.next_fault += 1;
        self.record(now, &fault, resolved.major, &plan, &admission);
        Ok(Some(self.pend(now, fault)))
    }

    /// Resolve stage: one pass over the page tables for the whole
    /// scatter-gather range (the VMA and each PTE leaf are resolved
    /// once, into `ptes`), then the per-page fault logic on the
    /// collected entries.
    fn resolve(
        &mut self,
        space: SpaceId,
        range: PageRange,
        write: bool,
        origin: Origin,
        ptes: &mut Vec<(Vpn, Pte)>,
    ) -> Result<Resolved, MemError> {
        let demand = origin == Origin::Demand;
        ptes.clear();
        let walked = self
            .mm
            .space(space)?
            .for_each_pte(range, |vpn, pte| ptes.push((vpn, pte)));
        if demand {
            walked?;
        }
        // Else the predicted window ran past its VMA (the end of an rx
        // ring, say): `for_each_pte` reported the covered prefix before
        // erroring, and speculation clamps to that prefix.
        let mut r = Resolved::default();
        for &(vpn, pte) in ptes.iter() {
            let frame = match pte.frame() {
                Some(frame) => frame,
                None => {
                    let res = match self.mm.resolve_fault(space, vpn, write) {
                        Ok(res) => res,
                        Err(e) if demand => return Err(e),
                        // Out of memory: stop speculating, keep what
                        // we have.
                        Err(_) => break,
                    };
                    // Only the I/O share: the driver's own software
                    // costs (per-page translation, PT updates) come
                    // from the calibrated cost model in the plan stage.
                    r.os_cost += res.io_cost;
                    r.tier_cost += res.tier_cost;
                    if demand {
                        // `npf_*` count NIC-raised faults only.
                        if res.kind == memsim::FaultKind::Major {
                            r.major = true;
                            self.counters.bump_id(self.ids.npf_major);
                        }
                        if res.tier_cost > SimDuration::ZERO {
                            self.counters.bump_id(self.ids.npf_tier_fetches);
                        }
                    }
                    // Reclaim may have revoked other pages: purge their
                    // IOMMU mappings now (Figure 2 a–d).
                    for inv in &res.invalidations {
                        r.os_cost += self.run_invalidation(*inv);
                    }
                    res.frame
                }
            };
            r.mappings.push((vpn, frame));
        }
        Ok(r)
    }

    /// Plan stage: the backend prices the fault as an ordered phase
    /// plan plus the synthesized Figure 3 breakdown. The firmware
    /// backend draws its hardware jitter from the engine RNG;
    /// speculative plans draw none (pinned by the backend tests).
    fn plan(&mut self, resolved: &Resolved, write: bool, origin: Origin) -> FaultPlan {
        // Page-table maintenance from huge-page folds/splits since the
        // last fault lands on this fault's OS span.
        let huge_cost = std::mem::replace(&mut self.pending_huge_cost, SimDuration::ZERO);
        let request = FaultRequest {
            // Charge for what will actually be mapped, not the nominal
            // range (a speculative window may have been clamped).
            pages: resolved.mappings.len() as u64,
            os_cost: resolved.os_cost + huge_cost,
            write,
            firmware_bypass: self.config.firmware_bypass,
            speculative: origin == Origin::Speculative,
            tier_cost: resolved.tier_cost,
        };
        self.backend
            .plan(&request, &mut self.rng, &mut self.counters)
    }

    /// Admit stage: when a fault raised at `now` needing `service` time
    /// starts and completes.
    fn admit(
        &mut self,
        now: SimTime,
        domain: DomainId,
        service: SimDuration,
        origin: Origin,
    ) -> Admission {
        if origin == Origin::Speculative {
            return Admission {
                chan_start: now,
                arb_start: now,
                start: now,
                ready_at: now + service,
            };
        }
        // Per-channel cap, then the engine-wide slot pool.
        let (chan_start, arb_start) = self.arbiter.admit(now, domain);
        if arb_start > chan_start {
            self.counters.bump_id(self.ids.arb_waits);
        }
        // Backend-side admission: the software emulation may hold the
        // fault here waiting for a bounce buffer (backpressure, never
        // a drop); firmware passes through.
        let start = self.backend.admit(arb_start, &mut self.counters);
        let ready_at = start + service;
        // Chaos: NPF resolution delay / transient-failure / retry. The
        // perturbed time extends the outstanding slot too, so the
        // concurrency limiter sees the real completion.
        let ready_at = match self.chaos.npf_fate() {
            NpfFate::Normal => ready_at,
            NpfFate::Delay { extra } => {
                self.counters.bump_id(self.ids.npf_chaos_delays);
                ready_at + extra
            }
            NpfFate::Transient {
                retries,
                retry_delay,
            } => {
                self.counters
                    .add_id(self.ids.npf_chaos_retries, u64::from(retries));
                if self.backend.kind() == BackendKind::SoftEmu {
                    self.counters
                        .add_id(self.ids.softemu_retries, u64::from(retries));
                }
                ready_at + self.backend.transient_penalty(retries, retry_delay)
            }
        };
        self.arbiter.commit(domain, ready_at);
        self.backend.commit(ready_at);
        Admission {
            chan_start,
            arb_start,
            start,
            ready_at,
        }
    }

    /// Record stage: the fault's trace span and journal chain, both
    /// laid down from the same `plan.slices`.
    fn record(
        &self,
        now: SimTime,
        fault: &FaultRecord,
        major: bool,
        plan: &FaultPlan,
        admitted: &Admission,
    ) {
        let demand = !fault.speculative;
        let (pages, start, ready_at) = (fault.range.pages, admitted.start, fault.ready_at);
        trace::with(|t| {
            // The fault lifecycle span, decomposed into the backend's
            // service plan: Figure 3's five components (i)–(v) under
            // firmware, validate/bounce/copy under the software
            // emulation. The children tile the parent exactly.
            let mut args = vec![
                ("fault_id", ArgValue::U64(fault.id)),
                ("pages", ArgValue::U64(pages)),
                ("write", ArgValue::Bool(fault.write)),
            ];
            if demand {
                args.push(("major", ArgValue::Bool(major)));
                let queued = start.saturating_since(now);
                args.push(("queued_us", ArgValue::F64(queued.as_micros_f64())));
            }
            let name = if demand { "npf" } else { "npf_prefetch" };
            let parent = t.complete_span(start, plan.service_time(), "npf", name, None, args);
            let mut at = start;
            for &(phase, d) in plan.slices.iter() {
                let child = trace_child_name(phase);
                t.complete_span(at, d, "npf", child, Some(parent), Vec::new());
                at += d;
            }
            if demand {
                let in_flight = (self.pending.len() + 1) as f64;
                t.counter(now, "npf", "pending_faults", in_flight);
                let m = t.metrics_mut();
                m.counter_add("npf.events", 1);
                m.counter_add("npf.pages", pages);
                m.duration_record("npf.latency", ready_at.saturating_since(now));
            } else {
                t.metrics_mut().counter_add("npf.prefetches", 1);
            }
        });
        // The causal journal records the same decomposition as the
        // trace span, plus — for a demand fault — the pre-admission
        // waits and the chaos tail, as typed phases that tile
        // `[now, ready_at]` exactly: their sum IS the end-to-end
        // latency, by construction. A speculative fault has no waits
        // and no chaos, so its slices alone tile the interval.
        journal::with(|j| {
            let key = (self.chaos_ns << 32) | fault.id;
            let domain = u64::from(fault.domain.0);
            j.fault_begun(key, domain, pages, major, now, ready_at);
            if demand {
                // Bounce-pool backpressure is zero-width under firmware.
                let waits = [
                    (Phase::QueueWait, now, admitted.chan_start),
                    (Phase::ArbWait, admitted.chan_start, admitted.arb_start),
                    (Phase::BounceWait, admitted.arb_start, start),
                ];
                for (phase, from, to) in waits {
                    j.phase(key, phase, from, to.saturating_since(from));
                }
            }
            let mut at = start;
            for &(phase, d) in plan.slices.iter() {
                j.phase(key, phase, at, d);
                at += d;
            }
            if demand {
                let chaos_extra = ready_at.saturating_since(at);
                j.phase(key, Phase::ChaosExtra, at, chaos_extra);
            }
        });
    }

    /// Pend stage: tallies the fault and adds it to `pending` and its
    /// domain's index (ids are monotone, so both stay sorted by id).
    /// Returns its index in `pending`.
    fn pend(&mut self, now: SimTime, fault: FaultRecord) -> usize {
        if fault.speculative {
            self.counters.bump_id(self.ids.prefetch_issued);
            self.counters
                .add_id(self.ids.prefetch_pages, fault.mappings.len() as u64);
        } else {
            self.counters.bump_id(self.ids.npf_events);
            self.counters.add_id(self.ids.npf_pages, fault.range.pages);
        }
        invariant::with(|c| c.note_fault_begun((self.chaos_ns << 32) | fault.id, now));
        dense_slot(&mut self.pending_by_domain, fault.domain).push((fault.id, fault.range));
        self.pending.push_back(fault);
        self.pending.len() - 1
    }

    /// Drains the speculative faults issued since the last call; the
    /// testbed schedules `complete_fault(id)` at each `ready_at`.
    pub fn drain_spawned_prefetches(&mut self) -> Vec<(u64, SimTime)> {
        std::mem::take(&mut self.prefetcher.spawned)
    }

    /// Completes a fault: installs the IOMMU mappings so subsequent DMA
    /// succeeds. Call at `ready_at`.
    ///
    /// # Panics
    ///
    /// Panics for unknown fault ids.
    pub fn complete_fault(&mut self, id: u64) -> FaultRecord {
        self.prefetcher.sync_hits(&mut self.counters);
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
        invariant::with(|c| c.note_fault_resolved((self.chaos_ns << 32) | id));
        journal::with(|j| j.fault_resolved((self.chaos_ns << 32) | id));
        trace::with(|t| {
            t.instant(
                record.ready_at,
                "npf",
                "fault_complete",
                vec![
                    ("fault_id", ArgValue::U64(id)),
                    ("pages", ArgValue::U64(record.range.pages)),
                ],
            );
            t.counter(
                record.ready_at,
                "npf",
                "pending_faults",
                self.pending.len() as f64,
            );
        });
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
            self.prefetcher.note_mapped(record.domain, &still_resident);
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
            self.pending_huge_cost += COST.huge_promote() * delta;
            trace::with(|t| {
                t.metrics_mut().counter_add("npf.huge_promotions", delta);
            });
        }
        if demotions > self.seen_demotions {
            let delta = demotions - self.seen_demotions;
            self.seen_demotions = demotions;
            self.counters.add_id(self.ids.huge_demotions, delta);
            self.pending_huge_cost += COST.huge_demote() * delta;
            trace::with(|t| {
                t.metrics_mut().counter_add("npf.huge_demotions", delta);
            });
        }
    }

    /// Arms the NPF-resolution fault injector. The engine draws one
    /// [`NpfFate`] per fault from the injector's dedicated stream.
    pub fn set_chaos(&mut self, chaos: ChaosEngine) {
        self.chaos = chaos;
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
            self.prefetcher.forget(d, inv.vpn);
            cost += COST.invalidation(1, was_mapped).total();
            trace::with(|t| {
                // No `now` in scope (invalidations arrive from MMU
                // notifier callbacks); stamp with the recorder clock.
                t.instant(
                    t.clock(),
                    "npf",
                    "invalidation",
                    vec![
                        ("vpn", ArgValue::U64(inv.vpn.0)),
                        ("was_mapped", ArgValue::Bool(was_mapped)),
                    ],
                );
                t.metrics_mut().counter_add("npf.invalidations", 1);
            });
        }
        // Partial unmaps may have split folded leaves; price them.
        self.absorb_huge_deltas();
        cost
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
        for &inv in access.invalidations() {
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
            for &inv in access.invalidations() {
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
        cost += COST.register_pinned(range.pages);
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
        Ok(COST.deregister_pinned(range.pages))
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
    fn oom_fault_hands_the_pte_scratch_back() {
        let mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::kib(64), // 16 frames
            ..MemConfig::default()
        });
        let mut e = NpfEngine::new(NpfConfig::default(), mm, SimRng::new(1));
        let s = e.memory_mut().create_space();
        let r = e
            .memory_mut()
            .mmap(s, ByteSize::kib(128), Backing::Anonymous)
            .expect("mmap");
        let d = e.create_channel(s);
        // A 16-page fault sizes the scratch and fills the host.
        let filled = PageRange::new(r.start, 16);
        let rec = e
            .begin_fault(SimTime::ZERO, d, r.start.base(), 16 * 4096, true, None)
            .expect("fault")
            .clone();
        e.complete_fault(rec.id);
        let capacity = e.scratch_ptes.capacity();
        assert!(capacity >= 16);
        // With every frame pinned the next fault finds no memory.
        e.memory_mut().pin_range(s, filled).expect("pin");
        let cold = Vpn(r.start.0 + 20).base();
        let oom = e.begin_fault(SimTime::ZERO, d, cold, 4096, true, None);
        assert_eq!(oom.err(), Some(MemError::OutOfMemory));
        assert_eq!(e.pending_count(), 0, "a failed fault is not pending");
        assert_eq!(e.scratch_ptes.capacity(), capacity);
        e.memory_mut().unpin_range(s, filled).expect("unpin");
        e.begin_fault(SimTime::ZERO, d, cold, 4096, true, None)
            .expect("fault");
        assert_eq!(e.scratch_ptes.capacity(), capacity);
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

    fn softemu_engine(config: NpfConfig) -> (NpfEngine, SpaceId, DomainId, PageRange) {
        let mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::mib(16),
            ..MemConfig::default()
        });
        let mut e = NpfEngine::new(
            config.with_backend(BackendKind::SoftEmu),
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
        let (mut e, _s, d, r) = softemu_engine(NpfConfig::default());
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
        // One fault more than the pool holds, all on one channel whose
        // own limit admits them at once: only the pool can hold one back.
        let faults = crate::backend::BOUNCE_BUFFERS + 1;
        let (mut e, _s, d, r) =
            softemu_engine(NpfConfig::default().with_concurrent_faults_per_channel(faults));
        let mut readies = Vec::new();
        for i in 0..u64::from(faults) {
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
        // Every fault is admitted (no drops); the pool serves all but
        // the last at once, and the last waits for a buffer's release.
        assert_eq!(e.counters().get("npf_events"), u64::from(faults));
        let (last, pooled) = readies.split_last().expect("faults raised");
        assert!(pooled.iter().all(|&(_, at)| at == pooled[0].1));
        assert!(last.1 > pooled[0].1);
        assert_eq!(e.counters().get("softemu_pool_waits"), 1);
        for (id, _) in readies {
            e.complete_fault(id);
        }
        assert_eq!(e.counters().get("softemu_copyouts"), u64::from(faults));
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
            NpfConfig::default().with_backend(BackendKind::SoftEmu),
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
            NpfConfig::default().with_backend(BackendKind::Pinned),
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
        e.prefetcher.sync_hits(&mut e.counters);
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
