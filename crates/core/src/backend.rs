//! Pluggable ODP backends: how a not-present DMA target gets serviced.
//!
//! The paper's design assumes firmware NPF support in the NIC
//! ([`FirmwareBackend`], Figure 2/3). NP-RDMA shows the same
//! pinning-free programming model is reachable on commodity NICs with
//! *driver-level software emulation*: validate every DMA address before
//! posting, bounce not-present accesses through a bounded bounce-buffer
//! pool, copy out on resolution, and retry transient misses with
//! exponential backoff ([`SoftEmuBackend`]). [`PinnedBackend`] is the
//! no-ODP baseline: every buffer registered up front, faults are a
//! scenario bug.
//!
//! The [`OdpBackend`] trait carves the fault path of
//! [`crate::npf::NpfEngine::begin_fault`] into the backend-specific
//! parts:
//!
//! * **admission** ([`OdpBackend::admit`]/[`OdpBackend::commit`]) —
//!   backend-side service resources. The software emulation holds a
//!   bounded bounce-buffer pool here; exhaustion is *backpressure*
//!   (the fault waits for a buffer), never a drop.
//! * **the service plan** ([`OdpBackend::plan`]) — an ordered list of
//!   journal [`Phase`] slices whose durations sum to the synthesized
//!   [`NpfBreakdown`]'s total. The firmware plan is Figure 3's
//!   trigger → driver → translate → PT-update → resume chain; the
//!   software plan is validate → driver → translate → PT-update →
//!   copy-out, with no firmware involvement at all.
//! * **transient-miss policy** ([`OdpBackend::transient_penalty`]) —
//!   firmware retries linearly (hardware replays at a fixed cadence);
//!   the emulation backs off exponentially, doubling the driver's
//!   re-validation delay per retry.
//! * **completion** ([`OdpBackend::on_complete`]) — copy-out
//!   accounting: pages evicted mid-bounce are *skipped* (the next
//!   access faults again, which is correct), never copied to a stale
//!   frame.
//!
//! Every backend must uphold the engine's invariants: deterministic
//! given the engine RNG, phase slices that tile the service interval
//! exactly (the journal's exact-sum check), and explainable counters —
//! `fw_npf_events` only ever moves under firmware, `softemu_bounces`
//! only under the emulation.

use simcore::journal::Phase;
use simcore::rng::SimRng;
use simcore::stats::{CounterId, Counters};
use simcore::time::{SimDuration, SimTime};

use crate::cost::{NpfBreakdown, COST};

/// Which ODP backend a scenario runs: what `NpfConfig::backend` holds
/// and `--backend` names. No backend has a tunable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Firmware NPF support in the NIC (the paper's design).
    Firmware,
    /// Driver-level software emulation (NP-RDMA-style bounce + retry).
    SoftEmu,
    /// No ODP: all buffers pinned and registered up front.
    Pinned,
}

impl BackendKind {
    /// Parses a kind's [`BackendKind::as_str`] name, the CLI spelling
    /// of the bench bins (`--backend firmware|softemu|pinned`).
    ///
    /// # Errors
    ///
    /// Returns the unrecognized input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "firmware" => Ok(BackendKind::Firmware),
            "softemu" => Ok(BackendKind::SoftEmu),
            "pinned" => Ok(BackendKind::Pinned),
            other => Err(other.to_owned()),
        }
    }

    /// Stable short name (bench cell keys, reports).
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            BackendKind::Firmware => "firmware",
            BackendKind::SoftEmu => "softemu",
            BackendKind::Pinned => "pinned",
        }
    }

    /// Builds the backend implementation, registering the counters it
    /// bumps in `counters` — the set every later trait call must be
    /// handed.
    #[must_use]
    pub fn build(self, counters: &mut Counters) -> Box<dyn OdpBackend> {
        match self {
            BackendKind::Firmware => Box::new(FirmwareBackend::new(counters)),
            BackendKind::SoftEmu => Box::new(SoftEmuBackend::new(counters)),
            BackendKind::Pinned => Box::new(PinnedBackend::new(counters)),
        }
    }
}

/// Bounce-buffer pool depth of the software emulation. A fault holds
/// one buffer from service start to copy-out; an empty pool
/// backpressures (the fault waits for the earliest release, no drops).
pub(crate) const BOUNCE_BUFFERS: u32 = 64;

/// Fixed cost of the emulation's pre-post address validation check.
const VALIDATE_BASE: SimDuration = SimDuration::from_micros(2);

/// Per-page component of the validation walk.
const VALIDATE_PER_PAGE: SimDuration = SimDuration::from_nanos(60);

/// Cap on exponential-backoff doublings for transient-miss retries
/// (bounds the worst-case penalty).
const MAX_BACKOFF_DOUBLINGS: u32 = 10;

/// One fault's inputs, backend-agnostic: what the engine resolved from
/// the OS before asking the backend to price the service.
#[derive(Debug, Clone, Copy)]
pub struct FaultRequest {
    /// Pages the fault covers (post-batching).
    pub pages: u64,
    /// The memory subsystem's own cost (zero-fill, swap-in,
    /// invalidation propagation), attributed to the OS-translate slice.
    pub os_cost: SimDuration,
    /// Write access?
    pub write: bool,
    /// Firmware-bypass fast resume requested (firmware backend only).
    pub firmware_bypass: bool,
    /// Driver-initiated speculative pre-fault (stride prefetch): no
    /// NIC interrupt, no firmware resume, and — critically — no RNG
    /// draws, so the speculative path leaves the engine's jitter
    /// stream untouched and demand faults price identically whether
    /// or not prefetch is on.
    pub speculative: bool,
    /// Share of `os_cost` spent fetching from the slow memory tier
    /// (NVM); journalled as its own [`Phase::TierMigrate`] slice carved
    /// out of the OS-translate span.
    pub tier_cost: SimDuration,
}

/// The ordered phase slices of one [`FaultPlan`], stored inline — the
/// longest plan (software emulation with a tier fetch) has six — so
/// pricing a fault allocates nothing. Reads like a slice.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSlices {
    len: usize,
    slices: [(Phase, SimDuration); Self::CAPACITY],
}

impl PhaseSlices {
    const CAPACITY: usize = 6;

    fn new() -> Self {
        PhaseSlices {
            len: 0,
            slices: [(Phase::Trigger, SimDuration::ZERO); Self::CAPACITY],
        }
    }

    fn push(&mut self, phase: Phase, duration: SimDuration) {
        self.slices[self.len] = (phase, duration);
        self.len += 1;
    }
}

impl std::ops::Deref for PhaseSlices {
    type Target = [(Phase, SimDuration)];

    fn deref(&self) -> &Self::Target {
        &self.slices[..self.len]
    }
}

/// A backend's service plan for one fault: ordered phase slices whose
/// durations sum exactly to `breakdown.total()` — the engine lays them
/// down back-to-back from the service start, so the journal's
/// exact-sum invariant holds by construction.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Lifecycle slices, in order. Zero-duration slices are kept (the
    /// trace still shows the child span, the critical path skips it).
    pub slices: PhaseSlices,
    /// The Figure 3 breakdown synthesized for reporting. For the
    /// software emulation, `resume` holds the copy-out and
    /// `trigger_interrupt` is zero (no firmware involvement).
    pub breakdown: NpfBreakdown,
}

impl FaultPlan {
    /// Total service time; equals the sum of the slice durations.
    #[must_use]
    pub fn service_time(&self) -> SimDuration {
        self.breakdown.total()
    }
}

/// The backend half of the NPF engine's fault path. See the module
/// docs for the contract each implementation must uphold.
///
/// A backend registers its [`CounterId`]s when it is constructed; the
/// `counters` every method takes must be the set it was constructed
/// with.
pub trait OdpBackend: std::fmt::Debug {
    /// The backend's kind tag.
    fn kind(&self) -> BackendKind;

    /// Earliest service start for a fault cleared (by the per-channel
    /// limiter and the cross-channel arbiter) at `cleared_at`, after
    /// any backend-side admission resource is available. The wait, if
    /// any, is journalled as [`Phase::BounceWait`].
    fn admit(&mut self, cleared_at: SimTime, counters: &mut Counters) -> SimTime;

    /// Prices the fault. Firmware draws its hardware jitter from `rng`
    /// (the engine's stream — draw order is part of the determinism
    /// contract); the software emulation is jitter-free.
    fn plan(&mut self, req: &FaultRequest, rng: &mut SimRng, counters: &mut Counters) -> FaultPlan;

    /// Reserves the admission resource chosen by the last
    /// [`OdpBackend::admit`] until `ready_at`.
    fn commit(&mut self, ready_at: SimTime);

    /// Extra latency for a chaos-injected transient miss of `retries`
    /// attempts at base cadence `retry_delay`.
    fn transient_penalty(&self, retries: u32, retry_delay: SimDuration) -> SimDuration;

    /// Completion-side accounting. `resident_pages` of `total_pages`
    /// survived to resolution; the software emulation copies those out
    /// of the bounce buffer and *skips* pages evicted mid-bounce.
    fn on_complete(&mut self, resident_pages: u64, total_pages: u64, counters: &mut Counters);
}

/// Chrome-trace child-span name for a plan slice. The firmware names
/// predate the backend split and are pinned by the golden traces.
#[must_use]
pub const fn trace_child_name(phase: Phase) -> &'static str {
    match phase {
        Phase::Trigger => "fault_trigger",
        Phase::PtUpdate => "update_hw_pt",
        other => other.name(),
    }
}

/// The paper's firmware NPF path: Figure 3's five components with
/// log-normal hardware jitter, linear transient retries, no admission
/// resource beyond the engine's own limits.
#[derive(Debug, Clone, Copy)]
pub struct FirmwareBackend {
    fw_npf_events: CounterId,
    fw_prefetch_events: CounterId,
}

impl FirmwareBackend {
    /// Creates the backend, registering its counters in `counters`.
    #[must_use]
    pub fn new(counters: &mut Counters) -> Self {
        FirmwareBackend {
            fw_npf_events: counters.register("fw_npf_events"),
            fw_prefetch_events: counters.register("fw_prefetch_events"),
        }
    }
}

/// Appends the OS-translate span, carving out the slow-tier fetch as
/// its own slice when the memory manager reported one. The TierMigrate
/// slice is only emitted when non-zero, so runs without tiering keep
/// their exact golden slice lists.
fn push_os_slices(slices: &mut PhaseSlices, os_span: SimDuration, tier_cost: SimDuration) {
    let tier = if tier_cost < os_span {
        tier_cost
    } else {
        os_span
    };
    slices.push(Phase::OsTranslate, os_span - tier);
    if tier > SimDuration::ZERO {
        slices.push(Phase::TierMigrate, tier);
    }
}

/// Builds the firmware service plan — shared with [`PinnedBackend`],
/// whose unexpected-fault slow path services faults identically.
fn firmware_plan(req: &FaultRequest, rng: &mut SimRng) -> FaultPlan {
    let breakdown = COST.npf(req.pages, req.os_cost, req.firmware_bypass, rng);
    // `driver` = pure driver software + the OS translation work it
    // blocks on; split so trace and journal show both.
    let driver_sw = breakdown.driver.saturating_sub(req.os_cost);
    let os_span = breakdown.driver - driver_sw;
    let mut slices = PhaseSlices::new();
    slices.push(Phase::Trigger, breakdown.trigger_interrupt);
    slices.push(Phase::DriverSw, driver_sw);
    push_os_slices(&mut slices, os_span, req.tier_cost);
    slices.push(Phase::PtUpdate, breakdown.update_hw_pt);
    slices.push(Phase::Resume, breakdown.resume);
    FaultPlan { slices, breakdown }
}

/// Service plan for a driver-initiated speculative pre-fault. The
/// driver pre-validates and pre-maps ahead of the DMA stream (the
/// NP-RDMA idiom): no NIC interrupt, no firmware resume, no hardware
/// jitter — and **no RNG draws**, shared by every backend so the
/// speculative path is invisible to the demand faults' jitter stream.
fn speculative_plan(req: &FaultRequest) -> FaultPlan {
    let pages = req.pages.max(1);
    let issue = COST.prefetch_issue(pages);
    let driver_sw = COST.driver_sw_base + COST.driver_sw_per_page * pages;
    let os_span = req.os_cost;
    let pt_update = COST.update_pt_base + COST.update_pt_per_page * pages;
    let mut slices = PhaseSlices::new();
    slices.push(Phase::Prefetch, issue);
    slices.push(Phase::DriverSw, driver_sw);
    push_os_slices(&mut slices, os_span, req.tier_cost);
    slices.push(Phase::PtUpdate, pt_update);
    FaultPlan {
        slices,
        breakdown: NpfBreakdown {
            trigger_interrupt: SimDuration::ZERO,
            driver: issue + driver_sw + os_span,
            update_hw_pt: pt_update,
            resume: SimDuration::ZERO,
        },
    }
}

impl OdpBackend for FirmwareBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Firmware
    }

    fn admit(&mut self, cleared_at: SimTime, _counters: &mut Counters) -> SimTime {
        cleared_at
    }

    fn plan(&mut self, req: &FaultRequest, rng: &mut SimRng, counters: &mut Counters) -> FaultPlan {
        if req.speculative {
            // Driver-level pre-validation: the NIC never saw a fault,
            // so the firmware event counter must not move.
            counters.bump_id(self.fw_prefetch_events);
            return speculative_plan(req);
        }
        counters.bump_id(self.fw_npf_events);
        firmware_plan(req, rng)
    }

    fn commit(&mut self, _ready_at: SimTime) {}

    fn transient_penalty(&self, retries: u32, retry_delay: SimDuration) -> SimDuration {
        // Hardware replays at a fixed cadence: linear in the retry
        // count.
        SimDuration::from_nanos(retry_delay.as_nanos() * u64::from(retries))
    }

    fn on_complete(&mut self, _resident: u64, _total: u64, _counters: &mut Counters) {}
}

/// NP-RDMA-style driver-level software emulation: validate before
/// posting, bounce through a bounded buffer pool, copy out on
/// resolution, exponential backoff on transient misses. No firmware
/// NPF events at all.
#[derive(Debug)]
pub struct SoftEmuBackend {
    /// Per-buffer release times (busy-until), like the arbiter's slot
    /// servers: earliest-free wins, lowest index on ties.
    pool: Vec<SimTime>,
    /// Buffer chosen by the in-flight `admit`, consumed by `commit`.
    pending_slot: Option<usize>,
    ids: SoftEmuCounterIds,
}

#[derive(Debug, Clone, Copy)]
struct SoftEmuCounterIds {
    softemu_pool_waits: CounterId,
    softemu_prefetches: CounterId,
    softemu_bounces: CounterId,
    softemu_copyouts: CounterId,
    softemu_copy_skipped: CounterId,
}

impl SoftEmuBackend {
    /// Creates the backend with a pool of [`BOUNCE_BUFFERS`], registering
    /// its counters in `counters`.
    #[must_use]
    pub fn new(counters: &mut Counters) -> Self {
        Self::with_pool(BOUNCE_BUFFERS, counters)
    }

    fn with_pool(buffers: u32, counters: &mut Counters) -> Self {
        SoftEmuBackend {
            pool: vec![SimTime::ZERO; buffers as usize],
            pending_slot: None,
            ids: SoftEmuCounterIds {
                softemu_pool_waits: counters.register("softemu_pool_waits"),
                softemu_prefetches: counters.register("softemu_prefetches"),
                softemu_bounces: counters.register("softemu_bounces"),
                softemu_copyouts: counters.register("softemu_copyouts"),
                softemu_copy_skipped: counters.register("softemu_copy_skipped"),
            },
        }
    }
}

impl OdpBackend for SoftEmuBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::SoftEmu
    }

    fn admit(&mut self, cleared_at: SimTime, counters: &mut Counters) -> SimTime {
        // Earliest-free bounce buffer, lowest index on ties
        // (deterministic). Exhaustion backpressures: the fault waits
        // for the earliest release instead of dropping.
        let (idx, &busy) = self
            .pool
            .iter()
            .enumerate()
            .min_by_key(|&(i, &t)| (t, i))
            .expect("pool is non-empty");
        self.pending_slot = Some(idx);
        let start = cleared_at.max(busy);
        if start > cleared_at {
            counters.bump_id(self.ids.softemu_pool_waits);
        }
        start
    }

    fn plan(&mut self, req: &FaultRequest, rng: &mut SimRng, counters: &mut Counters) -> FaultPlan {
        let _ = rng; // the software path is jitter-free by design
        if req.speculative {
            // Pre-validation needs no bounce buffer: no DMA is in
            // flight, the driver is mapping ahead of the stream.
            counters.bump_id(self.ids.softemu_prefetches);
            return speculative_plan(req);
        }
        counters.bump_id(self.ids.softemu_bounces);
        let pages = req.pages.max(1);
        let validate = VALIDATE_BASE + VALIDATE_PER_PAGE * pages;
        let driver_sw = COST.driver_sw_base + COST.driver_sw_per_page * pages;
        let os_span = req.os_cost;
        // Host IOMMU table update only — no NIC coherency traffic, no
        // hardware jitter.
        let pt_update = COST.update_pt_base + COST.update_pt_per_page * pages;
        let copy_out = COST.memcpy(pages * 4096);
        let mut slices = PhaseSlices::new();
        slices.push(Phase::Validate, validate);
        slices.push(Phase::DriverSw, driver_sw);
        push_os_slices(&mut slices, os_span, req.tier_cost);
        slices.push(Phase::PtUpdate, pt_update);
        slices.push(Phase::CopyOut, copy_out);
        FaultPlan {
            slices,
            breakdown: NpfBreakdown {
                trigger_interrupt: SimDuration::ZERO,
                driver: validate + driver_sw + os_span,
                update_hw_pt: pt_update,
                resume: copy_out,
            },
        }
    }

    fn commit(&mut self, ready_at: SimTime) {
        if let Some(i) = self.pending_slot.take() {
            self.pool[i] = ready_at;
        }
    }

    fn transient_penalty(&self, retries: u32, retry_delay: SimDuration) -> SimDuration {
        // Exponential backoff: the driver doubles its re-validation
        // delay per miss, capped to bound the worst case.
        // Σ_{i=0}^{n-1} retry_delay·2^i = retry_delay·(2^n − 1).
        let n = retries.min(MAX_BACKOFF_DOUBLINGS);
        SimDuration::from_nanos(retry_delay.as_nanos().saturating_mul((1u64 << n) - 1))
    }

    fn on_complete(&mut self, resident: u64, total: u64, counters: &mut Counters) {
        counters.add_id(self.ids.softemu_copyouts, resident);
        if total > resident {
            // Target pages evicted mid-bounce: never copy to a stale
            // frame — skip, and let the next access fault again.
            counters.add_id(self.ids.softemu_copy_skipped, total - resident);
        }
    }
}

/// The no-ODP baseline: every buffer pinned and registered up front,
/// so `begin_fault` should never run. When it does (a cold access a
/// scenario forgot to pin), the fault is serviced on the firmware slow
/// path and counted as `pinned_unexpected_faults` so conformance
/// checks can assert the scenario really was pinned.
#[derive(Debug, Clone, Copy)]
pub struct PinnedBackend {
    pinned_prefetches: CounterId,
    pinned_unexpected_faults: CounterId,
}

impl PinnedBackend {
    /// Creates the backend, registering its counters in `counters`.
    #[must_use]
    pub fn new(counters: &mut Counters) -> Self {
        PinnedBackend {
            pinned_prefetches: counters.register("pinned_prefetches"),
            pinned_unexpected_faults: counters.register("pinned_unexpected_faults"),
        }
    }
}

impl OdpBackend for PinnedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Pinned
    }

    fn admit(&mut self, cleared_at: SimTime, _counters: &mut Counters) -> SimTime {
        cleared_at
    }

    fn plan(&mut self, req: &FaultRequest, rng: &mut SimRng, counters: &mut Counters) -> FaultPlan {
        if req.speculative {
            // A pinned scenario has nothing to pre-map; price it as a
            // plain speculative no-op plan without touching the
            // unexpected-fault counter.
            counters.bump_id(self.pinned_prefetches);
            return speculative_plan(req);
        }
        counters.bump_id(self.pinned_unexpected_faults);
        firmware_plan(req, rng)
    }

    fn commit(&mut self, _ready_at: SimTime) {}

    fn transient_penalty(&self, retries: u32, retry_delay: SimDuration) -> SimDuration {
        SimDuration::from_nanos(retry_delay.as_nanos() * u64::from(retries))
    }

    fn on_complete(&mut self, _resident: u64, _total: u64, _counters: &mut Counters) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [BackendKind; 3] = [
        BackendKind::Firmware,
        BackendKind::SoftEmu,
        BackendKind::Pinned,
    ];

    fn req(pages: u64) -> FaultRequest {
        FaultRequest {
            pages,
            os_cost: SimDuration::from_micros(3),
            write: true,
            firmware_bypass: false,
            speculative: false,
            tier_cost: SimDuration::ZERO,
        }
    }

    #[test]
    fn kind_parse_roundtrips() {
        for kind in KINDS {
            assert_eq!(BackendKind::parse(kind.as_str()), Ok(kind));
        }
        for unlisted in ["quantum", "fw", "npf", "soft", "emu", "pin"] {
            assert_eq!(BackendKind::parse(unlisted), Err(unlisted.to_owned()));
        }
    }

    #[test]
    fn plans_tile_their_breakdown_exactly() {
        let mut rng = SimRng::new(7);
        let mut counters = Counters::new();
        for kind in KINDS {
            let mut b = kind.build(&mut counters);
            for pages in [1, 16, 1024] {
                let plan = b.plan(&req(pages), &mut rng, &mut counters);
                let sum = plan
                    .slices
                    .iter()
                    .fold(SimDuration::ZERO, |acc, &(_, d)| acc + d);
                assert_eq!(sum, plan.service_time(), "{kind:?} pages={pages}");
            }
        }
    }

    #[test]
    fn firmware_plan_matches_cost_model_draws() {
        // The backend must consume the RNG exactly like the direct
        // CostModel call — the golden traces depend on it.
        let mut counters = Counters::new();
        let mut rng_a = SimRng::new(42);
        let mut rng_b = SimRng::new(42);
        let mut fw = FirmwareBackend::new(&mut counters);
        let plan = fw.plan(&req(4), &mut rng_a, &mut counters);
        let direct = COST.npf(4, SimDuration::from_micros(3), false, &mut rng_b);
        assert_eq!(plan.breakdown, direct);
        assert_eq!(counters.get("fw_npf_events"), 1);
        assert_eq!(counters.get("softemu_bounces"), 0);
    }

    #[test]
    fn softemu_is_deterministic_and_firmware_free() {
        let mut counters = Counters::new();
        let mut b = SoftEmuBackend::new(&mut counters);
        let mut rng = SimRng::new(1);
        let p1 = b.plan(&req(8), &mut rng, &mut counters);
        let p2 = b.plan(&req(8), &mut rng, &mut counters);
        assert_eq!(p1.breakdown, p2.breakdown, "jitter-free");
        assert_eq!(p1.breakdown.trigger_interrupt, SimDuration::ZERO);
        assert_eq!(counters.get("softemu_bounces"), 2);
        assert_eq!(counters.get("fw_npf_events"), 0);
        // The synthesized resume slot holds the copy-out.
        assert_eq!(p1.breakdown.resume, COST.memcpy(8 * 4096));
    }

    #[test]
    fn bounce_pool_backpressures_without_drops() {
        let mut counters = Counters::new();
        let mut b = SoftEmuBackend::with_pool(2, &mut counters);
        let t0 = SimTime::ZERO;
        // Two buffers absorb two faults immediately...
        let s1 = b.admit(t0, &mut counters);
        b.commit(SimTime::from_micros(100));
        let s2 = b.admit(t0, &mut counters);
        b.commit(SimTime::from_micros(150));
        assert_eq!(s1, t0);
        assert_eq!(s2, t0);
        // ...the third waits for the earliest release — backpressure,
        // not a drop.
        let s3 = b.admit(t0, &mut counters);
        assert_eq!(s3, SimTime::from_micros(100));
        assert_eq!(counters.get("softemu_pool_waits"), 1);
        b.commit(SimTime::from_micros(220));
    }

    #[test]
    fn transient_backoff_is_exponential_and_capped() {
        let mut counters = Counters::new();
        let b = SoftEmuBackend::new(&mut counters);
        let d = SimDuration::from_micros(10);
        assert_eq!(b.transient_penalty(0, d), SimDuration::ZERO);
        assert_eq!(b.transient_penalty(1, d), d);
        assert_eq!(b.transient_penalty(3, d), SimDuration::from_micros(70));
        // Capped at 2^10 − 1 doublings' worth.
        assert_eq!(
            b.transient_penalty(40, d),
            SimDuration::from_micros(10 * 1023)
        );
        let fw = FirmwareBackend::new(&mut counters);
        assert_eq!(fw.transient_penalty(3, d), SimDuration::from_micros(30));
    }

    #[test]
    fn copyout_skips_evicted_pages() {
        let mut counters = Counters::new();
        let mut b = SoftEmuBackend::new(&mut counters);
        b.on_complete(5, 8, &mut counters);
        assert_eq!(counters.get("softemu_copyouts"), 5);
        assert_eq!(counters.get("softemu_copy_skipped"), 3);
    }

    #[test]
    fn speculative_plans_draw_no_rng_and_skip_firmware_counters() {
        let mut counters = Counters::new();
        let mut rng = SimRng::new(99);
        let mut witness = SimRng::new(99);
        let spec = FaultRequest {
            speculative: true,
            ..req(8)
        };
        for kind in KINDS {
            let mut b = kind.build(&mut counters);
            let plan = b.plan(&spec, &mut rng, &mut counters);
            let sum = plan
                .slices
                .iter()
                .fold(SimDuration::ZERO, |acc, &(_, d)| acc + d);
            assert_eq!(sum, plan.service_time(), "{kind:?} tiles exactly");
            assert_eq!(plan.breakdown.trigger_interrupt, SimDuration::ZERO);
            assert_eq!(plan.breakdown.resume, SimDuration::ZERO);
            assert_eq!(plan.slices[0].0, Phase::Prefetch);
        }
        // No backend consumed the engine's jitter stream.
        let d = SimDuration::from_micros(100);
        assert_eq!(
            rng.lognormal_jitter(d, 0.08),
            witness.lognormal_jitter(d, 0.08)
        );
        assert_eq!(counters.get("fw_npf_events"), 0);
        assert_eq!(counters.get("fw_prefetch_events"), 1);
        assert_eq!(counters.get("softemu_prefetches"), 1);
        assert_eq!(counters.get("softemu_bounces"), 0);
        assert_eq!(counters.get("pinned_unexpected_faults"), 0);
    }

    #[test]
    fn tier_cost_is_carved_out_of_the_os_slice() {
        let mut counters = Counters::new();
        let mut rng = SimRng::new(5);
        let mut fw = FirmwareBackend::new(&mut counters);
        let tiered = FaultRequest {
            os_cost: SimDuration::from_micros(90),
            tier_cost: SimDuration::from_micros(80),
            ..req(4)
        };
        let plan = fw.plan(&tiered, &mut rng, &mut counters);
        let os = plan
            .slices
            .iter()
            .find(|(p, _)| *p == Phase::OsTranslate)
            .expect("os slice")
            .1;
        let tier = plan
            .slices
            .iter()
            .find(|(p, _)| *p == Phase::TierMigrate)
            .expect("tier slice")
            .1;
        assert_eq!(tier, SimDuration::from_micros(80));
        assert_eq!(os + tier, SimDuration::from_micros(90));
        // The breakdown (and thus total latency) is what it always
        // was: the tier slice re-labels time, it does not add any.
        let mut rng2 = SimRng::new(5);
        let untier = fw.plan(
            &FaultRequest {
                os_cost: SimDuration::from_micros(90),
                ..req(4)
            },
            &mut rng2,
            &mut counters,
        );
        assert_eq!(plan.breakdown, untier.breakdown);
        // Without a tier cost, no TierMigrate slice appears at all
        // (golden slice lists stay stable).
        assert!(!untier.slices.iter().any(|(p, _)| *p == Phase::TierMigrate));
    }

    /// `PhaseSlices::push` panics past `CAPACITY`: a backend that grows
    /// a phase must raise it, and this names the constant to raise.
    #[test]
    fn the_longest_plan_of_every_backend_fits_the_inline_slices() {
        let mut counters = Counters::new();
        let mut rng = SimRng::new(5);
        let mut longest = 0;
        for kind in KINDS {
            let mut b = kind.build(&mut counters);
            for speculative in [false, true] {
                // A tier fetch splits the OS span: the most slices a
                // request can ask for.
                let tiered = FaultRequest {
                    os_cost: SimDuration::from_micros(90),
                    tier_cost: SimDuration::from_micros(80),
                    speculative,
                    ..req(4)
                };
                let plan = b.plan(&tiered, &mut rng, &mut counters);
                longest = longest.max(plan.slices.len());
            }
        }
        assert_eq!(longest, PhaseSlices::CAPACITY);
    }

    #[test]
    fn trace_names_pin_the_golden_firmware_children() {
        assert_eq!(trace_child_name(Phase::Trigger), "fault_trigger");
        assert_eq!(trace_child_name(Phase::DriverSw), "driver_sw");
        assert_eq!(trace_child_name(Phase::OsTranslate), "os_translate");
        assert_eq!(trace_child_name(Phase::PtUpdate), "update_hw_pt");
        assert_eq!(trace_child_name(Phase::Resume), "resume");
        assert_eq!(trace_child_name(Phase::Validate), "validate");
        assert_eq!(trace_child_name(Phase::CopyOut), "copy_out");
    }
}
