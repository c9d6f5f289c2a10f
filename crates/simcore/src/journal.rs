//! # journal — causal fault-lifecycle observability
//!
//! The trace ring ([`crate::trace`]) records flat spans per subsystem;
//! nothing connects the packet that *caused* a network page fault to
//! the arbiter wait, page-table walk, backing-store fetch, and replay
//! that *resolved* it. This module adds that causal layer:
//!
//! * a copy-cheap [`CauseId`] (tenant + packet provenance) threaded
//!   from packet arrival through the NIC, NPF engine, IOMMU, and
//!   memory manager;
//! * a per-fault [`FaultJournal`] of typed [`Phase`] slices whose
//!   durations **sum exactly** to the fault's end-to-end latency
//!   (Figure 3's (i)–(v) decomposition, plus queue/arbiter/chaos
//!   phases), and a stream of [`Mark`] annotations (evictions,
//!   backing fetches, replay drains) keyed by cause;
//! * deterministic **critical-path extraction** (the longest blocking
//!   chain of a fault, phase-attributed) and a per-tenant, per-phase
//!   **tail attribution report** for the p50/p99/p999 faults;
//! * Chrome-trace *flow events* (`ph: "s"/"t"/"f"`) so Perfetto draws
//!   causal arrows from packet arrival to fault resolution;
//! * an SLO watchdog ([`JournalWatchdog`]) that flags faults whose
//!   latency exceeds a sim-time budget, shipping the causal chain.
//!
//! Like the trace ring, the journal is one of the thread's
//! [`crate::instruments`], reached through [`with`], so the disabled
//! path is one `Cell` read. Recorders merge with
//! [`JournalRecorder::absorb`] in task order with `(time, seq)` event
//! rebasing — parallel runs stay byte-identical to serial ones at every
//! `--jobs` value.

use std::fmt::Write as _;

use crate::fxhash::FxHashMap;
use crate::instruments;
use crate::time::{SimDuration, SimTime};
use crate::trace::{self, fmt_us, ArgValue};

/// Provenance of a fault: which tenant's traffic and which packet (a
/// per-run monotonic sequence number) triggered it. `Copy` and two
/// words wide, so threading it through hot paths costs nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CauseId {
    /// Tenant (IOchannel) index, [`CauseId::NO_TENANT`] when unknown.
    pub tenant: u32,
    /// Packet sequence number within the run, 0 when not packet-born.
    pub packet: u64,
}

impl CauseId {
    /// Sentinel tenant for causes with no tenant attribution
    /// (driver-internal faults, warmup traffic).
    pub const NO_TENANT: u32 = u32::MAX;

    /// A cause with no provenance at all.
    pub const UNKNOWN: CauseId = CauseId {
        tenant: Self::NO_TENANT,
        packet: 0,
    };

    /// A cause attributed to `tenant` only.
    #[must_use]
    pub const fn tenant(tenant: u32) -> Self {
        CauseId { tenant, packet: 0 }
    }
}

/// Identifier of one journalled fault, unique within a merged
/// recorder. Rebased on [`JournalRecorder::absorb`] exactly like trace
/// span ids, so ids are deterministic in task order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JournalId(pub u64);

/// One phase of a fault's lifecycle. The fifteen phases tile the
/// interval `[begun, resolved_at]` with no gaps or overlaps, so their
/// durations sum exactly to the end-to-end latency. The firmware NPF
/// backend uses the trigger/driver/translate/update/resume chain
/// (Figure 3's (i)–(v)); the software-emulation backend replaces the
/// hardware trigger and resume with validate/bounce/copy slices;
/// speculative pre-faults open with a `Prefetch` issue slice and
/// tier-migration fetches carve a `TierMigrate` slice out of the OS
/// share. Transport stalls (retransmission timeouts, PFC pauses) are
/// journalled as standalone single-slice records through
/// [`JournalRecorder::wait_event`], so they keep the tile-exactly
/// contract trivially.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Waiting for a per-channel fault slot (outstanding-limit queue).
    QueueWait,
    /// Waiting for the cross-channel arbiter to grant a global slot.
    ArbWait,
    /// Driver-level DMA address validation before posting (software
    /// emulation only — the NP-RDMA-style pre-post check).
    Validate,
    /// Waiting for a bounce buffer from the bounded pool (software
    /// emulation backpressure).
    BounceWait,
    /// Driver-side issue of a speculative pre-fault (stride prefetch;
    /// no NIC interrupt, no firmware resume).
    Prefetch,
    /// Hardware fault trigger + interrupt delivery (Fig. 3 phase i).
    Trigger,
    /// IOprovider driver software, minus the OS part (phase ii).
    DriverSw,
    /// OS page-in: page-table walk, backing-store fetch, invalidation
    /// (phases iii–iv's OS share).
    OsTranslate,
    /// Fetching the page from the slow memory tier (NVM) instead of
    /// swap — tiered backing store migration time.
    TierMigrate,
    /// Updating the device page tables (phase iv's HW share).
    PtUpdate,
    /// Resuming the stalled DMA (phase v).
    Resume,
    /// Copying bounced data out to the now-resident target pages
    /// (software emulation only).
    CopyOut,
    /// Time a QP spent stalled on a loss-driven retransmission timeout
    /// (selective-repeat or go-back-N); recorded as a standalone
    /// single-slice journal record, not part of an NPF chain.
    RetransmitWait,
    /// Time a link spent paused by PFC back-pressure (802.3x-style
    /// pause frames); also a standalone single-slice record.
    PauseWait,
    /// Chaos-injected perturbation (delays, transient retries).
    ChaosExtra,
}

impl Phase {
    /// Every phase, in lifecycle order. Attribution tables iterate
    /// this, so column order is fixed.
    pub const ALL: [Phase; 15] = [
        Phase::QueueWait,
        Phase::ArbWait,
        Phase::Validate,
        Phase::BounceWait,
        Phase::Prefetch,
        Phase::Trigger,
        Phase::DriverSw,
        Phase::OsTranslate,
        Phase::TierMigrate,
        Phase::PtUpdate,
        Phase::Resume,
        Phase::CopyOut,
        Phase::RetransmitWait,
        Phase::PauseWait,
        Phase::ChaosExtra,
    ];

    /// Stable short name (column header / event name).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Phase::QueueWait => "queue_wait",
            Phase::ArbWait => "arb_wait",
            Phase::Validate => "validate",
            Phase::BounceWait => "bounce_wait",
            Phase::Prefetch => "prefetch",
            Phase::Trigger => "trigger",
            Phase::DriverSw => "driver_sw",
            Phase::OsTranslate => "os_translate",
            Phase::TierMigrate => "tier_migrate",
            Phase::PtUpdate => "pt_update",
            Phase::Resume => "resume",
            Phase::CopyOut => "copy_out",
            Phase::RetransmitWait => "retransmit_wait",
            Phase::PauseWait => "pause_wait",
            Phase::ChaosExtra => "chaos_extra",
        }
    }
}

/// One contiguous slice of a fault's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSlice {
    /// Which phase this slice belongs to.
    pub phase: Phase,
    /// When the phase began.
    pub start: SimTime,
    /// How long it lasted (zero-duration slices are kept: the table
    /// still shows the column, the critical path skips them).
    pub duration: SimDuration,
}

/// Kinds of causal annotations emitted by the subsystems a fault
/// flows through. Marks attach to a [`CauseId`], not a fault id, so
/// producers (NIC rx, IOMMU, memory manager) need no fault handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MarkKind {
    /// A packet arrived from the fabric (netsim delivery).
    PacketArrival,
    /// The NIC steered a faulting packet to the backup ring.
    RxBackupDivert,
    /// The NIC dropped a faulting packet (drop mode / overflow).
    RxDrop,
    /// The memory manager fetched a page from the backing store
    /// (detail = vpn).
    BackingFetch,
    /// The memory manager evicted a page (detail = vpn).
    Eviction,
    /// The backup-ring driver merged a parked packet back (replay
    /// drain; detail = packet length).
    ReplayDrain,
    /// 512 resident 4 KiB siblings were folded into a 2 MiB leaf
    /// (detail = chunk base vpn).
    HugePromote,
    /// A 2 MiB leaf was split back into 4 KiB PTEs (detail = chunk
    /// base vpn).
    HugeDemote,
    /// A page migrated between memory tiers (detail = vpn).
    TierMigrate,
}

impl MarkKind {
    /// Stable short name (event name in exports).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            MarkKind::PacketArrival => "packet_arrival",
            MarkKind::RxBackupDivert => "rx_backup_divert",
            MarkKind::RxDrop => "rx_drop",
            MarkKind::BackingFetch => "backing_fetch",
            MarkKind::Eviction => "eviction",
            MarkKind::ReplayDrain => "replay_drain",
            MarkKind::HugePromote => "huge_promote",
            MarkKind::HugeDemote => "huge_demote",
            MarkKind::TierMigrate => "tier_migrate",
        }
    }
}

/// One causal annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    /// When it happened.
    pub time: SimTime,
    /// Global event sequence (rebased on merge; total order with
    /// `time` as the primary key).
    pub seq: u64,
    /// Whose traffic caused it.
    pub cause: CauseId,
    /// What happened.
    pub kind: MarkKind,
    /// Kind-specific detail (levels, vpn, bytes).
    pub detail: u64,
}

/// The journal of one fault, from admit to resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultJournal {
    /// Merged-recorder-unique id.
    pub id: JournalId,
    /// Provenance.
    pub cause: CauseId,
    /// IOMMU domain the fault occurred in.
    pub domain: u64,
    /// Pages the fault covers.
    pub pages: u64,
    /// Whether a backing-store fetch was required (major fault).
    pub major: bool,
    /// Event sequence at admit (total order across the journal).
    pub seq: u64,
    /// When the fault was admitted (`begin_fault`'s `now`).
    pub begun: SimTime,
    /// When the resolution completes.
    pub ready_at: SimTime,
    /// `true` once `complete_fault` closed the chain.
    pub resolved: bool,
    /// Lifecycle slices, in time order, tiling `[begun, ready_at]`.
    pub phases: Vec<PhaseSlice>,
}

impl FaultJournal {
    /// End-to-end latency (admit to resolution).
    #[must_use]
    pub fn latency(&self) -> SimDuration {
        self.ready_at.saturating_since(self.begun)
    }

    /// Sum of all phase durations. Equal to [`FaultJournal::latency`]
    /// by construction; [`JournalRecorder::unbalanced_faults`] checks.
    #[must_use]
    pub fn phase_sum(&self) -> SimDuration {
        self.phases
            .iter()
            .fold(SimDuration::ZERO, |acc, p| acc + p.duration)
    }

    /// Duration attributed to `phase` (zero when absent).
    #[must_use]
    pub fn phase_total(&self, phase: Phase) -> SimDuration {
        self.phases
            .iter()
            .filter(|p| p.phase == phase)
            .fold(SimDuration::ZERO, |acc, p| acc + p.duration)
    }

    /// The fault's critical path: its non-empty slices in time order.
    /// Phases are strictly sequential per fault (the NPF pipeline
    /// never overlaps them), so the longest blocking chain is the
    /// chain of all blocking slices.
    #[must_use]
    pub fn critical_path(&self) -> Vec<PhaseSlice> {
        self.phases
            .iter()
            .copied()
            .filter(|p| p.duration > SimDuration::ZERO)
            .collect()
    }

    /// The phase that dominates the critical path (earliest wins
    /// ties, so the answer is deterministic).
    #[must_use]
    pub fn dominant_phase(&self) -> Phase {
        let mut best = Phase::QueueWait;
        let mut best_d = SimDuration::ZERO;
        for p in &self.phases {
            if p.duration > best_d {
                best = p.phase;
                best_d = p.duration;
            }
        }
        best
    }
}

/// SLO watchdog configuration: any fault whose end-to-end latency
/// exceeds `budget` is recorded as a [`SloHit`] (and, when the trace
/// ring is recording, emitted as a structured instant event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalWatchdog {
    /// Maximum tolerated fault latency.
    pub budget: SimDuration,
}

/// One watchdog violation, with enough context to print the causal
/// chain without the full journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloHit {
    /// The offending fault.
    pub fault: JournalId,
    /// Its provenance.
    pub cause: CauseId,
    /// Its domain.
    pub domain: u64,
    /// Its end-to-end latency.
    pub latency: SimDuration,
    /// The budget it broke.
    pub budget: SimDuration,
}

/// The journal recorder. Like [`crate::trace::TraceRecorder`], the
/// worker pool runs each task under a fresh one and
/// [`JournalRecorder::absorb`]s them into the caller's in task order.
#[derive(Debug)]
pub struct JournalRecorder {
    faults: Vec<FaultJournal>,
    marks: Vec<Mark>,
    /// Open (admitted, unresolved) faults: caller key → index.
    open: FxHashMap<u64, usize>,
    next_id: u64,
    seq: u64,
    clock: SimTime,
    cause: CauseId,
    watchdog: Option<JournalWatchdog>,
    slo_hits: Vec<SloHit>,
}

impl Default for JournalRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl JournalRecorder {
    /// Creates an empty recorder with no watchdog.
    #[must_use]
    pub fn new() -> Self {
        JournalRecorder {
            faults: Vec::new(),
            marks: Vec::new(),
            open: FxHashMap::default(),
            next_id: 0,
            seq: 0,
            clock: SimTime::ZERO,
            cause: CauseId::UNKNOWN,
            watchdog: None,
            slo_hits: Vec::new(),
        }
    }

    /// Arms the SLO watchdog.
    pub fn set_watchdog(&mut self, watchdog: JournalWatchdog) {
        self.watchdog = Some(watchdog);
    }

    /// The armed SLO watchdog, if any (shard workers copy it onto
    /// their per-LP recorders).
    #[must_use]
    pub fn watchdog(&self) -> Option<JournalWatchdog> {
        self.watchdog
    }

    /// Advances the recorder's notion of now (monotone, like the trace
    /// clock).
    pub fn set_clock(&mut self, now: SimTime) {
        if now > self.clock {
            self.clock = now;
        }
    }

    /// Restarts the clock at zero for a new timeline; see
    /// [`instruments::note_timeline_reset`].
    pub(crate) fn reset_clock(&mut self) {
        self.clock = SimTime::ZERO;
    }

    /// Sets the current cause context; subsequent faults and marks
    /// inherit it.
    pub fn set_cause(&mut self, cause: CauseId) {
        self.cause = cause;
    }

    /// Clears the cause context back to [`CauseId::UNKNOWN`].
    pub fn clear_cause(&mut self) {
        self.cause = CauseId::UNKNOWN;
    }

    /// All journalled faults, in admit order.
    #[must_use]
    pub fn faults(&self) -> &[FaultJournal] {
        &self.faults
    }

    /// All marks, in emit order.
    #[must_use]
    pub fn marks(&self) -> &[Mark] {
        &self.marks
    }

    /// Watchdog violations, in resolve order.
    #[must_use]
    pub fn slo_hits(&self) -> &[SloHit] {
        &self.slo_hits
    }

    /// Admitted faults whose chain was never closed by
    /// [`JournalRecorder::fault_resolved`] — the chaos-sweep
    /// completeness invariant requires zero after quiescence.
    #[must_use]
    pub fn incomplete_faults(&self) -> usize {
        self.faults.iter().filter(|f| !f.resolved).count()
    }

    /// Faults whose phase durations do not sum to their end-to-end
    /// latency. Always zero unless an instrumentation site is buggy.
    #[must_use]
    pub fn unbalanced_faults(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| f.phase_sum() != f.latency())
            .count()
    }

    /// Opens a fault journal under the caller-chosen `key` (unique
    /// among this recorder's open faults; the NPF engine uses its
    /// namespaced fault id). The current cause context is captured.
    pub fn fault_begun(
        &mut self,
        key: u64,
        domain: u64,
        pages: u64,
        major: bool,
        begun: SimTime,
        ready_at: SimTime,
    ) -> JournalId {
        let id = JournalId(self.next_id);
        self.next_id += 1;
        let seq = self.seq;
        self.seq += 1;
        self.open.insert(key, self.faults.len());
        self.faults.push(FaultJournal {
            id,
            cause: self.cause,
            domain,
            pages,
            major,
            seq,
            begun,
            ready_at,
            resolved: false,
            phases: Vec::with_capacity(Phase::ALL.len()),
        });
        id
    }

    /// Appends one lifecycle slice to the open fault `key`. No-op for
    /// unknown keys (the fault may predate the recorder's install).
    pub fn phase(&mut self, key: u64, phase: Phase, start: SimTime, duration: SimDuration) {
        if let Some(&idx) = self.open.get(&key) {
            self.faults[idx].phases.push(PhaseSlice {
                phase,
                start,
                duration,
            });
        }
    }

    /// Closes the fault chain opened under `key`, running the
    /// watchdog. No-op for unknown keys.
    pub fn fault_resolved(&mut self, key: u64) {
        let Some(idx) = self.open.remove(&key) else {
            return;
        };
        let f = &mut self.faults[idx];
        f.resolved = true;
        let (id, cause, domain, latency, ready_at) =
            (f.id, f.cause, f.domain, f.latency(), f.ready_at);
        if let Some(w) = self.watchdog {
            if latency > w.budget {
                self.slo_hits.push(SloHit {
                    fault: id,
                    cause,
                    domain,
                    latency,
                    budget: w.budget,
                });
                trace::with(|t| {
                    t.instant(
                        ready_at,
                        "journal",
                        "slo_violation",
                        vec![
                            ("fault", ArgValue::U64(id.0)),
                            ("tenant", ArgValue::U64(u64::from(cause.tenant))),
                            ("latency_ns", ArgValue::U64(latency.as_nanos())),
                            ("budget_ns", ArgValue::U64(w.budget.as_nanos())),
                        ],
                    );
                });
            }
        }
    }

    /// Records a standalone transport stall — a retransmission timeout
    /// or a PFC pause — as a born-resolved journal record with a single
    /// phase slice spanning exactly `[start, end]`. The slice tiles its
    /// own interval, so the tile-exactly invariant holds trivially and
    /// the stall shows up in phase totals and the attribution table
    /// without joining any NPF chain. Zero-length stalls are dropped.
    /// The watchdog does not apply: stalls are not faults with an SLO.
    pub fn wait_event(&mut self, phase: Phase, start: SimTime, end: SimTime) {
        if end <= start {
            return;
        }
        let id = JournalId(self.next_id);
        self.next_id += 1;
        let seq = self.seq;
        self.seq += 1;
        self.faults.push(FaultJournal {
            id,
            cause: self.cause,
            domain: 0,
            pages: 0,
            major: false,
            seq,
            begun: start,
            ready_at: end,
            resolved: true,
            phases: vec![PhaseSlice {
                phase,
                start,
                duration: end.saturating_since(start),
            }],
        });
    }

    /// Emits a causal annotation at `time` under the current cause.
    pub fn mark_at(&mut self, time: SimTime, kind: MarkKind, detail: u64) {
        let seq = self.seq;
        self.seq += 1;
        self.marks.push(Mark {
            time,
            seq,
            cause: self.cause,
            kind,
            detail,
        });
    }

    /// Emits a causal annotation at the recorder clock.
    pub fn mark(&mut self, kind: MarkKind, detail: u64) {
        self.mark_at(self.clock, kind, detail);
    }

    /// Merges `other` (a completed task's recorder) into `self`,
    /// rebasing journal ids and event sequence numbers — the same
    /// contract as [`crate::trace::TraceRecorder::absorb`]: merging in
    /// task order yields byte-identical journals at every `--jobs`
    /// value.
    pub fn absorb(&mut self, other: JournalRecorder) {
        let id_base = self.next_id;
        let seq_base = self.seq;
        for mut f in other.faults {
            f.id = JournalId(id_base + f.id.0);
            f.seq += seq_base;
            self.faults.push(f);
        }
        for mut m in other.marks {
            m.seq += seq_base;
            self.marks.push(m);
        }
        for mut h in other.slo_hits {
            h.fault = JournalId(id_base + h.fault.0);
            self.slo_hits.push(h);
        }
        self.next_id = id_base + other.next_id;
        self.seq = seq_base + other.seq;
        self.set_clock(other.clock);
        if self.watchdog.is_none() {
            self.watchdog = other.watchdog;
        }
    }

    /// Renders the journal as Chrome trace-event JSON: one `X` span
    /// per non-empty phase slice (track = the fault's tenant), flow
    /// events (`s`/`t`/`f`) tying each fault's packet provenance,
    /// admit, and resolution together, and `i` instants for marks.
    /// Events are ordered by `(time, seq)`, then fault id — fully
    /// deterministic.
    #[must_use]
    pub fn export_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |out: &mut String, line: String| {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            out.push_str(&line);
        };
        // Process metadata so Perfetto names the track.
        push(
            &mut out,
            "{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"journal\"}}"
                .to_string(),
        );
        let mut faults: Vec<&FaultJournal> = self.faults.iter().collect();
        faults.sort_by_key(|f| (f.begun, f.seq));
        for f in &faults {
            let tid = tenant_tid(f.cause.tenant);
            // Flow start at admit...
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"s\",\"pid\":2,\"tid\":{tid},\"cat\":\"fault\",\
                     \"name\":\"fault\",\"id\":{},\"ts\":{}}}",
                    f.id.0,
                    fmt_us(f.begun.as_nanos())
                ),
            );
            for p in &f.phases {
                if p.duration == SimDuration::ZERO {
                    continue;
                }
                push(
                    &mut out,
                    format!(
                        "{{\"ph\":\"X\",\"pid\":2,\"tid\":{tid},\"cat\":\"fault\",\
                         \"name\":\"{}\",\"ts\":{},\"dur\":{},\"args\":{{\"fault\":{},\
                         \"tenant\":{},\"packet\":{},\"domain\":{}}}}}",
                        p.phase.name(),
                        fmt_us(p.start.as_nanos()),
                        fmt_us(p.duration.as_nanos()),
                        f.id.0,
                        i64::from(f.cause.tenant as i32),
                        f.cause.packet,
                        f.domain
                    ),
                );
            }
            // ...flow finish at resolution.
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":2,\"tid\":{tid},\
                     \"cat\":\"fault\",\"name\":\"fault\",\"id\":{},\"ts\":{}}}",
                    f.id.0,
                    fmt_us(f.ready_at.as_nanos())
                ),
            );
        }
        let mut marks: Vec<&Mark> = self.marks.iter().collect();
        marks.sort_by_key(|m| (m.time, m.seq));
        for m in &marks {
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"i\",\"pid\":2,\"tid\":{},\"s\":\"t\",\"cat\":\"cause\",\
                     \"name\":\"{}\",\"ts\":{},\"args\":{{\"packet\":{},\"detail\":{}}}}}",
                    tenant_tid(m.cause.tenant),
                    m.kind.name(),
                    fmt_us(m.time.as_nanos()),
                    m.cause.packet,
                    m.detail
                ),
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// The per-tenant, per-phase tail attribution table, plus the
    /// aggregate phase totals, the exact-sum self-check, and watchdog
    /// hits — one deterministic string, byte-stable across `--jobs`.
    ///
    /// For each tenant (ascending; unattributed faults last under
    /// tenant `-`), the table shows the p50, p99, and p999 faults by
    /// end-to-end latency (nearest-rank over that tenant's faults),
    /// with every phase in nanoseconds, the total, and the dominant
    /// critical-path phase.
    #[must_use]
    pub fn attribution_report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "journal: {} faults ({} incomplete, {} unbalanced), {} marks, {} slo hits",
            self.faults.len(),
            self.incomplete_faults(),
            self.unbalanced_faults(),
            self.marks.len(),
            self.slo_hits.len()
        );
        // Aggregate phase totals.
        let mut totals = [SimDuration::ZERO; Phase::ALL.len()];
        for f in &self.faults {
            for (slot, phase) in totals.iter_mut().zip(Phase::ALL) {
                *slot += f.phase_total(phase);
            }
        }
        out.push_str("phase totals [ns]:");
        for (slot, phase) in totals.iter().zip(Phase::ALL) {
            let _ = write!(out, " {}={}", phase.name(), slot.as_nanos());
        }
        out.push('\n');
        // Per-tenant percentile rows.
        let mut by_tenant: FxHashMap<u32, Vec<usize>> = FxHashMap::default();
        for (i, f) in self.faults.iter().enumerate() {
            by_tenant.entry(f.cause.tenant).or_default().push(i);
        }
        let mut tenants: Vec<u32> = by_tenant.keys().copied().collect();
        tenants.sort_unstable();
        let _ = writeln!(
            out,
            "{:>7} {:>5} {:>6} {:>10} {:>10} {:>10} {:>11} {:>10} {:>10} {:>10} {:>12} {:>12} {:>10} {:>10} {:>10} {:>12} {:>10} {:>10} {:>12}  dominant",
            "tenant",
            "pct",
            "fault",
            "queue",
            "arb",
            "validate",
            "bounce_wait",
            "prefetch",
            "trigger",
            "driver",
            "os_translate",
            "tier_migrate",
            "pt_upd",
            "resume",
            "copy_out",
            "retrans_wait",
            "pause_wait",
            "chaos",
            "total_ns"
        );
        for tenant in tenants {
            let mut idxs = by_tenant.remove(&tenant).expect("key present");
            // Sort by (latency, id): deterministic pick under ties.
            idxs.sort_by_key(|&i| (self.faults[i].latency(), self.faults[i].id));
            let n = idxs.len();
            for (label, q) in [("p50", 0.50_f64), ("p99", 0.99), ("p999", 0.999)] {
                #[allow(clippy::cast_sign_loss, clippy::cast_precision_loss)]
                let rank = ((q * n as f64).ceil() as usize).max(1) - 1;
                let f = &self.faults[idxs[rank.min(n - 1)]];
                let tenant_label = if tenant == CauseId::NO_TENANT {
                    "-".to_string()
                } else {
                    tenant.to_string()
                };
                let _ = writeln!(
                    out,
                    "{:>7} {:>5} {:>6} {:>10} {:>10} {:>10} {:>11} {:>10} {:>10} {:>10} {:>12} {:>12} {:>10} {:>10} {:>10} {:>12} {:>10} {:>10} {:>12}  {}",
                    tenant_label,
                    label,
                    f.id.0,
                    f.phase_total(Phase::QueueWait).as_nanos(),
                    f.phase_total(Phase::ArbWait).as_nanos(),
                    f.phase_total(Phase::Validate).as_nanos(),
                    f.phase_total(Phase::BounceWait).as_nanos(),
                    f.phase_total(Phase::Prefetch).as_nanos(),
                    f.phase_total(Phase::Trigger).as_nanos(),
                    f.phase_total(Phase::DriverSw).as_nanos(),
                    f.phase_total(Phase::OsTranslate).as_nanos(),
                    f.phase_total(Phase::TierMigrate).as_nanos(),
                    f.phase_total(Phase::PtUpdate).as_nanos(),
                    f.phase_total(Phase::Resume).as_nanos(),
                    f.phase_total(Phase::CopyOut).as_nanos(),
                    f.phase_total(Phase::RetransmitWait).as_nanos(),
                    f.phase_total(Phase::PauseWait).as_nanos(),
                    f.phase_total(Phase::ChaosExtra).as_nanos(),
                    f.latency().as_nanos(),
                    f.dominant_phase().name()
                );
            }
        }
        out
    }

    /// Watchdog hits rendered one per line with their causal chain —
    /// the payload the chaos invariant dump ships.
    #[must_use]
    pub fn slo_report(&self) -> String {
        let mut out = String::new();
        for h in &self.slo_hits {
            let tenant = if h.cause.tenant == CauseId::NO_TENANT {
                "-".to_string()
            } else {
                h.cause.tenant.to_string()
            };
            let chain = self
                .faults
                .iter()
                .find(|f| f.id == h.fault)
                .map(|f| {
                    f.critical_path()
                        .iter()
                        .map(|p| format!("{}={}", p.phase.name(), p.duration.as_nanos()))
                        .collect::<Vec<_>>()
                        .join(" -> ")
                })
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "slo violation: fault {} tenant {tenant} packet {} domain {} \
                 latency {}ns budget {}ns chain: {chain}",
                h.fault.0,
                h.cause.packet,
                h.domain,
                h.latency.as_nanos(),
                h.budget.as_nanos()
            );
        }
        out
    }
}

/// Chrome-trace thread id for a tenant: tenant index + 1 (tid 0 is
/// the metadata row); unattributed causes share the last tid.
fn tenant_tid(tenant: u32) -> u64 {
    if tenant == CauseId::NO_TENANT {
        u64::from(u32::MAX)
    } else {
        u64::from(tenant) + 1
    }
}

/// `true` when a journal recorder is installed on this thread. The
/// disabled path of every instrumentation site is this single read.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    instruments::has(instruments::JOURNAL)
}

/// Runs `f` against the installed recorder, if any.
#[inline]
pub fn with<R>(f: impl FnOnce(&mut JournalRecorder) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    instruments::SLOT.with(|s| s.journal.borrow_mut().as_mut().map(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_fault(
        j: &mut JournalRecorder,
        key: u64,
        tenant: u32,
        begun_ns: u64,
        phase_ns: [u64; 15],
    ) {
        j.set_cause(CauseId::tenant(tenant));
        let begun = SimTime::from_nanos(begun_ns);
        let total: u64 = phase_ns.iter().sum();
        let ready = begun + SimDuration::from_nanos(total);
        j.fault_begun(key, u64::from(tenant), 1, true, begun, ready);
        let mut t = begun;
        for (phase, ns) in Phase::ALL.into_iter().zip(phase_ns) {
            let d = SimDuration::from_nanos(ns);
            j.phase(key, phase, t, d);
            t += d;
        }
        j.fault_resolved(key);
    }

    #[test]
    fn phase_sums_equal_latency_exactly() {
        let mut j = JournalRecorder::new();
        record_fault(
            &mut j,
            1,
            0,
            100,
            [5, 0, 0, 0, 0, 100, 10, 250, 0, 20, 90, 0, 0, 0, 0],
        );
        record_fault(
            &mut j,
            2,
            1,
            900,
            [0, 40, 0, 0, 0, 100, 10, 0, 0, 20, 90, 0, 0, 0, 7],
        );
        assert_eq!(j.unbalanced_faults(), 0);
        assert_eq!(j.incomplete_faults(), 0);
        let f = &j.faults()[0];
        assert_eq!(f.latency(), SimDuration::from_nanos(475));
        assert_eq!(f.phase_sum(), f.latency());
        assert_eq!(f.dominant_phase(), Phase::OsTranslate);
    }

    #[test]
    fn critical_path_drops_empty_slices_keeps_order() {
        let mut j = JournalRecorder::new();
        record_fault(
            &mut j,
            1,
            0,
            0,
            [5, 0, 0, 0, 0, 100, 10, 250, 0, 20, 90, 0, 0, 0, 0],
        );
        let path = j.faults()[0].critical_path();
        let names: Vec<&str> = path.iter().map(|p| p.phase.name()).collect();
        assert_eq!(
            names,
            vec![
                "queue_wait",
                "trigger",
                "driver_sw",
                "os_translate",
                "pt_update",
                "resume"
            ]
        );
        // Slices tile without gaps.
        for w in path.windows(2) {
            assert_eq!(w[0].start + w[0].duration, w[1].start);
        }
    }

    #[test]
    fn absorb_rebases_ids_and_seq_in_task_order() {
        let tasks = || {
            let mut a = JournalRecorder::new();
            record_fault(
                &mut a,
                1,
                0,
                0,
                [1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            );
            a.mark_at(SimTime::from_nanos(1), MarkKind::Eviction, 7);
            let mut b = JournalRecorder::new();
            record_fault(
                &mut b,
                1,
                1,
                50,
                [0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            );
            b.mark_at(SimTime::from_nanos(51), MarkKind::BackingFetch, 9);
            [a, b]
        };
        let merge = || {
            let mut merged = JournalRecorder::new();
            for task in tasks() {
                merged.absorb(task);
            }
            merged
        };

        let merged = merge();
        assert_eq!(merged.faults().len(), 2);
        assert_eq!(merged.faults()[0].id, JournalId(0));
        assert_eq!(merged.faults()[1].id, JournalId(1));
        assert!(merged.faults()[0].seq < merged.faults()[1].seq);
        assert_eq!(merged.marks().len(), 2);
        assert!(merged.marks()[0].seq < merged.marks()[1].seq);
        // Same tasks, same order => byte-identical renderings.
        let merged2 = merge();
        assert_eq!(merged.attribution_report(), merged2.attribution_report());
        assert_eq!(merged.export_chrome_json(), merged2.export_chrome_json());
    }

    #[test]
    fn watchdog_flags_over_budget_faults_with_chain() {
        let mut j = JournalRecorder::new();
        j.set_watchdog(JournalWatchdog {
            budget: SimDuration::from_nanos(100),
        });
        record_fault(
            &mut j,
            1,
            3,
            0,
            [0, 0, 0, 0, 0, 50, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        ); // under
        record_fault(
            &mut j,
            2,
            4,
            0,
            [0, 200, 0, 0, 0, 50, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        ); // over
        assert_eq!(j.slo_hits().len(), 1);
        let hit = j.slo_hits()[0];
        assert_eq!(hit.cause.tenant, 4);
        assert_eq!(hit.latency, SimDuration::from_nanos(250));
        let report = j.slo_report();
        assert!(report.contains("tenant 4"), "{report}");
        assert!(report.contains("arb_wait=200 -> trigger=50"), "{report}");
    }

    #[test]
    fn incomplete_fault_is_counted_until_resolved() {
        let mut j = JournalRecorder::new();
        j.fault_begun(9, 0, 1, false, SimTime::ZERO, SimTime::from_nanos(10));
        assert_eq!(j.incomplete_faults(), 1);
        j.fault_resolved(9);
        assert_eq!(j.incomplete_faults(), 0);
        // Unknown keys are ignored.
        j.fault_resolved(1234);
        j.phase(1234, Phase::Trigger, SimTime::ZERO, SimDuration::ZERO);
        assert_eq!(j.faults().len(), 1);
    }

    #[test]
    fn export_has_flow_and_phase_events() {
        let mut j = JournalRecorder::new();
        j.set_cause(CauseId {
            tenant: 2,
            packet: 77,
        });
        j.mark_at(SimTime::ZERO, MarkKind::PacketArrival, 1500);
        record_fault(
            &mut j,
            1,
            2,
            10,
            [0, 0, 0, 0, 0, 100, 10, 250, 0, 20, 90, 0, 0, 0, 0],
        );
        let json = j.export_chrome_json();
        assert!(json.contains("\"ph\":\"s\""), "{json}");
        assert!(json.contains("\"ph\":\"f\""), "{json}");
        assert!(json.contains("\"name\":\"os_translate\""), "{json}");
        assert!(json.contains("\"name\":\"packet_arrival\""), "{json}");
        assert!(
            !json.contains("\"name\":\"queue_wait\""),
            "zero-width phase skipped: {json}"
        );
    }

    #[test]
    fn install_roundtrip_and_disabled_path() {
        use crate::instruments::Instruments;

        assert!(!enabled());
        assert!(with(|j| j.mark(MarkKind::Eviction, 1)).is_none());
        let installed = Instruments {
            journal: Some(JournalRecorder::new()),
            ..Instruments::default()
        };
        assert!(installed.install().is_empty());
        assert!(enabled());
        with(|j| {
            j.set_cause(CauseId::tenant(5));
            j.mark_at(SimTime::from_nanos(3), MarkKind::Eviction, 42);
        });
        let rec = Instruments::take().journal.expect("installed");
        assert!(!enabled());
        assert_eq!(rec.marks().len(), 1);
        assert_eq!(rec.marks()[0].cause.tenant, 5);
    }

    #[test]
    fn attribution_report_groups_tenants_in_order() {
        let mut j = JournalRecorder::new();
        record_fault(
            &mut j,
            1,
            1,
            0,
            [0, 0, 0, 0, 0, 100, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        );
        record_fault(
            &mut j,
            2,
            0,
            0,
            [0, 0, 0, 0, 0, 300, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        );
        record_fault(
            &mut j,
            3,
            0,
            0,
            [0, 0, 0, 0, 0, 200, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        );
        let report = j.attribution_report();
        let t0 = report.find("\n      0 ").expect("tenant 0 row");
        let t1 = report.find("\n      1 ").expect("tenant 1 row");
        assert!(t0 < t1, "tenants ascend:\n{report}");
        assert!(report.contains("0 unbalanced"), "{report}");
        // p50 of tenant 0's two faults is the 200ns one; p99/p999 the
        // 300ns one.
        assert!(report.contains(" p50 "), "{report}");
        assert!(report.contains(" p999 "), "{report}");
    }

    #[test]
    fn prefetch_and_tier_phases_balance_and_report() {
        let mut j = JournalRecorder::new();
        // A speculative pre-fault: prefetch issue + driver/OS work, no
        // trigger/resume (driver-initiated, no NIC interrupt).
        record_fault(
            &mut j,
            1,
            0,
            0,
            [0, 0, 0, 0, 2000, 0, 10, 250, 0, 20, 0, 0, 0, 0, 0],
        );
        // A demand fault whose backing fetch hit the slow tier.
        record_fault(
            &mut j,
            2,
            0,
            0,
            [5, 0, 0, 0, 0, 100, 10, 50, 80000, 20, 90, 0, 0, 0, 0],
        );
        assert_eq!(j.unbalanced_faults(), 0);
        let spec = &j.faults()[0];
        assert_eq!(
            spec.phase_total(Phase::Prefetch),
            SimDuration::from_nanos(2000)
        );
        assert_eq!(spec.phase_total(Phase::Trigger), SimDuration::ZERO);
        let tiered = &j.faults()[1];
        assert_eq!(tiered.dominant_phase(), Phase::TierMigrate);
        let report = j.attribution_report();
        assert!(report.contains("prefetch"), "{report}");
        assert!(report.contains("tier_migrate"), "{report}");
        let json = j.export_chrome_json();
        assert!(json.contains("\"name\":\"prefetch\""), "{json}");
        assert!(json.contains("\"name\":\"tier_migrate\""), "{json}");
    }

    #[test]
    fn softemu_phases_balance_and_report() {
        let mut j = JournalRecorder::new();
        // A software-emulation chain: validate, bounce-pool wait,
        // driver + OS work, PT update, copy-out — no trigger/resume.
        record_fault(
            &mut j,
            1,
            0,
            0,
            [5, 0, 30, 120, 0, 0, 10, 250, 0, 20, 0, 80, 0, 0, 0],
        );
        assert_eq!(j.unbalanced_faults(), 0);
        let f = &j.faults()[0];
        assert_eq!(f.phase_total(Phase::Validate), SimDuration::from_nanos(30));
        assert_eq!(
            f.phase_total(Phase::BounceWait),
            SimDuration::from_nanos(120)
        );
        assert_eq!(f.phase_total(Phase::CopyOut), SimDuration::from_nanos(80));
        assert_eq!(f.phase_total(Phase::Trigger), SimDuration::ZERO);
        let names: Vec<&str> = f.critical_path().iter().map(|p| p.phase.name()).collect();
        assert_eq!(
            names,
            vec![
                "queue_wait",
                "validate",
                "bounce_wait",
                "driver_sw",
                "os_translate",
                "pt_update",
                "copy_out"
            ]
        );
        let report = j.attribution_report();
        assert!(report.contains("bounce_wait"), "{report}");
        assert!(report.contains("copy_out"), "{report}");
        let json = j.export_chrome_json();
        assert!(json.contains("\"name\":\"validate\""), "{json}");
        assert!(json.contains("\"name\":\"copy_out\""), "{json}");
    }

    #[test]
    fn wait_events_tile_exactly_and_report() {
        let mut j = JournalRecorder::new();
        j.set_cause(CauseId::tenant(3));
        j.wait_event(
            Phase::RetransmitWait,
            SimTime::from_nanos(100),
            SimTime::from_nanos(600),
        );
        j.wait_event(
            Phase::PauseWait,
            SimTime::from_nanos(700),
            SimTime::from_nanos(900),
        );
        // Zero-length stalls are dropped.
        j.wait_event(
            Phase::PauseWait,
            SimTime::from_nanos(900),
            SimTime::from_nanos(900),
        );
        assert_eq!(j.faults().len(), 2);
        assert_eq!(j.incomplete_faults(), 0);
        assert_eq!(j.unbalanced_faults(), 0);
        let retx = &j.faults()[0];
        assert_eq!(retx.latency(), SimDuration::from_nanos(500));
        assert_eq!(
            retx.phase_total(Phase::RetransmitWait),
            SimDuration::from_nanos(500)
        );
        assert_eq!(retx.dominant_phase(), Phase::RetransmitWait);
        assert_eq!(retx.cause.tenant, 3);
        let report = j.attribution_report();
        assert!(report.contains("retransmit_wait=500"), "{report}");
        assert!(report.contains("pause_wait=200"), "{report}");
        assert!(report.contains("retrans_wait"), "{report}");
        // Wait events never trip the SLO watchdog.
        let mut w = JournalRecorder::new();
        w.set_watchdog(JournalWatchdog {
            budget: SimDuration::from_nanos(10),
        });
        w.wait_event(
            Phase::RetransmitWait,
            SimTime::ZERO,
            SimTime::from_nanos(500),
        );
        assert!(w.slo_hits().is_empty());
    }
}
