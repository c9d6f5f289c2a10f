//! # simcore::chaos — seeded fault injection + global invariant checking
//!
//! Two halves, both threaded through the whole stack:
//!
//! 1. **Fault injection.** A [`ChaosEngine`] draws typed per-class
//!    fates ([`PacketFate`], [`InterruptFate`], [`NpfFate`],
//!    [`MemoryFate`]) from per-class [`SimRng`] streams
//!    forked from a single chaos seed, so the same seed replays the
//!    exact same fault schedule. Every class fires at fixed rates (the
//!    constants below and [`CHAOS_TICK`]); a [`ChaosConfig`] only picks
//!    the seed and which classes are armed. Injection points, one per
//!    class:
//!    packet drop/corrupt/duplicate/reorder around the beds'
//!    `netsim` sends ([`PacketFate::arrivals`]), lost and delayed
//!    interrupts in `nicsim::interrupt`, NPF resolution
//!    delay/transient-failure/retry in `core::npf`, and memory-pressure
//!    bursts and eviction storms in `memsim::manager`.
//!
//! 2. **Invariant checking.** An [`InvariantChecker`], one of the
//!    thread's [`crate::instruments`], receives `note_*` observations
//!    from every crate through [`invariant::with`] and evaluates
//!    cross-crate predicates at event dispatch: exactly-once in-order
//!    delivery per RC QP, the backup ring never silently overflowing, no
//!    IOMMU PTE mapping a frame the memory manager has freed, sim-time
//!    monotonicity, and every raised NPF eventually resolved.
//!    On violation the checker dumps the trace ring for the failing
//!    seed.
//!
//! Chaos off is a disabled engine, not a second path: each fault class
//! has one draw site, and an engine built from
//! [`ChaosConfig::disabled`] answers every draw with the no-fault fate
//! without touching its streams. Both halves cost one branch per site
//! when disabled, and the chaos RNG is seeded independently of the
//! simulation seed, so a run with chaos disabled is bit-identical to a
//! build without this module at all (the zero-overhead disabled path
//! the golden-trace tests pin down).

use std::collections::HashMap;
use std::fmt::Debug;

use crate::rng::SimRng;
use crate::stats::Counters;
use crate::time::{SimDuration, SimTime};
use crate::trace;

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Which fault classes an engine arms, and the seed of its schedule.
/// The rates of every class are the constants below: a config names a
/// [`ChaosProfile`] (one class or all four), so a bad rate or a zero
/// tick cannot be expressed.
///
/// The seed is *independent* of the simulation seed: a testbed with
/// chaos disabled draws nothing from any chaos stream, so its existing
/// RNG streams — and therefore its golden traces — are untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed of the chaos schedule (forked per fault class).
    pub seed: u64,
    profile: Option<ChaosProfile>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig::disabled()
    }
}

impl ChaosConfig {
    /// Chaos off: every class inert. The canonical default.
    #[must_use]
    pub const fn disabled() -> Self {
        ChaosConfig {
            seed: 0,
            profile: None,
        }
    }

    /// The named profile armed with `seed`.
    #[must_use]
    pub const fn profile(profile: ChaosProfile, seed: u64) -> Self {
        ChaosConfig {
            seed,
            profile: Some(profile),
        }
    }

    /// `true` when at least one fault class can fire.
    #[must_use]
    pub const fn enabled(&self) -> bool {
        self.profile.is_some()
    }

    /// `true` when the profile in force fires the faults of `class`
    /// ([`ChaosProfile::All`] fires every class).
    #[must_use]
    pub fn arms(&self, class: ChaosProfile) -> bool {
        self.profile
            .is_some_and(|p| p == class || p == ChaosProfile::All)
    }
}

/// Period of the testbeds' chaos tick, which draws the memory fates.
pub const CHAOS_TICK: SimDuration = SimDuration::from_micros(50);

// Packet faults, one draw per packet.
const NET_DROP: f64 = 0.02;
/// Delivered, then discarded by the receiver's CRC check (it still
/// burns bandwidth).
const NET_CORRUPT: f64 = 0.01;
const NET_DUPLICATE: f64 = 0.02;
const NET_REORDER: f64 = 0.05;
/// Longest extra delay of a duplicated or reordered copy.
const NET_JITTER: SimDuration = SimDuration::from_micros(30);

// Interrupt faults, one draw per fired interrupt.
const IRQ_LOSE: f64 = 0.05;
const IRQ_DELAY: f64 = 0.20;
/// Longest lateness of a delayed interrupt.
pub const IRQ_MAX_DELAY: SimDuration = SimDuration::from_micros(50);
/// Redelivery timeout of a lost interrupt (real NICs redeliver, so the
/// simulation stays live; the damage is the latency hole).
pub const IRQ_WATCHDOG: SimDuration = SimDuration::from_micros(500);

// NPF resolution faults, one draw per demand fault.
const NPF_DELAY: f64 = 0.30;
const NPF_MAX_EXTRA: SimDuration = SimDuration::from_micros(20);
const NPF_TRANSIENT: f64 = 0.10;
const NPF_MAX_RETRIES: u64 = 3;
const NPF_RETRY_DELAY: SimDuration = SimDuration::from_micros(10);

// Memory pressure, one draw per chaos tick: ~400 bursts and ~100 storms
// per simulated second. Hot enough that working-set pages get evicted
// mid-transfer, low enough that a fault resolution (even a swap-in) can
// win the race against the next eviction and the transport makes
// progress.
const MEM_BURST: f64 = 0.02;
const MEM_BURST_PAGES: u64 = 16;
const MEM_STORM: f64 = 0.005;
const MEM_STORM_PAGES: u64 = 64;

/// Named per-class fault profiles, one per injection layer plus the
/// union.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosProfile {
    /// Packet drop/corrupt/duplicate/reorder.
    Network,
    /// Lost and delayed interrupts.
    Interrupts,
    /// NPF resolution delay / transient failure / retry.
    Npf,
    /// Memory-pressure bursts and eviction storms.
    Memory,
    /// All of the above at once.
    All,
}

impl ChaosProfile {
    /// Every profile, in a stable order (sweep tests iterate this).
    pub const ALL: [ChaosProfile; 5] = [
        ChaosProfile::Network,
        ChaosProfile::Interrupts,
        ChaosProfile::Npf,
        ChaosProfile::Memory,
        ChaosProfile::All,
    ];

    /// Parses a profile's [`ChaosProfile::name`] (as passed to
    /// `--chaos-profile`).
    #[must_use]
    pub fn from_name(name: &str) -> Option<ChaosProfile> {
        match name {
            "network" => Some(ChaosProfile::Network),
            "interrupts" => Some(ChaosProfile::Interrupts),
            "npf" => Some(ChaosProfile::Npf),
            "memory" => Some(ChaosProfile::Memory),
            "all" => Some(ChaosProfile::All),
            _ => None,
        }
    }

    /// The canonical name of the profile.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ChaosProfile::Network => "network",
            ChaosProfile::Interrupts => "interrupts",
            ChaosProfile::Npf => "npf",
            ChaosProfile::Memory => "memory",
            ChaosProfile::All => "all",
        }
    }
}

// ---------------------------------------------------------------------
// Fault plans (the typed per-class decisions)
// ---------------------------------------------------------------------

/// Fate of one packet crossing the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketFate {
    /// Delivered normally.
    Deliver,
    /// Silently dropped.
    Drop,
    /// Delivered but corrupted; the receiver's CRC check discards it.
    Corrupt,
    /// Delivered, plus a duplicate copy `extra` later.
    Duplicate {
        /// Lateness of the duplicate copy.
        extra: SimDuration,
    },
    /// Delivered `extra` late, reordering it behind later packets.
    Reorder {
        /// Added delay.
        extra: SimDuration,
    },
}

impl PacketFate {
    /// When a packet the wire delivers at `arrives_at` reaches its
    /// receiver under this fate: never (dropped, or discarded by the
    /// receiver's CRC check), once, once late, or twice in order. A
    /// [`PacketFate::Drop`] never reaches the wire, so the caller skips
    /// the send for it.
    #[inline]
    pub fn arrivals(self, arrives_at: SimTime) -> impl Iterator<Item = SimTime> {
        let (first, second) = match self {
            PacketFate::Deliver => (Some(arrives_at), None),
            PacketFate::Drop | PacketFate::Corrupt => (None, None),
            PacketFate::Duplicate { extra } => (Some(arrives_at), Some(arrives_at + extra)),
            PacketFate::Reorder { extra } => (Some(arrives_at + extra), None),
        };
        first.into_iter().chain(second)
    }
}

/// Fate of one fired interrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterruptFate {
    /// Delivered on time.
    Deliver,
    /// Lost; the watchdog redelivers it `redeliver_after` later.
    Lose {
        /// Watchdog redelivery timeout.
        redeliver_after: SimDuration,
    },
    /// Delivered `extra` late.
    Delay {
        /// Added delay.
        extra: SimDuration,
    },
}

/// Fate of one NPF resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NpfFate {
    /// Resolved at the cost model's pace.
    Normal,
    /// Resolution runs `extra` slower.
    Delay {
        /// Added resolution latency.
        extra: SimDuration,
    },
    /// The first `retries` attempts fail transiently; each adds
    /// `retry_delay` before the resolution finally lands.
    Transient {
        /// Failed attempts before success.
        retries: u32,
        /// Latency added per failed attempt.
        retry_delay: SimDuration,
    },
}

/// Memory pressure applied at one chaos tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryFate {
    /// No pressure this tick.
    Calm,
    /// Reclaim `pages` pages (a cgroup neighbor ballooning).
    PressureBurst {
        /// Pages to reclaim.
        pages: u64,
    },
    /// Reclaim `pages` pages (kswapd panicking).
    EvictionStorm {
        /// Pages to reclaim.
        pages: u64,
    },
}

// ---------------------------------------------------------------------
// The injector
// ---------------------------------------------------------------------

/// The seeded fault injector. One per testbed (forked per component
/// where a component draws concurrently — see [`ChaosEngine::fork`]),
/// present whether or not chaos is on: a disabled engine draws nothing.
#[derive(Debug)]
pub struct ChaosEngine {
    cfg: ChaosConfig,
    /// Per-class arming, kept so each draw site is one branch.
    net: bool,
    irq: bool,
    npf: bool,
    mem: bool,
    net_rng: SimRng,
    irq_rng: SimRng,
    npf_rng: SimRng,
    mem_rng: SimRng,
    counters: Counters,
}

impl ChaosEngine {
    /// Builds an engine from `cfg`, forking one stream per fault class
    /// from `SimRng::new(cfg.seed)`. An enabled engine notes itself to
    /// the installed invariant checker, so a run can tell chaos that
    /// reached a bed from chaos that was only asked for.
    #[must_use]
    pub fn new(cfg: ChaosConfig) -> Self {
        if cfg.enabled() {
            invariant::with(InvariantChecker::note_chaos_engine);
        }
        let mut root = SimRng::new(cfg.seed);
        ChaosEngine {
            cfg,
            net: cfg.arms(ChaosProfile::Network),
            irq: cfg.arms(ChaosProfile::Interrupts),
            npf: cfg.arms(ChaosProfile::Npf),
            mem: cfg.arms(ChaosProfile::Memory),
            net_rng: root.fork(1),
            irq_rng: root.fork(2),
            npf_rng: root.fork(3),
            mem_rng: root.fork(4),
            counters: Counters::new(),
        }
    }

    /// Derives an independent engine (same classes, child streams) for
    /// a component that must not interleave draws with its parent.
    #[must_use]
    pub fn fork(&mut self, label: u64) -> ChaosEngine {
        let mut cfg = self.cfg;
        cfg.seed = self
            .cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(label);
        ChaosEngine::new(cfg)
    }

    /// `true` when at least one fault class can fire.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.cfg.enabled()
    }

    /// Counts of injected faults per class: `net_drop`, `net_corrupt`,
    /// `net_duplicate`, `net_reorder`, `irq_lost`, `irq_delayed`,
    /// `npf_delay`, `npf_transient`, `mem_burst`, `mem_storm`.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// A delay in `(0, max]`.
    fn jitter(rng: &mut SimRng, max: SimDuration) -> SimDuration {
        SimDuration::from_nanos(1 + rng.below(max.as_nanos()))
    }

    /// Draws the fate of one packet. Inlined down to the one branch a
    /// disabled packet class costs; the draw itself stays out of line.
    #[inline]
    pub fn packet_fate(&mut self) -> PacketFate {
        if !self.net {
            return PacketFate::Deliver;
        }
        self.draw_packet_fate()
    }

    #[inline(never)]
    fn draw_packet_fate(&mut self) -> PacketFate {
        let r = self.net_rng.unit();
        let fate = if r < NET_DROP {
            self.counters.bump("net_drop");
            PacketFate::Drop
        } else if r < NET_DROP + NET_CORRUPT {
            self.counters.bump("net_corrupt");
            PacketFate::Corrupt
        } else if r < NET_DROP + NET_CORRUPT + NET_DUPLICATE {
            self.counters.bump("net_duplicate");
            PacketFate::Duplicate {
                extra: Self::jitter(&mut self.net_rng, NET_JITTER),
            }
        } else if r < NET_DROP + NET_CORRUPT + NET_DUPLICATE + NET_REORDER {
            self.counters.bump("net_reorder");
            PacketFate::Reorder {
                extra: Self::jitter(&mut self.net_rng, NET_JITTER),
            }
        } else {
            return PacketFate::Deliver;
        };
        trace_injection("packet", "Packet", &fate);
        fate
    }

    /// Draws the fate of one fired interrupt.
    pub fn interrupt_fate(&mut self) -> InterruptFate {
        if !self.irq {
            return InterruptFate::Deliver;
        }
        let r = self.irq_rng.unit();
        let fate = if r < IRQ_LOSE {
            self.counters.bump("irq_lost");
            InterruptFate::Lose {
                redeliver_after: IRQ_WATCHDOG,
            }
        } else if r < IRQ_LOSE + IRQ_DELAY {
            self.counters.bump("irq_delayed");
            InterruptFate::Delay {
                extra: Self::jitter(&mut self.irq_rng, IRQ_MAX_DELAY),
            }
        } else {
            return InterruptFate::Deliver;
        };
        trace_injection("interrupt", "Interrupt", &fate);
        fate
    }

    /// Draws the fate of one NPF resolution.
    pub fn npf_fate(&mut self) -> NpfFate {
        if !self.npf {
            return NpfFate::Normal;
        }
        let r = self.npf_rng.unit();
        let fate = if r < NPF_TRANSIENT {
            self.counters.bump("npf_transient");
            NpfFate::Transient {
                retries: 1 + self.npf_rng.below(NPF_MAX_RETRIES) as u32,
                retry_delay: NPF_RETRY_DELAY,
            }
        } else if r < NPF_TRANSIENT + NPF_DELAY {
            self.counters.bump("npf_delay");
            NpfFate::Delay {
                extra: Self::jitter(&mut self.npf_rng, NPF_MAX_EXTRA),
            }
        } else {
            return NpfFate::Normal;
        };
        trace_injection("npf", "Npf", &fate);
        fate
    }

    /// Draws the memory-pressure decision for one chaos tick.
    pub fn memory_fate(&mut self) -> MemoryFate {
        if !self.mem {
            return MemoryFate::Calm;
        }
        let r = self.mem_rng.unit();
        let fate = if r < MEM_STORM {
            self.counters.bump("mem_storm");
            MemoryFate::EvictionStorm {
                pages: MEM_STORM_PAGES,
            }
        } else if r < MEM_STORM + MEM_BURST {
            self.counters.bump("mem_burst");
            MemoryFate::PressureBurst {
                pages: MEM_BURST_PAGES,
            }
        } else {
            return MemoryFate::Calm;
        };
        trace_injection("memory", "Memory", &fate);
        fate
    }
}

/// Records one injection on the trace ring: its class and its plan,
/// printed as `Variant(fate)` (for example `Packet(Drop)`).
fn trace_injection(class: &'static str, variant: &str, fate: &impl Debug) {
    trace::with(|t| {
        let plan = format!("{variant}({fate:?})");
        t.instant(
            t.clock(),
            "chaos",
            "inject",
            vec![
                ("class", trace::ArgValue::Str(class.to_owned())),
                ("plan", trace::ArgValue::Str(plan)),
            ],
        );
        t.metrics_mut().counter_add("chaos.injected", 1);
    });
}

// ---------------------------------------------------------------------
// The invariant checker
// ---------------------------------------------------------------------

/// One invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Name of the violated invariant.
    pub invariant: &'static str,
    /// Sim time of the last `note_event_time` before the violation.
    pub at: Option<SimTime>,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.at {
            Some(t) => write!(f, "[{t}] {}: {}", self.invariant, self.detail),
            None => write!(f, "{}: {}", self.invariant, self.detail),
        }
    }
}

/// Cross-crate invariant state, fed by `note_*` observations from every
/// layer and evaluated incrementally plus at each event-dispatch
/// [`InvariantChecker::checkpoint`].
#[derive(Debug, Default)]
pub struct InvariantChecker {
    seed: u64,
    last_time: Option<SimTime>,
    /// Outstanding NPFs: fault id → time raised.
    pending_faults: HashMap<u64, SimTime>,
    resolved_faults: u64,
    /// Next expected message sequence per RC stream key.
    qp_next_seq: HashMap<u64, u64>,
    /// Live IOMMU mappings: (domain, vpn) → frame.
    mapping: HashMap<(u64, u64), u64>,
    /// Live mapping count per frame.
    frame_mapcount: HashMap<u64, u64>,
    /// Frames currently free (freed and not yet re-allocated).
    free_frames: std::collections::HashSet<u64>,
    /// Frames freed since the last checkpoint (deferred sweep: the
    /// invalidation that unmaps them runs within the same dispatch).
    pending_freed: Vec<u64>,
    /// Backup ring capacity per ring key.
    backup_capacity: HashMap<u64, u64>,
    /// Backup ring depth per ring key.
    backup_depth: HashMap<u64, u64>,
    /// Backup packets accounted: stored + dropped must equal offered.
    backup_offered: u64,
    backup_accounted: u64,
    violations: Vec<Violation>,
    checks: u64,
    /// Enabled [`ChaosEngine`]s built under this checker.
    chaos_engines: u64,
    trace_dumped: bool,
}

impl InvariantChecker {
    /// A fresh checker reporting `seed` in violation messages.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        InvariantChecker {
            seed,
            ..InvariantChecker::default()
        }
    }

    /// The seed the checker reports on violation.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Violations recorded so far.
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Observations processed (a liveness sanity check for tests).
    #[must_use]
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// NPFs raised and not yet resolved.
    #[must_use]
    pub fn outstanding_faults(&self) -> usize {
        self.pending_faults.len()
    }

    /// NPFs resolved so far.
    #[must_use]
    pub fn resolved_faults(&self) -> u64 {
        self.resolved_faults
    }

    /// Enabled [`ChaosEngine`]s built while this checker was installed
    /// (forks included): zero means the run injected nothing.
    #[must_use]
    pub fn chaos_engines(&self) -> u64 {
        self.chaos_engines
    }

    /// Messages delivered across all RC streams.
    #[must_use]
    pub fn messages_delivered(&self) -> u64 {
        self.qp_next_seq.values().sum()
    }

    /// Folds another checker's end-of-run state into this one, in
    /// support of the worker pool: each task runs under a private
    /// checker and the pool absorbs them in task order. All keys (fault
    /// ids, stream keys, domains, frames, rings) are salted with a
    /// namespace unique to the testbed (see
    /// [`invariant::split_namespaces`]), so the maps of two checkers
    /// never collide.
    pub fn absorb(&mut self, other: InvariantChecker) {
        self.pending_faults.extend(other.pending_faults);
        self.resolved_faults += other.resolved_faults;
        self.qp_next_seq.extend(other.qp_next_seq);
        self.mapping.extend(other.mapping);
        self.frame_mapcount.extend(other.frame_mapcount);
        self.free_frames.extend(other.free_frames);
        self.pending_freed.extend(other.pending_freed);
        self.backup_capacity.extend(other.backup_capacity);
        self.backup_depth.extend(other.backup_depth);
        self.backup_offered += other.backup_offered;
        self.backup_accounted += other.backup_accounted;
        self.violations.extend(other.violations);
        self.checks += other.checks;
        self.chaos_engines += other.chaos_engines;
        self.trace_dumped |= other.trace_dumped;
    }

    fn violate(&mut self, invariant: &'static str, detail: String) {
        let v = Violation {
            invariant,
            at: self.last_time,
            detail,
        };
        eprintln!("chaos invariant violated (seed {}): {v}", self.seed);
        self.dump_trace_ring(invariant);
        self.violations.push(v);
    }

    /// On the first violation, dump the trace ring (when a recorder is
    /// installed) so the failing seed can be diagnosed offline.
    fn dump_trace_ring(&mut self, invariant: &'static str) {
        if self.trace_dumped || !trace::enabled() {
            return;
        }
        self.trace_dumped = true;
        let seed = self.seed;
        trace::with(|rec| {
            let all: Vec<String> = rec.records().map(|r| format!("{r:?}")).collect();
            let tail: Vec<&String> = all.iter().rev().take(32).collect();
            eprintln!("--- trace ring tail (newest first, seed {seed}) ---");
            for line in &tail {
                eprintln!("  {line}");
            }
            let path = std::env::temp_dir()
                .join(format!("chaos-violation-seed{seed}-{invariant}.trace.json"));
            match std::fs::write(&path, rec.export_chrome_json()) {
                Ok(()) => eprintln!("full trace ring written to {}", path.display()),
                Err(e) => eprintln!("failed to write trace ring: {e}"),
            }
        });
    }

    // -- observations --------------------------------------------------

    /// A fresh simulation timeline begins: monotonicity must not
    /// compare against the previous testbed's final time. Testbeds call
    /// [`crate::instruments::note_timeline_reset`], which calls this.
    pub fn note_timeline_reset(&mut self) {
        self.checks += 1;
        self.last_time = None;
    }

    /// An enabled [`ChaosEngine`] was built. Not a check: the `checks`
    /// tally the verdict prints does not move.
    fn note_chaos_engine(&mut self) {
        self.chaos_engines += 1;
    }

    /// Sim-time monotonicity: dispatch times never run backwards.
    pub fn note_event_time(&mut self, now: SimTime) {
        self.checks += 1;
        if let Some(last) = self.last_time {
            if now < last {
                self.violate(
                    "time-monotonicity",
                    format!("event dispatched at {now} after {last}"),
                );
            }
        }
        self.last_time = Some(now);
    }

    /// An NPF was raised.
    pub fn note_fault_begun(&mut self, id: u64, now: SimTime) {
        self.checks += 1;
        if self.pending_faults.insert(id, now).is_some() {
            self.violate("npf-unique-ids", format!("fault id {id} raised twice"));
        }
    }

    /// An NPF completed resolution.
    pub fn note_fault_resolved(&mut self, id: u64) {
        self.checks += 1;
        if self.pending_faults.remove(&id).is_none() {
            self.violate(
                "npf-resolution",
                format!("fault id {id} resolved but never raised"),
            );
        } else {
            self.resolved_faults += 1;
        }
    }

    /// A full RC message was delivered to stream `stream` (a key unique
    /// per QP direction). `seq` is the transport's running message
    /// count *after* delivery, so exactly-once in-order delivery means
    /// each call observes `seq == previous + 1`.
    pub fn note_qp_message(&mut self, stream: u64, seq: u64) {
        self.checks += 1;
        let prev = self.qp_next_seq.get(&stream).copied().unwrap_or(0);
        if seq != prev + 1 {
            let expected = prev + 1;
            self.violate(
                "rc-exactly-once",
                format!("stream {stream:#x}: delivered message {seq}, expected {expected}"),
            );
        }
        self.qp_next_seq.insert(stream, seq.max(prev));
    }

    /// The frame allocator handed out `frame`.
    pub fn note_frame_allocated(&mut self, frame: u64) {
        self.checks += 1;
        self.free_frames.remove(&frame);
    }

    /// The frame allocator reclaimed `frame`.
    pub fn note_frame_freed(&mut self, frame: u64) {
        self.checks += 1;
        if !self.free_frames.insert(frame) {
            self.violate("frame-books", format!("frame {frame} freed twice"));
        }
        if self.frame_mapcount.get(&frame).copied().unwrap_or(0) > 0 {
            // The unmap runs later in the same dispatch (invalidation
            // flow); sweep at the next checkpoint.
            self.pending_freed.push(frame);
        }
    }

    /// The IOMMU installed a PTE.
    pub fn note_frame_mapped(&mut self, domain: u64, vpn: u64, frame: u64) {
        self.checks += 1;
        if self.free_frames.contains(&frame) {
            self.violate(
                "no-freed-frame-mapped",
                format!("domain {domain} vpn {vpn:#x} mapped to freed frame {frame}"),
            );
        }
        if let Some(old) = self.mapping.insert((domain, vpn), frame) {
            if let Some(c) = self.frame_mapcount.get_mut(&old) {
                *c = c.saturating_sub(1);
            }
        }
        *self.frame_mapcount.entry(frame).or_insert(0) += 1;
    }

    /// The IOMMU removed a PTE (no-op when the page was not mapped).
    pub fn note_frame_unmapped(&mut self, domain: u64, vpn: u64) {
        self.checks += 1;
        if let Some(frame) = self.mapping.remove(&(domain, vpn)) {
            if let Some(c) = self.frame_mapcount.get_mut(&frame) {
                *c = c.saturating_sub(1);
            }
        }
    }

    /// A backup ring of capacity `cap` exists under key `ring`.
    pub fn note_backup_capacity(&mut self, ring: u64, cap: u64) {
        self.checks += 1;
        self.backup_capacity.insert(ring, cap);
        self.backup_depth.entry(ring).or_insert(0);
    }

    /// A faulting packet was offered to the backup path (stored or
    /// dropped — never silently vanished).
    pub fn note_backup_offered(&mut self) {
        self.checks += 1;
        self.backup_offered += 1;
    }

    /// A packet was stored in the backup ring.
    pub fn note_backup_stored(&mut self, ring: u64) {
        self.checks += 1;
        self.backup_accounted += 1;
        let depth = self.backup_depth.entry(ring).or_insert(0);
        *depth += 1;
        if let Some(&cap) = self.backup_capacity.get(&ring) {
            if *depth > cap {
                let depth = *depth;
                self.violate(
                    "backup-no-silent-overflow",
                    format!("backup ring {ring} depth {depth} exceeds capacity {cap}"),
                );
            }
        }
    }

    /// A packet was drained from the backup ring.
    pub fn note_backup_drained(&mut self, ring: u64) {
        self.checks += 1;
        let depth = self.backup_depth.entry(ring).or_insert(0);
        if *depth == 0 {
            self.violate(
                "backup-no-silent-overflow",
                format!("backup ring {ring} drained while empty"),
            );
        } else {
            *depth -= 1;
        }
    }

    /// A faulting packet was dropped *with accounting* (overflow or
    /// budget exhaustion bumped a counter).
    pub fn note_backup_dropped(&mut self) {
        self.checks += 1;
        self.backup_accounted += 1;
    }

    /// Deferred predicates, evaluated at event-dispatch boundaries.
    pub fn checkpoint(&mut self, now: SimTime) {
        self.note_event_time(now);
        if !self.pending_freed.is_empty() {
            let pending = std::mem::take(&mut self.pending_freed);
            for frame in pending {
                // Re-allocated frames were legitimately recycled.
                if !self.free_frames.contains(&frame) {
                    continue;
                }
                if self.frame_mapcount.get(&frame).copied().unwrap_or(0) > 0 {
                    let stale: Vec<String> = self
                        .mapping
                        .iter()
                        .filter(|(_, &f)| f == frame)
                        .map(|((d, v), _)| format!("domain {d} vpn {v:#x}"))
                        .collect();
                    self.violate(
                        "no-freed-frame-mapped",
                        format!("freed frame {frame} still mapped by {}", stale.join(", ")),
                    );
                }
            }
        }
        if self.backup_accounted != self.backup_offered {
            let (offered, accounted) = (self.backup_offered, self.backup_accounted);
            self.violate(
                "backup-no-silent-overflow",
                format!("{offered} packets offered to backup path, {accounted} accounted"),
            );
            self.backup_accounted = self.backup_offered;
        }
    }

    /// End-of-run verdict: every violation so far, plus an
    /// `npf-resolution` one when a raised NPF never resolved. Call after
    /// the testbed quiesces; the checker itself is left as it was.
    #[must_use]
    pub fn finish(&self) -> Vec<Violation> {
        let mut all = self.violations.clone();
        if !self.pending_faults.is_empty() {
            let mut ids: Vec<u64> = self.pending_faults.keys().copied().collect();
            ids.sort_unstable();
            all.push(Violation {
                invariant: "npf-resolution",
                at: self.last_time,
                detail: format!("{} NPFs never resolved or aborted: {ids:?}", ids.len()),
            });
        }
        all
    }
}

/// The checker's access path plus the invariant-note namespaces. Every
/// observation site is one thread-local branch when no checker is
/// installed — cheap enough to leave always-on in production code
/// paths.
pub mod invariant {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::InvariantChecker;
    use crate::instruments::{self, GATE};

    /// Source of unique namespaces for frame/domain note keys. Every
    /// independent resource pool (one per NPF engine: its frame
    /// allocator and its IOMMU) salts its identifiers with one of
    /// these so a multi-node simulation never aliases node 0's frame 0
    /// with node 1's frame 0 inside one checker.
    static NAMESPACES: AtomicU64 = AtomicU64::new(1);

    /// The namespace range a thread outside any [`with_namespaces`]
    /// scope splits for a worker pool: above anything the global
    /// counter reaches in practice, and below the 24 bits the
    /// `ns << 40` frame keys leave room for.
    const ROOT_SCOPE: (u64, u64) = (1 << 20, 1 << 24);

    /// Allocates a fresh note-key namespace: from the thread's scoped
    /// range inside [`with_namespaces`], else from the process-global
    /// counter. The worker pool scopes each task to a deterministic
    /// range, so the salted ids in violation reports don't depend on
    /// which worker constructed which testbed first.
    ///
    /// # Panics
    ///
    /// Panics when the thread's scoped range is used up — aliasing two
    /// testbeds' keys inside one checker would corrupt its tallies
    /// silently.
    #[must_use]
    pub fn fresh_namespace() -> u64 {
        if let Some((next, end)) = GATE.with(|g| g.ns_scope.get()) {
            assert!(next < end, "invariant namespace scope exhausted");
            GATE.with(|g| g.ns_scope.set(Some((next + 1, end))));
            return next;
        }
        NAMESPACES.fetch_add(1, Ordering::Relaxed)
    }

    /// Splits the calling thread's remaining namespace range into
    /// `n + 1` equal parts and returns `(base, span)`: part `i + 1`,
    /// `[base + i * span, base + (i + 1) * span)`, belongs to pool task
    /// `i`; part 0 stays with the caller for whatever it builds (or
    /// fans out) afterwards.
    ///
    /// Nested pools therefore compose — an inner task's range lies
    /// inside its outer task's — so no two tasks anywhere in the tree
    /// share a namespace, and every checker can be absorbed into one
    /// root without key collisions. A thread outside any scope splits
    /// the same fixed root range on every call.
    #[must_use]
    pub fn split_namespaces(n: usize) -> (u64, u64) {
        let scope = GATE.with(|g| g.ns_scope.get());
        let (next, end) = scope.unwrap_or(ROOT_SCOPE);
        let span = (end - next) / (n as u64 + 1);
        if scope.is_some() {
            GATE.with(|g| g.ns_scope.set(Some((next, next + span))));
        }
        (next + span, span)
    }

    /// Runs `f` with namespaces allocated sequentially from
    /// `[base, base + span)`.
    ///
    /// The worker pool calls this with task `i`'s share of
    /// [`split_namespaces`], so namespace assignment — and with it
    /// every salted fault/frame/domain id a violation report can
    /// mention — is a function of the task's position, not of worker
    /// scheduling.
    pub fn with_namespaces<R>(base: u64, span: u64, f: impl FnOnce() -> R) -> R {
        let prev = GATE.with(|g| g.ns_scope.replace(Some((base, base + span))));
        let r = f();
        GATE.with(|g| g.ns_scope.set(prev));
        r
    }

    /// `true` when a checker is installed (the one branch paid per
    /// site when checking is off).
    #[inline]
    #[must_use]
    pub fn enabled() -> bool {
        instruments::has(instruments::CHECKER)
    }

    /// Runs `f` against the installed checker, if any.
    #[inline]
    pub fn with<R>(f: impl FnOnce(&mut InvariantChecker) -> R) -> Option<R> {
        if !enabled() {
            return None;
        }
        instruments::SLOT.with(|s| s.checker.borrow_mut().as_mut().map(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_fault_schedule() {
        let cfg = ChaosConfig::profile(ChaosProfile::All, 42);
        let mut a = ChaosEngine::new(cfg);
        let mut b = ChaosEngine::new(cfg);
        for _ in 0..500 {
            assert_eq!(a.packet_fate(), b.packet_fate());
            assert_eq!(a.interrupt_fate(), b.interrupt_fate());
            assert_eq!(a.npf_fate(), b.npf_fate());
            assert_eq!(a.memory_fate(), b.memory_fate());
        }
        assert!(
            a.counters().iter().any(|(_, v)| v > 0),
            "profile must actually inject"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ChaosEngine::new(ChaosConfig::profile(ChaosProfile::Network, 1));
        let mut b = ChaosEngine::new(ChaosConfig::profile(ChaosProfile::Network, 2));
        let fa: Vec<PacketFate> = (0..200).map(|_| a.packet_fate()).collect();
        let fb: Vec<PacketFate> = (0..200).map(|_| b.packet_fate()).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn disabled_config_never_injects() {
        let mut e = ChaosEngine::new(ChaosConfig::disabled());
        for _ in 0..100 {
            assert_eq!(e.packet_fate(), PacketFate::Deliver);
            assert_eq!(e.interrupt_fate(), InterruptFate::Deliver);
            assert_eq!(e.npf_fate(), NpfFate::Normal);
            assert_eq!(e.memory_fate(), MemoryFate::Calm);
        }
        assert!(e.counters().iter().all(|(_, v)| v == 0));
        assert!(!e.enabled());
        // No stream moved: each still yields a fresh engine's first draw.
        let mut fresh = ChaosEngine::new(ChaosConfig::disabled());
        for (used, unused) in [
            (&mut e.net_rng, &mut fresh.net_rng),
            (&mut e.irq_rng, &mut fresh.irq_rng),
            (&mut e.npf_rng, &mut fresh.npf_rng),
            (&mut e.mem_rng, &mut fresh.mem_rng),
        ] {
            assert_eq!(used.next_u64(), unused.next_u64());
        }
    }

    #[test]
    fn packet_fates_map_to_arrivals() {
        let at = SimTime::from_micros(10);
        let extra = SimDuration::from_micros(3);
        let late = SimTime::from_micros(13);
        let arrivals = |fate: PacketFate| fate.arrivals(at).collect::<Vec<_>>();
        assert_eq!(arrivals(PacketFate::Deliver), [at]);
        assert_eq!(arrivals(PacketFate::Drop), []);
        assert_eq!(arrivals(PacketFate::Corrupt), []);
        assert_eq!(arrivals(PacketFate::Duplicate { extra }), [at, late]);
        assert_eq!(arrivals(PacketFate::Reorder { extra }), [late]);
    }

    #[test]
    fn every_profile_covers_its_class() {
        for (profile, counter) in [
            (ChaosProfile::Network, "net_drop"),
            (ChaosProfile::Interrupts, "irq_delayed"),
            (ChaosProfile::Npf, "npf_delay"),
            (ChaosProfile::Memory, "mem_burst"),
        ] {
            let mut e = ChaosEngine::new(ChaosConfig::profile(profile, 7));
            for _ in 0..2000 {
                e.packet_fate();
                e.interrupt_fate();
                e.npf_fate();
                e.memory_fate();
            }
            assert!(
                e.counters().get(counter) > 0,
                "profile {} never fired {counter}",
                profile.name()
            );
        }
    }

    #[test]
    fn enabled_engines_note_themselves_to_the_checker() {
        let fresh = crate::instruments::Instruments {
            checker: Some(InvariantChecker::new(1)),
            ..crate::instruments::Instruments::default()
        };
        assert!(fresh.install().is_empty());
        let _off = ChaosEngine::new(ChaosConfig::disabled());
        let mut on = ChaosEngine::new(ChaosConfig::profile(ChaosProfile::Npf, 1));
        let _child = on.fork(1);
        let checker = crate::instruments::Instruments::take()
            .checker
            .expect("installed");
        assert_eq!(
            checker.chaos_engines(),
            2,
            "the enabled engine and its fork"
        );
        assert_eq!(checker.checks(), 0, "a note, not a check");
    }

    #[test]
    fn profile_names_round_trip() {
        for p in ChaosProfile::ALL {
            assert_eq!(ChaosProfile::from_name(p.name()), Some(p));
        }
        for alias in ["bogus", "net", "irq", "mem"] {
            assert_eq!(ChaosProfile::from_name(alias), None, "{alias}");
        }
    }

    #[test]
    fn time_monotonicity_violation_detected() {
        let mut c = InvariantChecker::new(9);
        c.note_event_time(SimTime::from_micros(10));
        c.note_event_time(SimTime::from_micros(5));
        let end = c.finish();
        assert_eq!(end.len(), 1);
        assert_eq!(end[0].invariant, "time-monotonicity");
    }

    #[test]
    fn timeline_reset_forgives_a_clock_restart() {
        // Experiment binaries build testbeds back to back; each new bed
        // restarts sim time at zero. A reset between them must not trip
        // the monotonicity predicate, but going backwards *within* a
        // timeline still must.
        let mut c = InvariantChecker::new(9);
        c.note_event_time(SimTime::from_micros(400));
        c.note_timeline_reset();
        c.note_event_time(SimTime::from_micros(3));
        c.note_event_time(SimTime::from_micros(1));
        let end = c.finish();
        assert_eq!(end.len(), 1);
        assert_eq!(end[0].invariant, "time-monotonicity");
        assert!(end[0].detail.contains("1"));
    }

    #[test]
    fn unresolved_fault_reported_at_finish() {
        let mut c = InvariantChecker::new(9);
        c.note_fault_begun(1, SimTime::from_micros(1));
        c.note_fault_begun(2, SimTime::from_micros(2));
        c.note_fault_resolved(1);
        let end = c.finish();
        assert_eq!(end.len(), 1);
        assert_eq!(end[0].invariant, "npf-resolution");
        assert!(end[0].detail.contains("[2]"));
    }

    #[test]
    fn out_of_order_delivery_detected() {
        let mut c = InvariantChecker::new(9);
        c.note_qp_message(1, 1);
        c.note_qp_message(1, 2);
        c.note_qp_message(1, 2); // duplicate delivery
        c.note_qp_message(2, 1); // independent stream is fine
        let end = c.finish();
        assert_eq!(end.len(), 1);
        assert_eq!(end[0].invariant, "rc-exactly-once");
    }

    #[test]
    fn freed_frame_mapping_detected_at_checkpoint() {
        let mut c = InvariantChecker::new(9);
        c.note_frame_allocated(7);
        c.note_frame_mapped(0, 0x10, 7);
        c.note_frame_freed(7);
        // The unmap never happens: next checkpoint must flag it.
        c.checkpoint(SimTime::from_micros(1));
        let end = c.finish();
        assert_eq!(end.len(), 1);
        assert_eq!(end[0].invariant, "no-freed-frame-mapped");
    }

    #[test]
    fn freed_then_unmapped_frame_is_clean() {
        let mut c = InvariantChecker::new(9);
        c.note_frame_allocated(7);
        c.note_frame_mapped(0, 0x10, 7);
        c.note_frame_freed(7);
        c.note_frame_unmapped(0, 0x10); // invalidation flow ran
        c.checkpoint(SimTime::from_micros(1));
        let end = c.finish();
        assert!(end.is_empty(), "{:?}", end);
    }

    #[test]
    fn mapping_a_free_frame_detected_immediately() {
        let mut c = InvariantChecker::new(9);
        c.note_frame_allocated(3);
        c.note_frame_freed(3);
        c.note_frame_mapped(0, 0x20, 3);
        let end = c.finish();
        assert_eq!(end.len(), 1);
        assert_eq!(end[0].invariant, "no-freed-frame-mapped");
    }

    #[test]
    fn backup_depth_bounded_by_capacity() {
        let mut c = InvariantChecker::new(9);
        c.note_backup_capacity(0, 2);
        c.note_backup_offered();
        c.note_backup_stored(0);
        c.note_backup_offered();
        c.note_backup_stored(0);
        c.note_backup_offered();
        c.note_backup_stored(0); // over capacity
        let end = c.finish();
        assert_eq!(end.len(), 1);
        assert_eq!(end[0].invariant, "backup-no-silent-overflow");
    }

    #[test]
    fn silent_backup_drop_detected() {
        let mut c = InvariantChecker::new(9);
        c.note_backup_capacity(0, 8);
        c.note_backup_offered();
        // Neither stored nor dropped-with-accounting.
        c.checkpoint(SimTime::from_micros(1));
        let end = c.finish();
        assert_eq!(end.len(), 1);
        assert_eq!(end[0].invariant, "backup-no-silent-overflow");
    }

    #[test]
    fn accounted_backup_flow_is_clean() {
        let mut c = InvariantChecker::new(9);
        c.note_backup_capacity(0, 1);
        c.note_backup_offered();
        c.note_backup_stored(0);
        c.note_backup_offered();
        c.note_backup_dropped(); // overflow, but counted
        c.note_backup_drained(0);
        c.checkpoint(SimTime::from_micros(1));
        let end = c.finish();
        assert!(end.is_empty(), "{:?}", end);
    }

    #[test]
    fn notes_are_noops_without_checker() {
        assert!(!invariant::enabled());
        assert!(invariant::with(|c| c.note_event_time(SimTime::from_micros(1))).is_none());
        assert!(invariant::with(|c| c.note_qp_message(0, 99)).is_none());
        assert!(invariant::with(|c| c.checkpoint(SimTime::from_micros(2))).is_none());
        assert!(crate::instruments::Instruments::take().checker.is_none());
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = ChaosEngine::new(ChaosConfig::profile(ChaosProfile::Network, 3));
        let mut a = parent.fork(1);
        let mut b = parent.fork(2);
        let fa: Vec<PacketFate> = (0..100).map(|_| a.packet_fate()).collect();
        let fb: Vec<PacketFate> = (0..100).map(|_| b.packet_fate()).collect();
        assert_ne!(fa, fb);
    }
}
