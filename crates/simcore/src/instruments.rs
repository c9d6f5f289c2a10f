//! The thread's instruments: the trace recorder ([`crate::trace`]), the
//! fault journal ([`crate::journal`]) and the invariant checker
//! ([`crate::chaos::invariant`]), installed, taken, mirrored and
//! absorbed as one [`Instruments`] value.
//!
//! Each instrument is usually absent. Two thread-locals hold them:
//!
//! * **the gate** — one byte of presence bits plus the invariant
//!   namespace scope, `Copy` data only, so the thread-local has no drop
//!   glue and a read is a plain load. [`crate::event::EventQueue::pop_until`],
//!   which must tell all three the time of every event, and every
//!   `enabled()` read only the gate: one load when nothing is installed;
//! * **the slot** — the instruments themselves, each in its own
//!   `RefCell`, because one calls another while borrowed: the journal's
//!   SLO watchdog emits a trace instant, and a checker violation dumps
//!   the trace ring.
//!
//! Each instrument has one access path, its module's `with`, which runs
//! a closure on it when installed: `trace::with(|t| t.instant(t.clock(),
//! ..))`, `invariant::with(|c| c.note_frame_freed(f))`.
//!
//! # Examples
//!
//! ```
//! use simcore::instruments::Instruments;
//! use simcore::time::{SimDuration, SimTime};
//! use simcore::trace::{self, TraceRecorder};
//!
//! Instruments {
//!     trace: Some(TraceRecorder::new(1024)),
//!     ..Instruments::default()
//! }
//! .install();
//! let span = trace::with(|t| {
//!     let d = SimDuration::from_micros(220);
//!     t.complete_span(SimTime::ZERO, d, "npf", "npf", None, Vec::new())
//! });
//! assert!(span.is_some());
//! let rec = Instruments::take().trace.expect("installed above");
//! assert_eq!(rec.spans().count(), 1);
//! assert!(trace::with(|t| t.len()).is_none(), "nothing installed now");
//! ```

use std::cell::{Cell, RefCell};

use crate::chaos::{invariant, InvariantChecker};
use crate::journal::{self, JournalRecorder};
use crate::trace::{self, TraceRecorder};

pub(crate) const TRACE: u8 = 1;
pub(crate) const JOURNAL: u8 = 1 << 1;
pub(crate) const CHECKER: u8 = 1 << 2;

/// The gate: presence bits and the invariant namespace scope.
pub(crate) struct Gate {
    installed: Cell<u8>,
    /// `[next, end)` of the namespaces `invariant::fresh_namespace`
    /// hands out on this thread, inside a worker-pool task.
    pub(crate) ns_scope: Cell<Option<(u64, u64)>>,
}

/// The slot: the installed instruments, one `RefCell` each.
pub(crate) struct Slot {
    pub(crate) trace: RefCell<Option<TraceRecorder>>,
    pub(crate) journal: RefCell<Option<JournalRecorder>>,
    pub(crate) checker: RefCell<Option<InvariantChecker>>,
}

// The uninstrumented pop reads the gate once per event: with drop glue,
// every access would also check the thread's destructor registration.
const _: () = assert!(!std::mem::needs_drop::<Gate>());

thread_local! {
    pub(crate) static GATE: Gate = const {
        Gate { installed: Cell::new(0), ns_scope: Cell::new(None) }
    };
}

thread_local! {
    pub(crate) static SLOT: Slot = const {
        Slot {
            trace: RefCell::new(None),
            journal: RefCell::new(None),
            checker: RefCell::new(None),
        }
    };
}

/// `true` when the instrument `bit` is installed on this thread.
#[inline]
pub(crate) fn has(bit: u8) -> bool {
    GATE.with(|g| g.installed.get()) & bit != 0
}

/// `true` when any instrument is installed on this thread.
#[inline]
pub(crate) fn any() -> bool {
    GATE.with(|g| g.installed.get()) != 0
}

/// A set of instruments, each present or absent.
#[derive(Debug, Default)]
pub struct Instruments {
    /// The trace recorder (`--trace`, `--metrics`).
    pub trace: Option<TraceRecorder>,
    /// The fault journal (`--journal`).
    pub journal: Option<JournalRecorder>,
    /// The invariant checker (`--chaos-seed`).
    pub checker: Option<InvariantChecker>,
}

impl Instruments {
    /// Installs these on the current thread, an absent one leaving its
    /// kind uninstalled, and returns what was installed before.
    pub fn install(self) -> Instruments {
        let bits = TRACE * u8::from(self.trace.is_some())
            + JOURNAL * u8::from(self.journal.is_some())
            + CHECKER * u8::from(self.checker.is_some());
        GATE.with(|g| g.installed.set(bits));
        SLOT.with(|s| Instruments {
            trace: s.trace.replace(self.trace),
            journal: s.journal.replace(self.journal),
            checker: s.checker.replace(self.checker),
        })
    }

    /// Takes whatever is installed off the current thread.
    #[must_use]
    pub fn take() -> Instruments {
        Instruments::default().install()
    }

    /// `true` when no instrument is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trace.is_none() && self.journal.is_none() && self.checker.is_none()
    }

    /// Empty instruments of the same kinds and settings as `self`:
    /// recording when `self` records (same ring capacity), journaling
    /// with the same watchdog, checking under the same chaos seed. A
    /// worker-pool task runs under this mirror of its caller's.
    #[must_use]
    pub(crate) fn mirror(&self) -> Instruments {
        Instruments {
            trace: self
                .trace
                .as_ref()
                .map(|t| TraceRecorder::new(t.capacity())),
            journal: self.journal.as_ref().map(|j| {
                let mut fresh = JournalRecorder::new();
                if let Some(w) = j.watchdog() {
                    fresh.set_watchdog(w);
                }
                fresh
            }),
            checker: self
                .checker
                .as_ref()
                .map(|c| InvariantChecker::new(c.seed())),
        }
    }

    /// Folds a finished task's instruments into these, kind by kind.
    /// Absorbing in task order makes the result independent of which
    /// thread ran which task.
    pub(crate) fn absorb(&mut self, task: Instruments) {
        if let (Some(mine), Some(theirs)) = (&mut self.trace, task.trace) {
            mine.absorb(theirs);
        }
        if let (Some(mine), Some(theirs)) = (&mut self.journal, task.journal) {
            mine.absorb(theirs);
        }
        if let (Some(mine), Some(theirs)) = (&mut self.checker, task.checker) {
            mine.absorb(theirs);
        }
    }
}

/// A fresh simulation timeline begins (a testbed was constructed): its
/// clock restarts at zero, so the installed trace and journal clocks
/// restart with it, and the checker's monotonicity stops comparing
/// against the previous testbed's final time (one check). Experiment
/// binaries build many testbeds back to back under one set of
/// instruments.
pub fn note_timeline_reset() {
    trace::with(TraceRecorder::reset_clock);
    journal::with(JournalRecorder::reset_clock);
    invariant::with(InvariantChecker::note_timeline_reset);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{JournalWatchdog, MarkKind};
    use crate::time::{SimDuration, SimTime};
    use crate::trace::TraceRecord;

    #[test]
    fn install_and_take_round_trip() {
        assert!(Instruments::take().is_empty());
        let before = Instruments {
            trace: Some(TraceRecorder::new(8)),
            journal: Some(JournalRecorder::new()),
            checker: Some(InvariantChecker::new(3)),
        }
        .install();
        assert!(before.is_empty());
        assert!(trace::enabled() && journal::enabled() && invariant::enabled());
        // Installing a set without a checker uninstalls the checker and
        // hands back all three.
        let replaced = Instruments {
            trace: Some(TraceRecorder::new(4)),
            ..Instruments::default()
        }
        .install();
        assert_eq!(replaced.trace.map(|t| t.capacity()), Some(8));
        assert!(replaced.journal.is_some());
        assert_eq!(replaced.checker.map(|c| c.seed()), Some(3));
        assert!(trace::enabled() && !journal::enabled() && !invariant::enabled());
        assert_eq!(trace::with(|t| t.capacity()), Some(4));
        assert_eq!(journal::with(|j| j.marks().len()), None);
        let taken = Instruments::take();
        assert_eq!(taken.trace.map(|t| t.capacity()), Some(4));
        assert!(!trace::enabled() && Instruments::take().is_empty());
    }

    #[test]
    fn instruments_call_each_other_while_borrowed() {
        Instruments {
            trace: Some(TraceRecorder::new(64)),
            journal: Some(JournalRecorder::new()),
            checker: Some(InvariantChecker::new(0x1257)),
        }
        .install();
        // A watchdog hit inside `journal::with` emits a trace instant.
        journal::with(|j| {
            j.set_watchdog(JournalWatchdog {
                budget: SimDuration::from_nanos(10),
            });
            j.fault_begun(1, 0, 1, false, SimTime::ZERO, SimTime::from_nanos(50));
            j.fault_resolved(1);
        });
        // A violation inside `invariant::with` dumps the trace ring.
        invariant::with(|c| {
            c.note_event_time(SimTime::from_micros(2));
            c.note_event_time(SimTime::from_micros(1));
        });
        let Instruments {
            trace,
            journal,
            checker,
        } = Instruments::take();
        let instants: Vec<&str> = trace
            .as_ref()
            .expect("installed above")
            .records()
            .filter_map(|r| match r {
                TraceRecord::Instant { name, .. } => Some(*name),
                _ => None,
            })
            .collect();
        assert_eq!(instants, ["slo_violation"]);
        assert_eq!(journal.expect("installed above").slo_hits().len(), 1);
        assert_eq!(checker.expect("installed above").violations().len(), 1);
        let dump =
            std::env::temp_dir().join("chaos-violation-seed4695-time-monotonicity.trace.json");
        assert!(dump.exists(), "the violation wrote the trace ring");
        let _ = std::fs::remove_file(dump);
    }

    #[test]
    fn timeline_reset_restarts_every_clock() {
        Instruments {
            trace: Some(TraceRecorder::new(8)),
            journal: Some(JournalRecorder::new()),
            checker: Some(InvariantChecker::new(1)),
        }
        .install();
        trace::with(|t| t.set_clock(SimTime::from_millis(60)));
        journal::with(|j| j.set_clock(SimTime::from_millis(60)));
        invariant::with(|c| c.note_event_time(SimTime::from_millis(60)));
        let checks = invariant::with(|c| c.checks());
        note_timeline_reset();
        assert_eq!(invariant::with(|c| c.checks()), checks.map(|n| n + 1));
        assert_eq!(trace::with(|t| t.clock()), Some(SimTime::ZERO));
        journal::with(|j| j.mark(MarkKind::Eviction, 0));
        // Earlier than the last event before the reset: no violation.
        invariant::with(|c| c.note_event_time(SimTime::from_millis(1)));
        let taken = Instruments::take();
        let marks = taken.journal.expect("installed above");
        assert_eq!(marks.marks()[0].time, SimTime::ZERO);
        assert!(taken
            .checker
            .expect("installed above")
            .violations()
            .is_empty());
    }
}
