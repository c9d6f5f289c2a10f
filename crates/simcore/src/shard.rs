//! The worker pool: independent deterministic tasks fanned over
//! threads, with nothing about the schedule reaching the output.
//!
//! A run parallelizes at the granularity of **coupling groups**: sets
//! of domains that share zero-lookahead state (a host memory pool, a
//! fault arbiter, a backup ring, the link queues of a testbed) and
//! therefore must advance as one unit. Every task handed to a [`Pool`]
//! is one such group — a whole experiment point, a whole testbed, a
//! sweep cell — that exchanges no events with its siblings, so the only
//! thing the pool has to get right is instrumentation.
//!
//! # Determinism contract
//!
//! Whatever [`Instruments`] the calling thread has installed are taken
//! off it for the duration of the call. Every task then runs — on
//! whichever thread claims it, the caller's included — under their
//! mirror (fresh, empty instruments of the same kinds and settings) and
//! inside its own invariant-namespace range. After all tasks finish the
//! caller's instruments absorb the per-task state strictly in task
//! order and go back on. Nothing about thread interleaving, worker
//! count, or which thread ran what is observable; a call with one
//! worker and a call with eight produce the same bytes by construction.
//!
//! # One budget
//!
//! A [`Pool`] is a worker *budget*, shared by every clone. A call
//! always works through its tasks on the calling thread and borrows
//! helper threads only while the budget has some to spare, so a task
//! that itself calls the pool (a figure fanning out its testbeds under
//! a binary fanning out its figures) shares the budget instead of
//! multiplying it: at most `workers` task bodies run at any instant,
//! however deep the nesting.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::chaos::invariant;
use crate::instruments::Instruments;

/// A boxed task, as [`Pool::run`] consumes them.
pub type Task<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// Boxes a closure as a pool [`Task`].
pub fn task<'a, T>(run: impl FnOnce() -> T + Send + 'a) -> Task<'a, T> {
    Box::new(run)
}

/// Hardware threads available to this process (1 when unknown).
#[must_use]
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The thread count a pool call uses for a budget of `requested`
/// workers over `tasks` work items on a host with `host` hardware
/// threads.
///
/// Beyond the obvious clamp to `[1, tasks]`, a single-hardware-thread
/// host always runs inline: spawned workers would time-slice the one
/// core the caller's thread already owns, so the pool would pay spawn,
/// mutex, and scheduling overhead to execute the exact same serial
/// order (output is byte-identical either way, so only wall-clock
/// changes).
#[must_use]
pub fn effective_shards(requested: usize, tasks: usize, host: usize) -> usize {
    if host <= 1 {
        return 1;
    }
    requested.clamp(1, tasks.max(1))
}

/// A budget of worker threads; see the module docs. Clones share the
/// budget.
#[derive(Debug, Clone)]
pub struct Pool {
    workers: usize,
    host: usize,
    /// Threads of the budget not running anything right now, beyond
    /// the one the process started with.
    spare: Arc<AtomicUsize>,
}

impl Default for Pool {
    /// A serial pool: every call runs inline on the caller's thread.
    fn default() -> Self {
        Pool::new(1)
    }
}

impl Pool {
    /// A budget of `workers` threads (at least 1) on this host.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Pool::on_host(workers, host_parallelism())
    }

    /// [`Pool::new`] with the hardware-thread count given instead of
    /// measured, so a test can make a one-core host spawn (or a
    /// many-core host run inline); see [`effective_shards`].
    #[must_use]
    pub fn on_host(workers: usize, host: usize) -> Self {
        let workers = workers.max(1);
        Pool {
            workers,
            host,
            spare: Arc::new(AtomicUsize::new(workers - 1)),
        }
    }

    /// The budget this pool was created with.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Borrows up to `want` threads from the budget; returns how many
    /// it got. The counter hands out permits only — task data travels
    /// through the slot mutexes and the scope join — so `Relaxed` is
    /// enough.
    fn borrow(&self, want: usize) -> usize {
        let mut got = 0;
        let _ = self
            .spare
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |spare| {
                got = want.min(spare);
                Some(spare - got)
            });
        got
    }

    /// Runs `tasks` and returns their results in task order, under the
    /// module's determinism contract.
    ///
    /// # Panics
    ///
    /// A panic in a task propagates once the other threads have
    /// finished the tasks they are running.
    pub fn run<T: Send>(&self, tasks: Vec<Task<'_, T>>) -> Vec<T> {
        let n = tasks.len();
        let helpers = self.borrow(effective_shards(self.workers, n, self.host) - 1);
        let mut caller = Instruments::take();
        let (ns_base, ns_span) = invariant::split_namespaces(n);
        let inputs: Vec<Mutex<Option<Task<'_, T>>>> =
            tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let outputs: Vec<Mutex<Option<(T, Instruments)>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let worker = || loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return;
            }
            let task = inputs[i]
                .lock()
                .expect("a task panicked holding its input slot")
                .take()
                .expect("each task index is claimed exactly once");
            caller.mirror().install();
            let result = invariant::with_namespaces(ns_base + i as u64 * ns_span, ns_span, task);
            *outputs[i]
                .lock()
                .expect("a task panicked holding its result slot") =
                Some((result, Instruments::take()));
        };
        std::thread::scope(|s| {
            for _ in 0..helpers {
                s.spawn(|| {
                    worker();
                    // Out of tasks: hand the thread back at once, so a
                    // sibling still running can fan out wider.
                    self.spare.fetch_add(1, Ordering::Relaxed);
                });
            }
            worker();
        });
        let results = outputs
            .into_iter()
            .map(|slot| {
                let (result, instruments) = slot
                    .into_inner()
                    .expect("a task panicked holding its result slot")
                    .expect("the worker loop fills every slot");
                caller.absorb(instruments);
                result
            })
            .collect();
        caller.install();
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};
    use std::sync::Barrier;

    #[test]
    fn single_core_hosts_always_run_inline() {
        // `--jobs 4` on a 1-core runner must not spawn contending
        // workers.
        assert_eq!(effective_shards(4, 16, 1), 1);
        assert_eq!(effective_shards(4, 3, 1), 1);
        assert_eq!(effective_shards(0, 16, 1), 1);
        // Multi-core hosts keep the requested count, clamped to the
        // task count.
        assert_eq!(effective_shards(4, 16, 8), 4);
        assert_eq!(effective_shards(8, 3, 8), 3);
        assert_eq!(effective_shards(0, 3, 8), 1);
        assert_eq!(effective_shards(2, 0, 8), 1);
    }

    #[test]
    fn results_come_back_in_task_order() {
        let tasks: Vec<Task<'_, u64>> = (0..16u64).map(|i| task(move || i * i)).collect();
        let out = Pool::on_host(4, 8).run(tasks);
        assert_eq!(out, (0..16u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn a_one_worker_budget_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let tasks: Vec<Task<'_, std::thread::ThreadId>> = (0..3)
            .map(|_| task(|| std::thread::current().id()))
            .collect();
        let out = Pool::on_host(1, 8).run(tasks);
        assert!(out.iter().all(|&id| id == caller));
    }

    #[test]
    fn instruments_are_mirrored_per_task_and_absorbed_in_task_order() {
        use crate::chaos::InvariantChecker;
        use crate::trace::{self, ArgValue, TraceRecorder};

        // The caller records and checks; every task must see fresh
        // instruments of the same kinds (never the caller's own), and
        // the caller's must come back holding everything in task order.
        let caller = Instruments {
            trace: Some(TraceRecorder::new(1 << 10)),
            checker: Some(InvariantChecker::new(5)),
            ..Instruments::default()
        };
        assert!(caller.install().is_empty());
        trace::with(|t| t.metrics_mut().counter_add("caller.before", 1));
        let tasks: Vec<Task<'_, (Option<u64>, Option<u64>)>> = (0..6u64)
            .map(|i| {
                Box::new(move || {
                    let seen_before = trace::with(|t| {
                        let d = SimDuration::from_micros(1);
                        let args = vec![("i", ArgValue::U64(i))];
                        t.complete_span(SimTime::from_micros(i), d, "shard", "task", None, args);
                        t.metrics_mut().counter_add("shard.tasks", 1);
                        t.metrics().counter("caller.before")
                    });
                    invariant::with(|c| {
                        c.note_event_time(SimTime::from_micros(1));
                        // Backwards inside the same task: one violation.
                        c.note_event_time(SimTime::ZERO);
                    });
                    (seen_before, invariant::with(|c| c.seed()))
                }) as Task<'_, _>
            })
            .collect();
        let out = Pool::on_host(3, 8).run(tasks);
        assert!(out
            .iter()
            .all(|&(before, seed)| before == Some(0) && seed == Some(5)));
        let back = Instruments::take();
        assert!(back.journal.is_none(), "no journal was mirrored");
        let checker = back.checker.expect("still installed");
        assert_eq!(checker.violations().len(), 6);
        assert!(checker.checks() >= 12);
        let rec = back.trace.expect("still installed");
        assert_eq!(rec.metrics().counter("caller.before"), 1);
        assert_eq!(rec.metrics().counter("shard.tasks"), 6);
        let starts: Vec<SimTime> = rec
            .spans()
            .filter_map(|r| match r {
                crate::trace::TraceRecord::Span { start, .. } => Some(*start),
                _ => None,
            })
            .collect();
        assert_eq!(
            starts,
            (0..6u64).map(SimTime::from_micros).collect::<Vec<_>>(),
            "absorb preserved task order"
        );
    }

    #[test]
    fn nested_tasks_get_disjoint_namespace_ranges() {
        let pool = Pool::on_host(2, 8);
        let outer: Vec<Task<'_, Vec<u64>>> = (0..3)
            .map(|_| {
                Box::new(|| {
                    let mut seen = vec![invariant::fresh_namespace()];
                    // Two inner fan-outs from one task must not reuse
                    // each other's ranges either.
                    for _ in 0..2 {
                        let inner: Vec<Task<'_, u64>> = (0..4)
                            .map(|_| Box::new(invariant::fresh_namespace) as Task<'_, u64>)
                            .collect();
                        seen.extend(pool.run(inner));
                    }
                    seen.push(invariant::fresh_namespace());
                    seen
                }) as Task<'_, _>
            })
            .collect();
        let first = pool.run(outer);
        let mut all: Vec<u64> = first.iter().flatten().copied().collect();
        assert!(all.iter().all(|&ns| ns < 1 << 24), "frame keys shift by 40");
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 3 * (2 + 2 * 4), "every namespace is distinct");
    }

    #[test]
    fn nested_calls_share_one_budget() {
        // 4 outer × 4 inner tasks on a budget of 3. The barrier forces
        // three outer bodies onto three threads at once, so the budget
        // is really spent when their inner calls start; a pool that
        // multiplied budgets would then run up to 9 inner bodies.
        let pool = Pool::on_host(3, 8);
        let gate = Barrier::new(3);
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let outer: Vec<Task<'_, Vec<usize>>> = (0..4usize)
            .map(|o| {
                let (pool, gate, running, peak) = (&pool, &gate, &running, &peak);
                Box::new(move || {
                    if o < 3 {
                        gate.wait();
                    }
                    let inner: Vec<Task<'_, usize>> = (0..4usize)
                        .map(|i| {
                            Box::new(move || {
                                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                                peak.fetch_max(now, Ordering::SeqCst);
                                std::thread::sleep(std::time::Duration::from_millis(2));
                                running.fetch_sub(1, Ordering::SeqCst);
                                o * 4 + i
                            }) as Task<'_, usize>
                        })
                        .collect();
                    pool.run(inner)
                }) as Task<'_, _>
            })
            .collect();
        let out = pool.run(outer);
        let expect: Vec<Vec<usize>> = (0..4).map(|o| (o * 4..o * 4 + 4).collect()).collect();
        assert_eq!(out, expect, "task order at both levels");
        assert!(
            peak.load(Ordering::SeqCst) <= 3,
            "{} task bodies ran at once on a budget of 3",
            peak.load(Ordering::SeqCst)
        );
        assert_eq!(pool.spare.load(Ordering::SeqCst), 2, "budget returned");
    }
}
