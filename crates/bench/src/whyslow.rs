//! Tail-latency attribution (the `whyslow` binary's engine).
//!
//! Answers the question every overcommitted deployment asks about
//! Figure 4's tails: *which phase of the NPF pipeline made the slow
//! faults slow?* It re-runs the multi-tenant memcached-overcommit
//! scenario from [`crate::scale`] with the [`simcore::journal`]
//! fault-lifecycle recorder installed, merges the per-seed journals in
//! task order, and renders the per-tenant per-phase p50/p99/p999
//! attribution table. Every number is simulation-deterministic: the
//! artifact is byte-identical at every `--jobs` value, so CI diffs it
//! and `--check` pins it against a committed golden copy.

use npf_core::ArbiterPolicy;
use simcore::instruments::Instruments;
use simcore::journal::{JournalRecorder, JournalWatchdog};
use simcore::time::SimDuration;

use crate::scale;
use crate::tracectl::{self, task, RunCtx};

/// The seeds a whyslow run shards across (matching the scale sweep).
pub const DEFAULT_SEEDS: &[u64] = &[1, 2];

/// Tenant count of the paper-sized overcommit scenario.
pub const OVERCOMMIT_TENANTS: u32 = 64;

/// Tenant count of the CI-sized smoke scenario.
pub const SMALL_TENANTS: u32 = 4;

/// Resolves a `--scenario` name to its tenant count. `overcommit` is
/// the paper-sized 64-tenant run; `small` (alias `fig3`) keeps the CI
/// byte-diff job cheap.
///
/// # Errors
///
/// Returns a one-line description for an unknown scenario name.
pub fn scenario_tenants(name: &str) -> Result<u32, String> {
    match name {
        "overcommit" => Ok(OVERCOMMIT_TENANTS),
        "small" | "fig3" => Ok(SMALL_TENANTS),
        other => Err(format!(
            "unknown --scenario {other:?} (try \"overcommit\" or \"small\")"
        )),
    }
}

/// Runs the scenario's cells — one pool task per seed, each an
/// independent [`scale::run_cell`] under its own journal (armed with
/// the `budget` SLO watchdog, if any) and, when `ctx` asks for chaos,
/// its own invariant checker — and returns the journal merged in seed
/// order plus the number of invariant violations.
///
/// # Panics
///
/// Panics when the calling thread already has instruments installed.
#[must_use]
pub fn run_scenario(
    ctx: &RunCtx,
    tenants: u32,
    seeds: &[u64],
    policy: ArbiterPolicy,
    budget: Option<SimDuration>,
) -> (JournalRecorder, usize) {
    let mut root = JournalRecorder::new();
    if let Some(budget) = budget {
        root.set_watchdog(JournalWatchdog { budget });
    }
    let asked = Instruments {
        journal: Some(root),
        checker: tracectl::chaos_checker(ctx.opts.chaos),
        ..Instruments::default()
    };
    assert!(
        asked.install().is_empty(),
        "instruments were already installed"
    );
    ctx.pool(
        seeds
            .iter()
            .map(|&seed| task(move || scale::run_cell(ctx, tenants, seed, policy, Some(16))))
            .collect(),
    );
    let Instruments {
        journal, checker, ..
    } = Instruments::take();
    let violations = checker.map_or(0, |c| c.violations().len());
    (journal.expect("journal installed above"), violations)
}

/// Faults whose phase sums disagree with their end-to-end latency.
/// The journal constructs slices that tile `[begun, ready_at]`, so
/// anything nonzero here is an instrumentation bug.
#[must_use]
pub fn exact_sum_violations(journal: &JournalRecorder) -> usize {
    journal
        .faults()
        .iter()
        .filter(|f| f.phase_sum() != f.latency())
        .count()
}

/// The committed artifact: a scenario header, the attribution table,
/// and any SLO hits. Deterministic in `(tenants, policy, seeds)` —
/// byte-identical at every `--jobs` value.
#[must_use]
pub fn render_artifact(
    tenants: u32,
    policy: ArbiterPolicy,
    seeds: &[u64],
    journal: &JournalRecorder,
) -> String {
    let seed_list = seeds
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let mut out = format!(
        "whyslow: {} tenants, arbiter {}, seeds [{}], horizon {}us\n",
        tenants,
        policy.name(),
        seed_list,
        scale::CELL_HORIZON.as_micros()
    );
    out.push_str(&journal.attribution_report());
    out.push_str(&journal.slo_report());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scenario_attributes_every_fault_exactly() {
        let (journal, violations) = run_scenario(
            &RunCtx::default(),
            SMALL_TENANTS,
            &[1],
            ArbiterPolicy::WeightedFair,
            None,
        );
        assert_eq!(violations, 0);
        assert!(!journal.faults().is_empty(), "cold rings must fault");
        assert_eq!(exact_sum_violations(&journal), 0);
        assert_eq!(journal.unbalanced_faults(), 0);
        let report = journal.attribution_report();
        assert!(report.contains("journal:"), "{report}");
        assert!(report.contains("queue"), "{report}");
    }

    #[test]
    fn artifact_is_byte_identical_across_jobs() {
        let render = |host| {
            let ctx = RunCtx::default().with_pool(simcore::shard::Pool::on_host(4, host));
            let (journal, _) = run_scenario(
                &ctx,
                SMALL_TENANTS,
                DEFAULT_SEEDS,
                ArbiterPolicy::WeightedFair,
                Some(SimDuration::from_micros(50)),
            );
            render_artifact(
                SMALL_TENANTS,
                ArbiterPolicy::WeightedFair,
                DEFAULT_SEEDS,
                &journal,
            )
        };
        // One hardware thread runs the cells inline; four spawn workers.
        assert_eq!(render(1), render(4));
    }

    #[test]
    fn scenario_names_resolve() {
        assert_eq!(scenario_tenants("overcommit"), Ok(OVERCOMMIT_TENANTS));
        assert_eq!(scenario_tenants("small"), Ok(SMALL_TENANTS));
        assert_eq!(scenario_tenants("fig3"), Ok(SMALL_TENANTS));
        assert!(scenario_tenants("gremlins").is_err());
    }
}
