//! Tail-latency attribution for the multi-tenant overcommit scenario:
//! which NPF pipeline phase made the slow faults slow?
//!
//! Flags (all via `tracectl::RunOpts`):
//!
//! * `--scenario <overcommit|small>`: 64-tenant paper-sized run
//!   (default) or the CI-sized 4-tenant smoke run (`fig3` is an alias
//!   for `small`).
//! * `--tenants <n>`: override the scenario's tenant count.
//! * `--arbiter <channel|rr|wfq>`: arbitration policy (default `wfq`).
//! * `--budget-us <n>`: arm the journal's SLO watchdog — any fault
//!   slower than `n` microseconds prints its causal chain on stderr.
//! * `--out <path>`: where to write the attribution artifact (default
//!   `BENCH_whyslow.txt`; skipped under `--check`).
//! * `--check <path>`: byte-compare this run's artifact against a
//!   committed golden copy and exit 1 on drift.
//! * `--journal <path>`: additionally write the merged journal as
//!   Chrome flow-event JSON (Perfetto-loadable).
//! * `--jobs <n>`: the worker budget; the artifact is byte-identical
//!   at every value.

use npf_bench::tracectl::{self, RunOpts};
use npf_bench::whyslow;
use npf_core::ArbiterPolicy;
use simcore::time::SimDuration;

fn main() {
    let ctx = RunOpts::init(&["out", "check", "scenario", "budget-us"]);
    let opts = &ctx.opts;
    let scenario = opts.extra("scenario").unwrap_or("overcommit");
    let tenants = match whyslow::scenario_tenants(scenario) {
        Ok(t) => opts.tenants.unwrap_or(t),
        Err(e) => {
            eprintln!("whyslow: error: {e}");
            std::process::exit(2);
        }
    };
    let policy = opts.arbiter.unwrap_or(ArbiterPolicy::WeightedFair);
    let budget = opts.extra("budget-us").map(|v| {
        let us = v.parse::<u64>().unwrap_or_else(|e| {
            eprintln!("whyslow: error: --budget-us must be an integer: {e}");
            std::process::exit(2);
        });
        SimDuration::from_micros(us)
    });

    let (journal, violations) =
        whyslow::run_scenario(&ctx, tenants, whyslow::DEFAULT_SEEDS, policy, budget);

    // The journal's contract: phase slices tile [begun, ready_at], so
    // each fault's attribution sums to its latency exactly.
    let broken = whyslow::exact_sum_violations(&journal);
    assert_eq!(broken, 0, "{broken} faults with inexact phase sums");
    assert_eq!(
        journal.unbalanced_faults(),
        0,
        "journal phase slices must tile each fault's lifetime"
    );

    let artifact = whyslow::render_artifact(tenants, policy, whyslow::DEFAULT_SEEDS, &journal);
    print!("{artifact}");

    if let Some(path) = &opts.journal {
        match std::fs::write(path, journal.export_chrome_json()) {
            Ok(()) => eprintln!("fault journal written to {}", path.display()),
            Err(e) => eprintln!("failed to write fault journal to {}: {e}", path.display()),
        }
    }

    if violations > 0 {
        eprintln!("whyslow: {violations} invariant violation(s) under chaos");
        std::process::exit(1);
    }

    tracectl::check_or_write(
        opts,
        "BENCH_whyslow.txt",
        "attribution",
        |path, baseline| {
            if baseline == artifact {
                Ok(format!("attribution matches {path}"))
            } else {
                Err(vec![format!("attribution drifted from {path}")])
            }
        },
        || artifact.clone(),
    );
}
