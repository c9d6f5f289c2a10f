//! Multi-tenant scale-out sweep: 16→2048 IOchannels on one simulated
//! NIC, one pool task per (tenant count, seed) cell.
//!
//! Flags (all via `tracectl::RunOpts`):
//!
//! * `--tenants <n>`: run only the `n`-tenant cells (the CI smoke job
//!   uses `--tenants 64`); absent → the full 16→2048 sweep.
//! * `--arbiter <channel|rr|wfq>`: arbitration policy (default `wfq`).
//! * `--quota <entries>`: per-tenant backup-ring quota; `0` → shared
//!   pool (default 16).
//! * `--out <path>`: where to write the JSON artifact (default
//!   `BENCH_scale.json`; skipped under `--check`).
//! * `--check <path>`: compare this run's cells against a committed
//!   artifact and exit 1 on any drift. Only simulation-deterministic
//!   tallies are compared — wall-clock lands in the separate
//!   `timings` array, never in the checked cell lines.
//! * `--jobs <n>`: the worker budget (each cell is one coupling
//!   group). Output is byte-identical at every value.
//! * `--chaos-seed <n>`: inject faults into every cell (the tallies
//!   then differ from the committed artifact by design).

use npf_bench::scale::{self, ScaleCell};
use npf_bench::tracectl::{self, task, RunOpts};
use npf_core::ArbiterPolicy;

fn main() {
    let ctx = &RunOpts::init(&["out", "check"]);
    let policy = ctx.opts.arbiter.unwrap_or(ArbiterPolicy::WeightedFair);
    let quota = match ctx.opts.quota {
        Some(0) => None,
        Some(q) => Some(q),
        None => Some(16),
    };
    let tenant_counts: Vec<u32> = match ctx.opts.tenants {
        Some(t) => vec![t],
        None => scale::SWEEP_TENANTS.to_vec(),
    };

    let tasks = tenant_counts
        .iter()
        .flat_map(|&t| scale::SWEEP_SEEDS.iter().map(move |&s| (t, s)))
        .map(|(tenants, seed)| {
            task(move || {
                let t0 = std::time::Instant::now();
                let cell = scale::run_cell(ctx, tenants, seed, policy, quota);
                (
                    cell,
                    u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX),
                )
            })
        })
        .collect();
    let results: Vec<(ScaleCell, u64)> = tracectl::run(ctx, || ctx.pool(tasks));
    let cells: Vec<ScaleCell> = results.iter().map(|(c, _)| *c).collect();
    let wall_ms: Vec<u64> = results.iter().map(|(_, ms)| *ms).collect();
    print!("{}", scale::render_report(&cells).render());

    tracectl::check_or_write(
        &ctx.opts,
        "BENCH_scale.json",
        "scale sweep",
        |path, baseline| tracectl::cells_verdict(path, baseline, &cells, scale::cell_json),
        || scale::render_json(policy, quota, &cells, &wall_ms),
    );
}
