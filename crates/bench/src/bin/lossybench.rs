//! Lossy-fabric transport differential: the identical cold-ring
//! incast run under {lossless + PFC, 0.01%–1% random loss} × {go-back-N,
//! IRN-style selective repeat} × {firmware, softemu, pinned}, one pool
//! task per cell.
//!
//! Flags (all via `tracectl::RunOpts`):
//!
//! * `--transport <gbn|irn>`: run only that transport's cells; absent →
//!   both.
//! * `--backend <firmware|softemu|pinned>`: run only that backend's
//!   cells; absent → all three.
//! * `--out <path>`: where to write the JSON artifact (default
//!   `BENCH_lossy.json`; skipped under `--check`).
//! * `--check <path>`: compare this run's cells against a committed
//!   artifact and exit 1 on any drift. Only simulation-deterministic
//!   tallies are compared — wall-clock never enters the file.
//! * `--jobs <n>`: the worker budget (each cell is one coupling
//!   group). Output is byte-identical at every value.

use netsim::profile::RdmaTransport;
use npf_bench::lossy::{self, LossyCell};
use npf_bench::tracectl::{self, task, RunOpts};
use npf_core::BackendKind;

fn main() {
    let ctx = &RunOpts::init(&["out", "check"]);
    let transports: Vec<RdmaTransport> = match ctx.opts.transport {
        Some(t) => vec![t],
        None => lossy::SWEEP_TRANSPORTS.to_vec(),
    };
    let backends: Vec<BackendKind> = match ctx.opts.backend {
        Some(k) => vec![k],
        None => lossy::SWEEP_BACKENDS.to_vec(),
    };

    let mut tasks = Vec::new();
    for p in lossy::sweep_profiles() {
        for &t in &transports {
            for &b in &backends {
                tasks.push(task(move || lossy::run_cell(ctx, p, t, b)));
            }
        }
    }
    let cells: Vec<LossyCell> = tracectl::run(ctx, || ctx.pool(tasks));
    print!("{}", lossy::render_report(&cells).render());

    tracectl::check_or_write(
        &ctx.opts,
        "BENCH_lossy.json",
        "lossy transport differential",
        |path, baseline| tracectl::cells_verdict(path, baseline, &cells, lossy::cell_json),
        || lossy::render_json(&cells),
    );
}
