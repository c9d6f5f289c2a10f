//! ODP backend differential: the identical Ethernet scenario run
//! under the firmware NPF path, the NP-RDMA-style software emulation,
//! and the pinned baseline, one pool task per (backend, seed) cell.
//!
//! Flags (all via `tracectl::RunOpts`):
//!
//! * `--backend <firmware|softemu|pinned>`: run only that backend's
//!   cells; absent → all three.
//! * `--out <path>`: where to write the JSON artifact (default
//!   `BENCH_backend.json`; skipped under `--check`).
//! * `--check <path>`: compare this run's cells against a committed
//!   artifact and exit 1 on any drift. Only simulation-deterministic
//!   tallies are compared — wall-clock never enters the file.
//! * `--jobs <n>`: the worker budget; output is byte-identical at
//!   every value.
//! * `--chaos-seed <n>`: inject faults into every cell (the tallies
//!   then differ from the committed artifact by design).

use npf_bench::backends::{self, BackendCell};
use npf_bench::tracectl::{self, task, RunOpts};

fn main() {
    let ctx = &RunOpts::init(&["out", "check"]);
    let backend_kinds: Vec<_> = match ctx.opts.backend {
        Some(k) => vec![k],
        None => backends::SWEEP_BACKENDS.to_vec(),
    };

    let tasks = backend_kinds
        .iter()
        .flat_map(|&b| backends::SWEEP_SEEDS.iter().map(move |&s| (b, s)))
        .map(|(backend, seed)| task(move || backends::run_cell(ctx, backend, seed)))
        .collect();
    let cells: Vec<BackendCell> = tracectl::run(ctx, || {
        let cells = ctx.pool(tasks);
        print!("{}", backends::render_report(&cells).render());
        cells
    });

    tracectl::check_or_write(
        &ctx.opts,
        "BENCH_backend.json",
        "backend differential",
        |path, baseline| tracectl::cells_verdict(path, baseline, &cells, backends::cell_json),
        || backends::render_json(&cells),
    );
}
