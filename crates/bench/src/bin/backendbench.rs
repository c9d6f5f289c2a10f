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
//! * `--jobs <n>` / `--shards <n>`: the worker budget (the larger
//!   wins); output is byte-identical at every value.
//! * `--chaos-seed <n>`: inject faults into every cell (the tallies
//!   then differ from the committed artifact by design).

use npf_bench::backends::{self, BackendCell};
use npf_bench::tracectl::{self, task, RunOpts};

fn main() {
    let ctx = &RunOpts::init(&["out", "check"]);
    let out_path = ctx.opts.extra("out").unwrap_or("BENCH_backend.json");
    let check_path = ctx.opts.extra("check");
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

    if let Some(path) = check_path {
        let baseline = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("failed to read baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        let drifted = backends::check_against(&baseline, &cells);
        if drifted.is_empty() {
            println!("all {} cells match {path}", cells.len());
        } else {
            for line in &drifted {
                eprintln!("drifted from {path}: {line}");
            }
            eprintln!(
                "{} of {} cells drifted from {path}",
                drifted.len(),
                cells.len()
            );
            std::process::exit(1);
        }
    } else {
        let json = backends::render_json(&cells);
        if let Err(e) = std::fs::write(out_path, &json) {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(2);
        }
        println!("backend differential written to {out_path}");
    }
}
