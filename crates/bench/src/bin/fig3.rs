//! Regenerates Figure 3: NPF and invalidation execution breakdown.
//!
//! Pass `--trace <path>` to record a Perfetto-loadable Chrome trace of
//! the run, and/or `--metrics <path>` for the flat metrics registry.
use npf_bench::tracectl::{run_tasks, task, RunOpts};

fn main() {
    let ctx = &RunOpts::init(&[]);
    let tasks = vec![task(|| npf_bench::micro::fig3(500))];
    run_tasks(ctx, tasks, |reports| {
        for r in &reports {
            print!("{}", r.render());
        }
    });
}
