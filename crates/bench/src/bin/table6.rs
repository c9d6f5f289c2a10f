//! Regenerates Table 6: effective communication bandwidth (beff).
//!
//! Takes the standard flags (see `--help`). `--jobs` is the one worker
//! budget, shared by the experiment points and the testbeds inside
//! them; output is byte-identical at every value.
use npf_bench::tracectl::{run_tasks, task, RunOpts};

fn main() {
    let ctx = &RunOpts::init(&[]);
    let tasks = vec![task(|| npf_bench::ib_experiments::table6(20, 8))];
    run_tasks(ctx, tasks, |reports| {
        for r in &reports {
            print!("{}", r.render());
        }
    });
}
