//! Regenerates Figure 7: dynamic working sets under a shared cgroup.
//!
//! Takes the standard flags (see `--help`). `--jobs` is the one worker
//! budget, shared by the experiment points and the testbeds inside
//! them; output is byte-identical at every value.
use npf_bench::tracectl::{run_tasks, task, RunOpts};

fn main() {
    let ctx = &RunOpts::init(&[]);
    let tasks = vec![task(|| npf_bench::eth_experiments::fig7(ctx, 30, 10))];
    run_tasks(ctx, tasks, |reports| {
        for r in &reports {
            print!("{}", r.render());
        }
    });
}
