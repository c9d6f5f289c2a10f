//! Regenerates Figure 8: storage bandwidth and memory usage.
//!
//! Takes the standard flags (see `--help`). `--jobs` is the one worker
//! budget, shared by the experiment points and the testbeds inside
//! them; output is byte-identical at every value.
use npf_bench::ib_experiments as ib;
use npf_bench::tracectl::{run_tasks, task, RunOpts};

fn main() {
    let ctx = &RunOpts::init(&[]);
    let tasks = vec![task(|| ib::fig8a(ctx, 4000)), task(|| ib::fig8b(ctx, 1500))];
    run_tasks(ctx, tasks, |reports| {
        for (i, r) in reports.iter().enumerate() {
            if i > 0 {
                println!();
            }
            print!("{}", r.render());
        }
    });
}
