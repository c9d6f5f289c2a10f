//! Regenerates Figure 4: the cold ring problem.
//!
//! Takes the standard flags (see `--help`). `--jobs` is the one worker
//! budget, shared by the experiment points and the testbeds inside
//! them; output is byte-identical at every value.
use npf_bench::eth_experiments as eth;
use npf_bench::tracectl::{run_tasks, task, RunOpts};

fn main() {
    let ctx = &RunOpts::init(&[]);
    let tasks = vec![
        task(|| eth::fig4a(ctx, 20)),
        task(|| eth::fig4b(ctx, 10_000, 150)),
    ];
    run_tasks(ctx, tasks, |reports| {
        for (i, r) in reports.iter().enumerate() {
            if i > 0 {
                println!();
            }
            print!("{}", r.render());
        }
    });
}
