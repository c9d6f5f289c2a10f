//! Regenerates Figure 9: IMB collectives under each registration
//! strategy.
//!
//! Takes the standard flags (see `--help`). `--jobs` is the one worker
//! budget, shared by the experiment points and the testbeds inside
//! them; output is byte-identical at every value.
use npf_bench::ib_experiments as ib;
use npf_bench::tracectl::{run_tasks, task, RunOpts};

fn main() {
    let ctx = &RunOpts::init(&[]);
    let tasks = vec![task(|| ib::fig9(30, 8)), task(|| ib::fig9_allreduce(30, 8))];
    run_tasks(ctx, tasks, |reports| {
        for (i, r) in reports.iter().enumerate() {
            if i > 0 {
                println!();
            }
            print!("{}", r.render());
        }
    });
}
