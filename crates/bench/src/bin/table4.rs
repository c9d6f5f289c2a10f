//! Regenerates Table 4: tail latency of NPFs.
//!
//! Takes the standard flags (see `--help`). `--jobs` is the one worker
//! budget, shared by the experiment points and the testbeds inside
//! them; output is byte-identical at every value.
use npf_bench::tracectl::{run_tasks, task, RunOpts};

fn main() {
    let ctx = &RunOpts::init(&[]);
    let tasks = vec![task(|| npf_bench::micro::table4(3000))];
    run_tasks(ctx, tasks, |reports| {
        for r in &reports {
            print!("{}", r.render());
        }
    });
}
