//! Ablations of the paper's design choices.
//!
//! Takes the standard flags (see `--help`). `--jobs` is the one worker
//! budget, shared by the experiment points and the testbeds inside
//! them; output is byte-identical at every value.
use npf_bench::ablations;
use npf_bench::tracectl::{run_tasks, task, RunOpts};

fn main() {
    let ctx = &RunOpts::init(&[]);
    let tasks = vec![
        task(ablations::ablation_batching),
        task(ablations::ablation_firmware_bypass),
        task(ablations::ablation_concurrency),
        task(|| ablations::ablation_pindown_sweep(30)),
        task(ablations::ablation_read_rnr),
        task(ablations::ablation_prefaulting),
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
