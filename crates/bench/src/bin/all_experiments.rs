//! Runs every experiment (E1-E12 plus ablations) and prints the full
//! report document — the source of `EXPERIMENTS.md`.
//!
//! Takes the standard flags (see `--help`). `--jobs` is the one worker
//! budget, shared by the experiment points and the testbeds inside
//! them; output is byte-identical at every value.
use npf_bench::tracectl::{run_tasks, task, RunOpts};
use npf_bench::{ablations, eth_experiments as eth, ib_experiments as ib, micro};

fn main() {
    let ctx = &RunOpts::init(&[]);
    let t0 = std::time::Instant::now();
    let tasks = vec![
        task(|| micro::fig3(500)),
        task(|| micro::fig3_traced(500)),
        task(|| micro::table4(3000)),
        task(|| eth::fig4a(ctx, 20)),
        task(|| eth::fig4b(ctx, 10_000, 150)),
        task(|| eth::table5(ctx, 4)),
        task(|| eth::fig7(ctx, 30, 10)),
        task(|| ib::fig8a(ctx, 4000)),
        task(|| ib::fig8b(ctx, 1500)),
        task(|| ib::fig9(30, 8)),
        task(|| ib::fig9_allreduce(30, 8)),
        task(|| ib::table6(20, 8)),
        task(|| ib::fig10_ethernet(ctx, 500)),
        task(|| ib::fig10_infiniband(ctx, 3000)),
        task(ablations::ablation_batching),
        task(ablations::ablation_firmware_bypass),
        task(ablations::ablation_concurrency),
        task(|| ablations::ablation_pindown_sweep(30)),
        task(ablations::ablation_read_rnr),
        task(ablations::ablation_prefaulting),
    ];
    run_tasks(ctx, tasks, |reports| {
        for r in &reports {
            print!("{}", r.render());
            println!();
        }
    });
    eprintln!(
        "all experiments finished in {:.1}s",
        t0.elapsed().as_secs_f64()
    );
}
