//! Regenerates Figure 3 from recorded spans: every NPF's parent span is
//! decomposed into its `fault_trigger`/`driver_sw`/`os_translate`/
//! `update_hw_pt`/`resume` children and the per-component averages are
//! cross-checked against the cost model (acceptance: within 1%).
//!
//! Pass `--trace <path>` to also export the recorded spans as a
//! Perfetto-loadable Chrome trace.
use npf_bench::tracectl::{run_tasks, task, RunOpts};

fn main() {
    let ctx = &RunOpts::init(&[]);
    let tasks = vec![task(|| npf_bench::micro::fig3_traced(500))];
    run_tasks(ctx, tasks, |reports| {
        for r in &reports {
            print!("{}", r.render());
        }
    });
}
