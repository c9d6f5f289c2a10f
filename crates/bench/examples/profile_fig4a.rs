//! Profiling driver: one reduced fig4a run (the enginebench wall-clock
//! workload) so a sampling profiler sees only the experiment.

fn main() {
    let r = npf_bench::eth_experiments::fig4a(&npf_bench::RunCtx::default(), 4);
    std::hint::black_box(r.row_count());
}
