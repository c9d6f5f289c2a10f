//! Calibration helper: prints per-instance-count throughput so the
//! Table 5 constants (`CPU_PER_OP`, interrupt holdoff) can be re-tuned
//! if the cost model changes.
//!
//! Run with: `cargo run --release -p npf-bench --example calibrate_table5`

fn main() {
    use simcore::{ByteSize, SimTime};
    use testbed::builder::ScenarioBuilder;
    use testbed::eth::RxMode;
    use workloads::memcached::MemcachedConfig;
    for n in [1u32, 2, 3, 4] {
        let scenario = ScenarioBuilder::ethernet()
            .mode(RxMode::Backup)
            .instances(n)
            .memcached(MemcachedConfig {
                max_bytes: ByteSize::gib(3),
                ..MemcachedConfig::default()
            })
            .working_set_keys(1_800_000);
        let mut bed = scenario.build().expect("valid scenario");
        bed.run_until(SimTime::from_secs(1));
        let before = bed.total_ops();
        bed.run_until(SimTime::from_secs(3));
        println!(
            "{n} instances: {} KTPS",
            (bed.total_ops() - before) / 2 / 1000
        );
    }
}
