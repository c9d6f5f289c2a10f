//! Memory overcommitment with direct network I/O (§6.1, Table 5).
//!
//! Four memcached VMs, each believing it has 3 GB, on an 8 GB host.
//! With static pinning the third VM cannot even start; with NPFs all
//! four run, because physical memory follows actual use.
//!
//! Run with: `cargo run --release --example memcached_overcommit`

use simcore::{ByteSize, SimTime};
use testbed::builder::{EthScenario, ScenarioBuilder};
use testbed::eth::RxMode;
use workloads::memcached::MemcachedConfig;

fn main() {
    let scenario = |mode, instances| {
        ScenarioBuilder::ethernet()
            .mode(mode)
            .instances(instances)
            .conns_per_instance(16)
            .host_memory(ByteSize::gib(8))
            .memcached(MemcachedConfig {
                max_bytes: ByteSize::gib(3), // what the VM thinks it has
                ..MemcachedConfig::default()
            })
            .working_set_keys(1_200_000) // ~1.2 GB actually used
    };

    println!("8 GB host; each memcached VM is allocated 3 GB but uses ~1.2 GB\n");
    println!("{:>10} {:>14} {:>14}", "instances", "NPF", "static pinning");
    for n in 1..=4 {
        let npf = run(scenario(RxMode::Backup, n));
        let pin = run(scenario(RxMode::Pin, n));
        println!(
            "{n:>10} {:>14} {:>14}",
            npf.map_or("-".into(), |k| format!("{k} KTPS")),
            pin.map_or("cannot start".into(), |k| format!("{k} KTPS")),
        );
    }
    println!("\npinning reserves 3 GB per VM up front (2 x 3 = 6 GB fits, 3 x 3 = 9 GB does not);");
    println!("NPFs back only the pages each VM actually touches");
}

fn run(scenario: EthScenario) -> Option<u64> {
    let mut bed = scenario.build().ok()?;
    bed.run_until(SimTime::from_secs(1));
    let before = bed.total_ops();
    bed.run_until(SimTime::from_secs(3));
    Some((bed.total_ops() - before) / 2 / 1000)
}
