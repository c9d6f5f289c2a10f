//! The cold ring problem, live (§5, Figure 4).
//!
//! Starts three identical memcached servers behind a direct Ethernet
//! channel — one with pinned buffers, one that drops faulting packets,
//! one with the backup ring — and prints their throughput second by
//! second from a cold start.
//!
//! Run with: `cargo run --release --example cold_ring`

use simcore::{ByteSize, SimTime};
use testbed::builder::ScenarioBuilder;
use testbed::eth::{EthTestbed, RxMode};
use workloads::memcached::MemcachedConfig;

fn main() {
    let bed = |mode| {
        ScenarioBuilder::ethernet()
            .mode(mode)
            .instances(1)
            .conns_per_instance(16)
            .ring_entries(64)
            .host_memory(ByteSize::gib(4))
            .memcached(MemcachedConfig {
                max_bytes: ByteSize::mib(512),
                ..MemcachedConfig::default()
            })
            .working_set_keys(100_000)
            .build()
    };

    println!("cold start, 64-entry receive ring, 16 connections");
    println!(
        "{:>4}  {:>12} {:>12} {:>12}",
        "t[s]", "pin", "backup", "drop"
    );
    let mut beds: Vec<(&str, EthTestbed)> = vec![
        ("pin", bed(RxMode::Pin).expect("pin setup")),
        ("backup", bed(RxMode::Backup).expect("backup setup")),
        ("drop", bed(RxMode::Drop).expect("drop setup")),
    ];
    let mut last = vec![0u64; beds.len()];
    for sec in 1..=20u64 {
        let mut row = format!("{sec:>4}");
        for (i, (_, bed)) in beds.iter_mut().enumerate() {
            bed.run_until(SimTime::from_secs(sec));
            let total = bed.total_ops();
            let rate = (total - last[i]) / 1000;
            last[i] = total;
            row.push_str(&format!("  {rate:>9} K/s"));
        }
        println!("{row}");
    }
    println!();
    for (name, bed) in &beds {
        println!(
            "{name:>7}: {} ops total, {} rNPF backup packets, {} dropped-on-fault, {} failed conns",
            bed.total_ops(),
            bed.rx_counters().get("backup_stored"),
            bed.rx_counters().get("dropped_fault"),
            bed.total_failed_conns(),
        );
    }
    println!("\nthe backup ring rides through the cold ring; dropping nearly deadlocks TCP");
}
