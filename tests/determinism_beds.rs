//! Reproducibility: every testbed is bit-for-bit deterministic in its
//! seed.

use simcore::time::SimDuration;
use testbed::mpi_run::{run_collective, MpiRunConfig};
use testbed::storage_bed::{run_storage, StorageBedConfig};
use testbed::stream_eth::{run_stream, StreamBedConfig, StreamMode};

#[test]
fn stream_bed_is_deterministic() {
    let cfg = StreamBedConfig {
        fault_frequency: 1.0 / 2048.0,
        mode: StreamMode::Backup,
        duration: SimDuration::from_millis(200),
        ..StreamBedConfig::default()
    };
    let a = run_stream(cfg);
    let b = run_stream(cfg);
    assert_eq!(a.goodput_gbps.to_bits(), b.goodput_gbps.to_bits());
    assert_eq!(a.faults_injected, b.faults_injected);
    assert_eq!(a.backup_packets, b.backup_packets);
}

#[test]
fn storage_bed_is_deterministic() {
    let cfg = StorageBedConfig {
        total_ios: 200,
        target_memory: simcore::ByteSize::gib(2),
        pinned_headroom: simcore::ByteSize::ZERO,
        ..StorageBedConfig::default()
    };
    let a = run_storage(cfg).expect("run");
    let b = run_storage(cfg).expect("run");
    assert_eq!(a.bandwidth_gb_s.to_bits(), b.bandwidth_gb_s.to_bits());
    assert_eq!(a.resident, b.resident);
    assert_eq!(a.npf_events, b.npf_events);
}

#[test]
fn mpi_runner_is_deterministic() {
    let cfg = MpiRunConfig {
        ranks: 4,
        iterations: 6,
        ..MpiRunConfig::default()
    };
    let a = run_collective(cfg);
    let b = run_collective(cfg);
    assert_eq!(a.total, b.total);
    assert_eq!(a.npf_events, b.npf_events);
    assert_eq!(a.bytes_moved, b.bytes_moved);
}
