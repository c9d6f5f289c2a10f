//! Differential ODP-backend conformance: the same scenarios run under
//! the firmware NPF path, the NP-RDMA-style software emulation, and
//! the pinned baseline must agree on everything the workload can see.
//!
//! The backends are free to differ in *how* a fault is serviced — and
//! therefore in timing, throughput, and servicing counters — but never
//! in correctness:
//!
//! - InfiniBand: exactly-once, in-order, byte-exact RC delivery, with
//!   the identical completion stream under every backend.
//! - Ethernet: the memcached service stays live (ops served, zero
//!   failed connections) and per-tenant backup quotas hold.
//! - Fault counts are explainable: every engine fault is booked to
//!   exactly one servicing path (`fw_npf_events`, `softemu_bounces`,
//!   or `pinned_unexpected_faults`), and the other paths' counters
//!   stay zero.
//!
//! The proptest-driven generator draws small random scenarios and
//! re-checks the invariants; a failing case prints its seed and
//! replays with `PROPTEST_SEED=<seed>`.

use npf::prelude::*;
use npf::rdmasim::types::{SendOp, WcStatus};
use npf::workloads::memcached::MemcachedConfig;
use proptest::prelude::*;

/// Every backend the suite must hold for, in artifact order.
const BACKENDS: [BackendKind; 3] = [
    BackendKind::Firmware,
    BackendKind::SoftEmu,
    BackendKind::Pinned,
];

/// Asserts the engine's fault total is booked to exactly the servicing
/// path `kind` owns, with the other paths' counters zero.
fn assert_explainable(kind: BackendKind, counters: &npf::simcore::stats::Counters, ctx: &str) {
    let faults = counters.get("npf_events");
    let fw = counters.get("fw_npf_events");
    let bounces = counters.get("softemu_bounces");
    let unexpected = counters.get("pinned_unexpected_faults");
    match kind {
        BackendKind::Firmware => {
            assert_eq!(fw, faults, "{ctx}: firmware must book every fault");
            assert_eq!(bounces, 0, "{ctx}: firmware must never bounce");
            assert_eq!(unexpected, 0, "{ctx}: firmware faults are expected");
        }
        BackendKind::SoftEmu => {
            assert_eq!(bounces, faults, "{ctx}: softemu must bounce every fault");
            assert_eq!(fw, 0, "{ctx}: softemu must raise no firmware NPF");
            assert_eq!(unexpected, 0, "{ctx}: softemu faults are expected");
        }
        BackendKind::Pinned => {
            assert_eq!(unexpected, faults, "{ctx}: pinned must book every fault");
            assert_eq!(bounces, 0, "{ctx}: pinned must never bounce");
        }
    }
}

/// One IB run: a fixed message pattern over cold ODP buffers, driven
/// to quiescence. Returns the workload-visible outcome — the receive
/// completion stream as `(wr_id, len, status-ok)` tuples — plus the
/// fault count for coverage assertions.
fn run_ib(kind: BackendKind, seed: u64) -> (Vec<(u64, u64, bool)>, u64) {
    const MSGS: u64 = 8;
    let mut c = ScenarioBuilder::infiniband()
        .nodes(2)
        .npf(NpfConfig::default().with_backend(kind))
        .seed(seed)
        .build()
        .expect("ib conformance scenario must validate");
    let (qa, qb) = c.connect(0, 1);
    let src = c.alloc_buffers(0, ByteSize::mib(1));
    let dst = c.alloc_buffers(1, ByteSize::mib(1));
    for i in 0..MSGS {
        c.post_recv(1, qb, 1000 + i, dst, 1 << 20);
    }
    for i in 0..MSGS {
        c.post_send(
            0,
            qa,
            i,
            SendOp::Send {
                local: src,
                len: (i + 1) * 4096,
            },
        );
    }
    c.run_until_quiescent(10_000_000);

    let send = c.drain_completions(0);
    let recv = c.drain_completions(1);
    assert_eq!(send.len() as u64, MSGS, "{kind:?}: send completions");
    assert_eq!(recv.len() as u64, MSGS, "{kind:?}: exactly-once delivery");
    let mut faults = 0;
    for n in 0..2 {
        let counters = c.node(n).engine().counters();
        assert_explainable(kind, counters, &format!("ib node {n} under {kind:?}"));
        faults += counters.get("npf_events");
    }
    let outcome = recv
        .iter()
        .map(|w| (w.wr_id, w.len, w.status == WcStatus::Success))
        .collect();
    (outcome, faults)
}

/// Cold ODP buffers must deliver the identical completion stream —
/// exactly-once, in-order, byte-exact — under all three backends, and
/// every backend's fault count must be explainable.
#[test]
fn ib_delivery_is_identical_across_backends() {
    let runs: Vec<_> = BACKENDS.iter().map(|&k| (k, run_ib(k, 7))).collect();
    for (kind, (outcome, faults)) in &runs {
        assert!(
            *faults > 0,
            "{kind:?}: cold buffers must fault, or the backend was never exercised"
        );
        for (i, (wr_id, len, ok)) in outcome.iter().enumerate() {
            assert_eq!(*wr_id, 1000 + i as u64, "{kind:?}: in-order delivery");
            assert_eq!(*len, (i as u64 + 1) * 4096, "{kind:?}: byte-exact delivery");
            assert!(ok, "{kind:?}: completion {i} failed");
        }
    }
    let (_, (reference, _)) = &runs[0];
    for (kind, (outcome, _)) in &runs[1..] {
        assert_eq!(
            outcome, reference,
            "{kind:?} delivered a different completion stream than {:?}",
            runs[0].0
        );
    }
}

/// One Ethernet run: the canonical multi-tenant backup-mode scenario.
/// Returns `(ops, faults)` after asserting liveness, quota, and
/// counter explainability.
fn run_eth(kind: BackendKind, seed: u64) -> (u64, u64) {
    let quota = 16u64;
    let mut bed = ScenarioBuilder::ethernet()
        .mode(RxMode::Backup)
        .instances(2)
        .conns_per_instance(2)
        .ring_entries(32)
        .bm_size(64)
        .backup_capacity(128)
        .backup_quota(quota)
        .host_memory(ByteSize::mib(256))
        .memcached(MemcachedConfig {
            max_bytes: ByteSize::mib(8),
            ..MemcachedConfig::default()
        })
        .working_set_keys(500)
        .npf(NpfConfig::default().with_backend(kind))
        .seed(seed)
        .build()
        .expect("eth conformance scenario must validate");
    bed.run_until(SimTime::from_millis(100));

    assert_eq!(
        bed.total_failed_conns(),
        0,
        "{kind:?}: no connection may die"
    );
    assert!(
        bed.total_ops() > 100,
        "{kind:?}: the service must stay live: {} ops",
        bed.total_ops()
    );
    for i in 0..2 {
        let t = bed.tenant_report(i);
        assert!(
            t.backup_hwm <= quota,
            "{kind:?}: tenant {i} burst its quota: hwm {}",
            t.backup_hwm
        );
    }
    let counters = bed.engine().counters();
    assert_explainable(kind, counters, &format!("eth under {kind:?}"));
    // The NIC's receive path attributes bounced faults iff softemu.
    let bounced_rx = bed.rx_counters().get("bounced_fault");
    if kind == BackendKind::SoftEmu {
        assert!(bounced_rx > 0, "{kind:?}: rx must see bounced faults");
    } else {
        assert_eq!(bounced_rx, 0, "{kind:?}: rx must see no bounced faults");
    }
    (bed.total_ops(), counters.get("npf_events"))
}

/// The memcached service must stay live with quotas held under all
/// three backends, each backend must actually fault, and each run must
/// be deterministic in its seed.
#[test]
fn eth_service_conforms_under_every_backend() {
    for kind in BACKENDS {
        let (ops, faults) = run_eth(kind, 11);
        assert!(faults > 0, "{kind:?}: cold rings must fault");
        let (ops2, faults2) = run_eth(kind, 11);
        assert_eq!(
            (ops, faults),
            (ops2, faults2),
            "{kind:?}: a seed must replay bit-for-bit"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized scenarios: any small (tenants, connections, working
    /// set, seed) point must satisfy the conformance invariants under
    /// every backend. Failures print a seed replayable via
    /// `PROPTEST_SEED=<seed>`.
    #[test]
    fn random_scenarios_conform(
        instances in 1u32..3,
        conns in 1u32..3,
        keys in 200u64..600,
        seed in 1u64..1_000_000,
    ) {
        for kind in BACKENDS {
            let bed = ScenarioBuilder::ethernet()
                .mode(RxMode::Backup)
                .instances(instances)
                .conns_per_instance(conns)
                .ring_entries(32)
                .bm_size(64)
                .backup_capacity(128)
                .host_memory(ByteSize::mib(256))
                .memcached(MemcachedConfig {
                    max_bytes: ByteSize::mib(8),
                    ..MemcachedConfig::default()
                })
                .working_set_keys(keys)
                .npf(NpfConfig::default().with_backend(kind))
                .seed(seed)
                .build();
            let mut bed = match bed {
                Ok(bed) => bed,
                Err(e) => return Err(TestCaseError(format!("build failed under {kind:?}: {e}"))),
            };
            bed.run_until(SimTime::from_millis(50));
            prop_assert_eq!(bed.total_failed_conns(), 0);
            prop_assert!(
                bed.total_ops() > 0,
                "no progress under {:?} (instances={}, conns={}, keys={}, seed={})",
                kind, instances, conns, keys, seed
            );
            let c = bed.engine().counters();
            let faults = c.get("npf_events");
            let booked = c.get("fw_npf_events")
                + c.get("softemu_bounces")
                + c.get("pinned_unexpected_faults");
            prop_assert_eq!(
                faults, booked,
                "unexplained faults under {:?}: {} raised, {} booked",
                kind, faults, booked
            );
        }
    }
}
