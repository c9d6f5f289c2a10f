//! Cross-crate integration: the Ethernet testbed (tcpsim + nicsim +
//! memsim + iommu + npf-core + workloads glued by testbed).

use npf::prelude::*;
use workloads::memcached::MemcachedConfig;

fn small(mode: RxMode) -> EthScenario {
    ScenarioBuilder::ethernet()
        .mode(mode)
        .instances(1)
        .conns_per_instance(4)
        .ring_entries(64)
        .host_memory(ByteSize::mib(512))
        .memcached(cache_mib(64))
        .working_set_keys(2_000)
}

fn cache_mib(mib: u64) -> MemcachedConfig {
    MemcachedConfig {
        max_bytes: ByteSize::mib(mib),
        ..MemcachedConfig::default()
    }
}

#[test]
fn backup_ring_hides_faults_from_the_iouser() {
    let mut bed = small(RxMode::Backup).build().expect("setup");
    bed.run_until(SimTime::from_millis(1500));
    // Faults occurred (cold ring) but every operation completed and no
    // connection failed: the IOuser never noticed.
    assert!(bed.rx_counters().get("backup_stored") > 0);
    assert!(bed.engine().counters().get("npf_events") > 0);
    assert!(bed.total_ops() > 1_000);
    assert_eq!(bed.total_failed_conns(), 0);
}

#[test]
fn three_modes_order_as_the_paper_says() {
    let total = |mode| {
        let mut bed = small(mode).build().expect("setup");
        bed.run_until(SimTime::from_millis(1500));
        bed.total_ops()
    };
    let pin = total(RxMode::Pin);
    let backup = total(RxMode::Backup);
    let drop = total(RxMode::Drop);
    // Pin and backup are equivalent; dropping collapses during the cold
    // ring.
    let ratio = backup as f64 / pin as f64;
    assert!((0.9..=1.1).contains(&ratio), "backup/pin = {ratio:.2}");
    assert!(drop * 5 < backup, "drop {drop} vs backup {backup}");
}

#[test]
fn overcommit_feasibility_matches_table_5() {
    // Two 300 MiB VMs on a 512 MiB host: pinning fails, NPFs run.
    let two_vms = |mode| small(mode).instances(2).memcached(cache_mib(300));
    assert!(
        two_vms(RxMode::Pin).build().is_err(),
        "pinning 600 MiB into a 512 MiB host"
    );
    let mut bed = two_vms(RxMode::Backup).build().expect("NPF mode starts");
    bed.run_until(SimTime::from_millis(700));
    assert!(bed.total_ops() > 500);
}

#[test]
fn differential_pinned_vs_odp_serves_same_workload() {
    // Differential run of the same memcached workload: static pinning
    // versus the backup-ring NPF path. Both must reach the target op
    // count with zero failed connections; only the ODP side may (and
    // must) take page faults. This pins down the paper's feasibility
    // claim — demand paging changes *how* memory arrives, never what
    // the IOuser observes.
    const TARGET_OPS: u64 = 2_000;
    let run = |mode: RxMode| {
        let mut bed = small(mode).build().expect("setup");
        // Run in slices until the service has served TARGET_OPS, so
        // both modes are compared at the same amount of delivered work.
        let mut deadline = SimTime::ZERO;
        while bed.total_ops() < TARGET_OPS {
            deadline += SimDuration::from_millis(100);
            assert!(
                deadline <= SimTime::from_secs(30),
                "{mode:?} never reached {TARGET_OPS} ops: {}",
                bed.total_ops()
            );
            bed.run_until(deadline);
        }
        (
            bed.total_ops(),
            bed.total_failed_conns(),
            bed.engine().counters().get("npf_events"),
        )
    };
    let (pin_ops, pin_failed, pin_faults) = run(RxMode::Pin);
    let (odp_ops, odp_failed, odp_faults) = run(RxMode::Backup);
    assert!(pin_ops >= TARGET_OPS && odp_ops >= TARGET_OPS);
    assert_eq!(pin_failed, 0, "pinned mode dropped a connection");
    assert_eq!(odp_failed, 0, "ODP mode dropped a connection");
    assert_eq!(pin_faults, 0, "pinned mode must never take an NPF");
    assert!(odp_faults > 0, "ODP mode must resolve faults on the way");
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut bed = small(RxMode::Backup).build().expect("setup");
        bed.run_until(SimTime::from_millis(800));
        (
            bed.total_ops(),
            bed.engine().counters().get("npf_events"),
            bed.rx_counters().get("backup_stored"),
        )
    };
    assert_eq!(run(), run(), "same seed must give identical results");
}

#[test]
fn different_seeds_still_serve() {
    for seed in [7, 99, 12345] {
        let mut bed = small(RxMode::Backup).seed(seed).build().expect("setup");
        bed.run_until(SimTime::from_millis(700));
        assert!(bed.total_ops() > 300, "seed {seed}: {}", bed.total_ops());
        assert_eq!(bed.total_failed_conns(), 0, "seed {seed}");
    }
}

#[test]
fn stream_isolation_faulting_channel_does_not_slow_others() {
    // §3's "Stream Isolation" requirement: an IOuser hitting rNPFs must
    // not slow down unrelated channels. Run an instance alone, then next
    // to a second instance whose cold ring faults alongside it: its
    // throughput must not drop.
    let solo = {
        let scenario = small(RxMode::Backup).instances(1);
        let mut bed = scenario.build().expect("setup");
        bed.run_until(SimTime::from_millis(800));
        bed.metrics()[0].ops.total()
    };
    let with_neighbor = {
        let scenario = small(RxMode::Backup).instances(2);
        let mut bed = scenario.build().expect("setup");
        bed.run_until(SimTime::from_millis(800));
        bed.metrics()[0].ops.total()
    };
    let ratio = with_neighbor as f64 / solo as f64;
    assert!(
        ratio > 0.85,
        "a faulting neighbour must not steal throughput: solo {solo}, shared {with_neighbor} ({ratio:.2})"
    );
}

#[test]
fn prefetch_and_huge_pages_cut_firmware_npf_events() {
    // The ISSUE's acceptance bar for the memory fast paths: with huge
    // pages and stride prefetch on, the cold-ring startup (the fig4a
    // scenario, scaled down) must raise at least 2x fewer firmware NPF
    // events than the baseline, while serving at least as many ops.
    let run = |huge: bool, depth: u32| {
        let npf = NpfConfig::default()
            .with_huge_pages(huge)
            .with_prefetch_depth(depth);
        let mut bed = small(RxMode::Backup).npf(npf).build().expect("setup");
        bed.run_until(SimTime::from_millis(800));
        let c = bed.engine().counters();
        (
            bed.total_ops(),
            c.get("fw_npf_events"),
            c.get("prefetch_issued"),
            c.get("prefetch_hits"),
        )
    };
    let (base_ops, base_fw, base_issued, _) = run(false, 0);
    let (fast_ops, fast_fw, fast_issued, fast_hits) = run(true, 64);
    assert_eq!(base_issued, 0, "prefetch off must never speculate");
    assert!(base_fw > 0, "the cold ring must fault at baseline");
    assert!(
        fast_fw * 2 <= base_fw,
        "huge+prefetch must cut firmware NPFs at least 2x: {base_fw} -> {fast_fw}"
    );
    assert!(
        fast_issued > 0,
        "the stride prefetcher must fire on the cold ring"
    );
    assert!(
        fast_hits > 0,
        "speculative windows must absorb later demand faults"
    );
    assert!(
        fast_ops * 100 >= base_ops * 99,
        "the fast path may not cost throughput: {base_ops} -> {fast_ops}"
    );
}

#[test]
fn tiered_backing_serves_and_migrates() {
    // A DRAM tier smaller than the working set forces demote-on-evict
    // traffic to the NVM tier; the service must stay live and the
    // engine must book tier migrations.
    let scenario = small(RxMode::Backup)
        .instances(2)
        .host_memory(ByteSize::mib(256))
        .memcached(cache_mib(160))
        .working_set_keys(150_000)
        .tier(npf::memsim::manager::TierConfig {
            capacity: ByteSize::mib(256),
        });
    let mut bed = scenario.build().expect("setup");
    bed.run_until(SimTime::from_millis(800));
    assert!(bed.total_ops() > 300, "{} ops", bed.total_ops());
    assert_eq!(bed.total_failed_conns(), 0);
    assert!(bed.engine().counters().get("npf_events") > 0);
    // The tier actually moved pages: LRU evictions demote into NVM, and
    // re-faults on demoted pages promote back with a tier cost.
    let m = bed.engine().memory().counters();
    assert!(
        m.get("tier_demotions") > 0,
        "an overcommitted DRAM tier must demote: {m:?}"
    );
    assert!(
        m.get("tier_promotions") > 0,
        "re-faults on demoted pages must promote: {m:?}"
    );
}
