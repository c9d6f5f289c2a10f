//! The chaos sweep: both end-to-end testbeds driven under seeded fault
//! injection, with the global invariant checker installed for every
//! run.
//!
//! Each run installs a fresh [`InvariantChecker`], builds a testbed
//! with a per-class [`ChaosProfile`], drives a workload, and asserts
//!
//! - zero invariant violations (including `finish()`'s check that every
//!   raised NPF resolved),
//! - exactly-once, in-order, byte-exact delivery despite drops,
//!   duplicates, reordering, corruption, interrupt loss, NPF delays
//!   and eviction storms,
//! - that the sweep as a whole exercised every fault class (so a
//!   regression that silently disables an injection point fails here).
//!
//! `CHAOS_SEED_BASE` shifts every seed, letting CI sweep disjoint seed
//! ranges per matrix job. A failing seed is printed in the assertion
//! message; `EXPERIMENTS.md` describes how to replay it.
//!
//! `CHAOS_JOBS` fans the sweep's cells across worker threads (default
//! 1). Every cell is hermetic — it installs its own thread-local
//! [`InvariantChecker`] and owns its testbeds — and cell totals are
//! merged in cell order, so the sweep's result is identical at every
//! job count.

use std::collections::HashMap;

use npf::prelude::*;
use npf::rdmasim::types::{SendOp, WcStatus};
use npf::simcore::chaos::{invariant, ChaosProfile};
use npf::simcore::instruments::Instruments;
use npf::simcore::journal::JournalRecorder;
use npf::simcore::shard::{self, Pool};
use npf::testbed::eth::RxMode;
use npf::workloads::memcached::MemcachedConfig;

/// Installs a fresh checker for `chaos`, plus a fresh journal when
/// `journal`, on a thread with nothing installed.
fn instrument(chaos: ChaosConfig, journal: bool) {
    let fresh = Instruments {
        checker: Some(InvariantChecker::new(chaos.seed)),
        journal: journal.then(JournalRecorder::new),
        ..Instruments::default()
    };
    assert!(fresh.install().is_empty(), "stale instruments");
}

/// Base seed for the sweep, shiftable per CI matrix job.
fn seed_base() -> u64 {
    std::env::var("CHAOS_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FF_EE00)
}

/// Worker-thread count for the sweep, from `CHAOS_JOBS` (default 1;
/// `0` means all available cores).
fn sweep_jobs() -> usize {
    match std::env::var("CHAOS_JOBS")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(0) => shard::host_parallelism(),
        Some(n) => n,
        None => 1,
    }
}

/// Runs one sweep cell per config on a pool of [`sweep_jobs`] workers
/// and merges the per-cell injection totals in cell order. A cell
/// assertion failure propagates out of the pool, so a failing seed
/// still fails the test with its message.
fn sweep(
    cells: Vec<ChaosConfig>,
    run: impl Fn(ChaosConfig) -> HashMap<String, u64> + Sync,
) -> HashMap<String, u64> {
    let run = &run;
    let tasks = cells
        .into_iter()
        .map(|cell| shard::task(move || run(cell)))
        .collect();
    let mut totals = HashMap::new();
    for cell in Pool::new(sweep_jobs()).run(tasks) {
        for (name, value) in cell {
            *totals.entry(name).or_default() += value;
        }
    }
    totals
}

/// Accumulates one chaos counter set into the sweep totals.
fn accumulate(totals: &mut HashMap<String, u64>, counters: &npf::simcore::stats::Counters) {
    for (name, value) in counters.iter() {
        *totals.entry(name.to_string()).or_default() += value;
    }
}

/// Drives a 24-message stream over a two-node IB cluster under `chaos`
/// and checks exactly-once byte-exact delivery plus every global
/// invariant. Returns injection totals for coverage accounting.
fn run_ib(chaos: ChaosConfig) -> HashMap<String, u64> {
    let mut totals = HashMap::new();
    instrument(chaos, false);
    // IB's rnr_retry = 7 means "retry forever"; model that here so the
    // sweep asserts liveness, not the transport's give-up threshold.
    let rc = npf::rdmasim::types::RcConfig {
        max_retries: 100_000,
        max_rnr_retries: 100_000,
        ..npf::rdmasim::types::RcConfig::default()
    };
    // NVMe swap: under eviction storms every re-fault is a swap-in, and
    // resolution must beat the next eviction for the transport to make
    // progress (a 5 ms hard-drive swap-in never can).
    let mut c = ScenarioBuilder::infiniband()
        .nodes(2)
        .rc(rc)
        .chaos(chaos)
        .disk(npf::memsim::swap::DiskConfig::nvme())
        .build()
        .expect("valid scenario");
    let (qa, qb) = c.connect(0, 1);
    let src = c.alloc_buffers(0, ByteSize::mib(8));
    let dst = c.alloc_buffers(1, ByteSize::mib(8));
    const MSGS: u64 = 24;
    for i in 0..MSGS {
        c.post_recv(1, qb, 1000 + i, dst, 8 << 20);
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
    c.run_until_quiescent(50_000_000);

    let send = c.drain_completions(0);
    let recv = c.drain_completions(1);
    assert_eq!(
        send.len() as u64,
        MSGS,
        "send completions at chaos seed {}",
        chaos.seed
    );
    assert_eq!(
        recv.len() as u64,
        MSGS,
        "exactly-once delivery at chaos seed {}",
        chaos.seed
    );
    for (i, comp) in recv.iter().enumerate() {
        assert_eq!(
            comp.wr_id,
            1000 + i as u64,
            "in-order at seed {}",
            chaos.seed
        );
        assert_eq!(
            comp.len,
            (i as u64 + 1) * 4096,
            "byte-exact at seed {}",
            chaos.seed
        );
        assert_eq!(comp.status, WcStatus::Success);
    }

    let checker = Instruments::take().checker.expect("checker installed");
    let end = checker.finish();
    assert!(
        end.is_empty(),
        "invariant violations at chaos seed {}: {:?}",
        chaos.seed,
        end
    );
    assert!(checker.checks() > 0, "checker actually ran");

    accumulate(&mut totals, c.chaos().counters());
    for n in 0..2 {
        accumulate(&mut totals, c.node(n).engine().counters());
    }
    totals
}

/// Drives the memcached testbed for one simulated second under `chaos`
/// and checks liveness (no failed connections, ops served) plus every
/// global invariant, then hunts for a quiescent cut where no NPF is
/// outstanding so `finish()` can certify resolution liveness.
fn run_eth(chaos: ChaosConfig) -> HashMap<String, u64> {
    let mut totals = HashMap::new();
    instrument(chaos, false);
    // NVMe swap: as in the IB sweep, resolution must beat the next
    // chaos eviction or no quiescent cut ever exists.
    let mut bed = ScenarioBuilder::ethernet()
        .mode(RxMode::Backup)
        .instances(1)
        .conns_per_instance(4)
        .ring_entries(64)
        .host_memory(ByteSize::mib(512))
        .disk(npf::memsim::swap::DiskConfig::nvme())
        .memcached(MemcachedConfig {
            max_bytes: ByteSize::mib(64),
            value_size: 1024,
        })
        .working_set_keys(1000)
        .chaos(chaos)
        .build()
        .expect("setup");
    bed.run_until(SimTime::from_secs(1));

    // The client is closed-loop and never stops issuing, so the queue
    // never drains; instead, find a cut where every raised NPF has
    // resolved (they complete within microseconds, so one must exist).
    let mut outstanding = invariant::with(|c| c.outstanding_faults()).unwrap_or(0);
    let mut tries = 0;
    while outstanding > 0 && tries < 2000 {
        let next = bed.now() + SimDuration::from_micros(500);
        bed.run_until(next);
        outstanding = invariant::with(|c| c.outstanding_faults()).unwrap_or(0);
        tries += 1;
    }
    assert_eq!(
        outstanding, 0,
        "NPFs must eventually resolve (chaos seed {})",
        chaos.seed
    );

    assert_eq!(
        bed.total_failed_conns(),
        0,
        "no connection may die under chaos seed {}",
        chaos.seed
    );
    assert!(
        bed.total_ops() > 100,
        "the service must stay live under chaos seed {}: {} ops",
        chaos.seed,
        bed.total_ops()
    );

    let checker = Instruments::take().checker.expect("checker installed");
    let end = checker.finish();
    assert!(
        end.is_empty(),
        "invariant violations at chaos seed {}: {:?}",
        chaos.seed,
        end
    );
    assert!(checker.checks() > 0, "checker actually ran");

    accumulate(&mut totals, bed.chaos().counters());
    accumulate(&mut totals, bed.engine().counters());
    totals
}

#[test]
fn ib_chaos_sweep_holds_invariants() {
    let base = seed_base();
    // Seed slot 3 belonged to a profile that no longer exists; the
    // others keep the seeds they have always run with.
    let profiles = [
        (0, ChaosProfile::Network),
        (1, ChaosProfile::Npf),
        (2, ChaosProfile::Memory),
        (4, ChaosProfile::All),
    ];
    let cells: Vec<ChaosConfig> = profiles
        .into_iter()
        .flat_map(|(p, profile)| {
            (0..2u64).map(move |s| ChaosConfig::profile(profile, base + p * 100 + s))
        })
        .collect();
    let totals = sweep(cells, run_ib);
    // Every IB-reachable fault class must have fired somewhere in the
    // sweep.
    for class in [
        "net_drop",
        "net_corrupt",
        "net_duplicate",
        "net_reorder",
        "npf_chaos_delays",
    ] {
        assert!(
            totals.get(class).copied().unwrap_or(0) > 0,
            "fault class {class} never fired across the IB sweep: {totals:?}"
        );
    }
    assert!(
        totals.get("mem_burst").copied().unwrap_or(0)
            + totals.get("mem_storm").copied().unwrap_or(0)
            > 0,
        "memory-pressure chaos never fired across the IB sweep: {totals:?}"
    );
}

#[test]
fn eth_chaos_sweep_holds_invariants() {
    let base = seed_base();
    let profiles = [
        ChaosProfile::Network,
        ChaosProfile::Interrupts,
        ChaosProfile::Npf,
        ChaosProfile::Memory,
        ChaosProfile::All,
    ];
    let cells: Vec<ChaosConfig> = profiles
        .into_iter()
        .enumerate()
        .flat_map(|(p, profile)| {
            (0..2u64)
                .map(move |s| ChaosConfig::profile(profile, base + 0x1000 + (p as u64) * 100 + s))
        })
        .collect();
    let totals = sweep(cells, run_eth);
    for class in ["net_drop", "net_reorder", "irq_lost", "irq_delayed"] {
        assert!(
            totals.get(class).copied().unwrap_or(0) > 0,
            "fault class {class} never fired across the Ethernet sweep: {totals:?}"
        );
    }
    assert!(
        totals.get("mem_burst").copied().unwrap_or(0)
            + totals.get("mem_storm").copied().unwrap_or(0)
            > 0,
        "memory-pressure chaos never fired across the Ethernet sweep: {totals:?}"
    );
}

/// Chaos over the cross-channel fault arbiter: a multi-tenant bed with
/// a small shared slot pool, weighted-fair arbitration, and a
/// partitioned backup quota must hold every global invariant under
/// full-profile injection — arbitration queueing must never strand an
/// NPF past the quiescent cut, and the quota must hold even while
/// chaos delays resolutions and storms evictions.
fn run_eth_arbiter(chaos: ChaosConfig) -> HashMap<String, u64> {
    use npf::prelude::{ArbiterPolicy, NpfConfig, ScenarioBuilder};
    let mut totals = HashMap::new();
    instrument(chaos, false);
    let quota = 16u64;
    let mut bed = ScenarioBuilder::ethernet()
        .mode(RxMode::Backup)
        .instances(4)
        .conns_per_instance(2)
        .ring_entries(32)
        .bm_size(64)
        .backup_capacity(128)
        .backup_quota(quota)
        .host_memory(ByteSize::mib(512))
        .disk(npf::memsim::swap::DiskConfig::nvme())
        .memcached(MemcachedConfig {
            max_bytes: ByteSize::mib(16),
            value_size: 1024,
        })
        .working_set_keys(1000)
        .tenant_skew(1.0)
        .npf(
            NpfConfig::default()
                .with_arbiter(ArbiterPolicy::WeightedFair)
                .with_total_fault_slots(4),
        )
        .tenant_weight(0, 4)
        .chaos(chaos)
        .build()
        .expect("setup");
    bed.run_until(SimTime::from_secs(1));

    let mut outstanding = invariant::with(|c| c.outstanding_faults()).unwrap_or(0);
    let mut tries = 0;
    while outstanding > 0 && tries < 2000 {
        let next = bed.now() + SimDuration::from_micros(500);
        bed.run_until(next);
        outstanding = invariant::with(|c| c.outstanding_faults()).unwrap_or(0);
        tries += 1;
    }
    assert_eq!(
        outstanding, 0,
        "NPFs must resolve despite arbitration (chaos seed {})",
        chaos.seed
    );
    assert_eq!(
        bed.total_failed_conns(),
        0,
        "no connection may die under chaos seed {}",
        chaos.seed
    );
    for i in 0..4 {
        let t = bed.tenant_report(i);
        assert!(
            t.backup_hwm <= quota,
            "tenant {i} burst its quota under chaos seed {}: hwm {}",
            chaos.seed,
            t.backup_hwm
        );
    }

    let checker = Instruments::take().checker.expect("checker installed");
    let end = checker.finish();
    assert!(
        end.is_empty(),
        "invariant violations at chaos seed {}: {:?}",
        chaos.seed,
        end
    );

    accumulate(&mut totals, bed.chaos().counters());
    accumulate(&mut totals, bed.engine().counters());
    totals
}

#[test]
fn arbitrated_multi_tenant_bed_survives_chaos() {
    let base = seed_base();
    let cells: Vec<ChaosConfig> = (0..3u64)
        .map(|s| ChaosConfig::profile(ChaosProfile::All, base + 0x2000 + s))
        .collect();
    let totals = sweep(cells, run_eth_arbiter);
    assert!(
        totals.get("npf_events").copied().unwrap_or(0) > 0,
        "the arbitrated bed never faulted: {totals:?}"
    );
}

/// Every NPF must leave a complete, exactly-balanced journal chain —
/// admit, phase slices tiling `[begun, ready_at]`, resolve — even
/// while chaos delays resolutions, storms evictions, and queues faults
/// behind the arbiter. An incomplete or unbalanced chain means the
/// causal observability layer lost or misattributed a fault.
#[test]
fn chaos_faults_leave_complete_journal_chains() {
    use npf::prelude::{ArbiterPolicy, NpfConfig, ScenarioBuilder};
    let base = seed_base();
    for s in 0..2u64 {
        let chaos = ChaosConfig::profile(ChaosProfile::All, base + 0x3000 + s);
        instrument(chaos, true);
        let mut bed = ScenarioBuilder::ethernet()
            .mode(RxMode::Backup)
            .instances(4)
            .conns_per_instance(2)
            .ring_entries(32)
            .bm_size(64)
            .backup_capacity(128)
            .host_memory(ByteSize::mib(512))
            .disk(npf::memsim::swap::DiskConfig::nvme())
            .memcached(MemcachedConfig {
                max_bytes: ByteSize::mib(16),
                value_size: 1024,
            })
            .working_set_keys(1000)
            .tenant_skew(1.0)
            .npf(
                NpfConfig::default()
                    .with_arbiter(ArbiterPolicy::WeightedFair)
                    .with_total_fault_slots(4),
            )
            .tenant_weight(0, 4)
            .chaos(chaos)
            .build()
            .expect("setup");
        bed.run_until(SimTime::from_millis(250));

        // Hunt a quiescent cut, as the other sweeps do, so "incomplete"
        // below means "lost", never "still in flight".
        let mut outstanding = invariant::with(|c| c.outstanding_faults()).unwrap_or(0);
        let mut tries = 0;
        while outstanding > 0 && tries < 2000 {
            let next = bed.now() + SimDuration::from_micros(500);
            bed.run_until(next);
            outstanding = invariant::with(|c| c.outstanding_faults()).unwrap_or(0);
            tries += 1;
        }
        assert_eq!(
            outstanding, 0,
            "NPFs must resolve (chaos seed {})",
            chaos.seed
        );

        let installed = Instruments::take();
        let j = installed.journal.expect("journal installed");
        let checker = installed.checker.expect("checker installed");
        let end = checker.finish();
        assert!(
            end.is_empty(),
            "invariant violations at chaos seed {}: {:?}",
            chaos.seed,
            end
        );
        assert!(
            !j.faults().is_empty(),
            "the bed never faulted under chaos seed {}",
            chaos.seed
        );
        assert_eq!(
            j.incomplete_faults(),
            0,
            "journal chains without a resolve at chaos seed {}",
            chaos.seed
        );
        assert_eq!(
            j.unbalanced_faults(),
            0,
            "journal phase slices must tile each fault at chaos seed {}",
            chaos.seed
        );
        for f in j.faults() {
            assert_eq!(
                f.phase_sum(),
                f.latency(),
                "inexact attribution for fault {:?} at chaos seed {}",
                f.id,
                chaos.seed
            );
        }
        assert!(
            !j.marks().is_empty(),
            "causal marks must flow under chaos seed {}",
            chaos.seed
        );
    }
}

/// Drives the memcached testbed with the NP-RDMA-style software
/// emulation servicing every fault — no firmware NPF events at all —
/// under `chaos`, and checks the same liveness and invariant set as
/// [`run_eth`]. Returns injection totals for coverage accounting.
fn run_eth_softemu(chaos: ChaosConfig) -> HashMap<String, u64> {
    let mut totals = HashMap::new();
    instrument(chaos, false);
    let mut bed = ScenarioBuilder::ethernet()
        .mode(RxMode::Backup)
        .instances(2)
        .conns_per_instance(2)
        .ring_entries(32)
        .bm_size(64)
        .backup_capacity(128)
        .host_memory(ByteSize::mib(512))
        .disk(npf::memsim::swap::DiskConfig::nvme())
        .memcached(MemcachedConfig {
            max_bytes: ByteSize::mib(16),
            value_size: 1024,
        })
        .working_set_keys(1000)
        .npf(NpfConfig::default().with_backend(BackendKind::SoftEmu))
        .chaos(chaos)
        .build()
        .expect("setup");
    bed.run_until(SimTime::from_secs(1));

    let mut outstanding = invariant::with(|c| c.outstanding_faults()).unwrap_or(0);
    let mut tries = 0;
    while outstanding > 0 && tries < 2000 {
        let next = bed.now() + SimDuration::from_micros(500);
        bed.run_until(next);
        outstanding = invariant::with(|c| c.outstanding_faults()).unwrap_or(0);
        tries += 1;
    }
    assert_eq!(
        outstanding, 0,
        "bounced faults must eventually resolve (chaos seed {})",
        chaos.seed
    );
    assert_eq!(
        bed.total_failed_conns(),
        0,
        "no connection may die under chaos seed {}",
        chaos.seed
    );
    assert!(
        bed.total_ops() > 100,
        "the service must stay live under chaos seed {}: {} ops",
        chaos.seed,
        bed.total_ops()
    );
    // The backend axis itself: every fault bounced, none raised a
    // firmware NPF event.
    let c = bed.engine().counters();
    assert_eq!(
        c.get("fw_npf_events"),
        0,
        "softemu raised firmware NPFs under chaos seed {}",
        chaos.seed
    );
    assert_eq!(
        c.get("softemu_bounces"),
        c.get("npf_events"),
        "unexplained faults under chaos seed {}",
        chaos.seed
    );

    let checker = Instruments::take().checker.expect("checker installed");
    let end = checker.finish();
    assert!(
        end.is_empty(),
        "invariant violations at chaos seed {}: {:?}",
        chaos.seed,
        end
    );

    accumulate(&mut totals, bed.chaos().counters());
    accumulate(&mut totals, bed.engine().counters());
    totals
}

/// The backend × chaos-profile matrix cell: the software-emulation
/// backend swept under packet loss, delayed/lost interrupts, and
/// memory-pressure storms (plus the all-profile mix), holding every
/// invariant, with the bounce path demonstrably exercised.
#[test]
fn softemu_backend_survives_chaos_matrix() {
    let base = seed_base();
    let profiles = [
        ChaosProfile::Network,
        ChaosProfile::Interrupts,
        ChaosProfile::Npf,
        ChaosProfile::Memory,
        ChaosProfile::All,
    ];
    let cells: Vec<ChaosConfig> = profiles
        .into_iter()
        .enumerate()
        .flat_map(|(p, profile)| {
            (0..2u64)
                .map(move |s| ChaosConfig::profile(profile, base + 0x4000 + (p as u64) * 100 + s))
        })
        .collect();
    let totals = sweep(cells, run_eth_softemu);
    for class in ["net_drop", "net_reorder", "irq_lost", "irq_delayed"] {
        assert!(
            totals.get(class).copied().unwrap_or(0) > 0,
            "fault class {class} never fired across the softemu sweep: {totals:?}"
        );
    }
    assert!(
        totals.get("mem_burst").copied().unwrap_or(0)
            + totals.get("mem_storm").copied().unwrap_or(0)
            > 0,
        "memory-pressure chaos never fired across the softemu sweep: {totals:?}"
    );
    assert!(
        totals.get("softemu_bounces").copied().unwrap_or(0) > 0,
        "the bounce path was never exercised: {totals:?}"
    );
    assert_eq!(
        totals.get("fw_npf_events").copied().unwrap_or(0),
        0,
        "softemu must never raise a firmware NPF: {totals:?}"
    );
    // Chaos transient misses retry through the softemu backoff path,
    // so the two tallies must move in lockstep.
    assert_eq!(
        totals.get("softemu_retries").copied().unwrap_or(0),
        totals.get("npf_chaos_retries").copied().unwrap_or(0),
        "softemu retries must mirror chaos transients: {totals:?}"
    );
    assert!(
        totals.get("npf_chaos_retries").copied().unwrap_or(0) > 0,
        "no transient miss ever fired, the backoff path is untested: {totals:?}"
    );
}

/// Bounce/retry chains must leave complete, exactly-balanced journal
/// chains: every softemu fault's validate/bounce/copy-out slices (plus
/// any chaos extra) tile `[begun, ready_at]` with nothing lost, even
/// while chaos delays resolutions and storms evictions.
#[test]
fn softemu_bounce_chains_leave_complete_journals() {
    use npf::simcore::journal::Phase;
    let base = seed_base();
    for s in 0..2u64 {
        let chaos = ChaosConfig::profile(ChaosProfile::All, base + 0x5000 + s);
        instrument(chaos, true);
        let mut bed = ScenarioBuilder::ethernet()
            .mode(RxMode::Backup)
            .instances(2)
            .conns_per_instance(2)
            .ring_entries(32)
            .bm_size(64)
            .backup_capacity(128)
            .host_memory(ByteSize::mib(512))
            .disk(npf::memsim::swap::DiskConfig::nvme())
            .memcached(MemcachedConfig {
                max_bytes: ByteSize::mib(16),
                value_size: 1024,
            })
            .working_set_keys(1000)
            .npf(NpfConfig::default().with_backend(BackendKind::SoftEmu))
            .chaos(chaos)
            .build()
            .expect("setup");
        bed.run_until(SimTime::from_millis(250));

        let mut outstanding = invariant::with(|c| c.outstanding_faults()).unwrap_or(0);
        let mut tries = 0;
        while outstanding > 0 && tries < 2000 {
            let next = bed.now() + SimDuration::from_micros(500);
            bed.run_until(next);
            outstanding = invariant::with(|c| c.outstanding_faults()).unwrap_or(0);
            tries += 1;
        }
        assert_eq!(
            outstanding, 0,
            "bounced faults must resolve (chaos seed {})",
            chaos.seed
        );

        let installed = Instruments::take();
        let j = installed.journal.expect("journal installed");
        let checker = installed.checker.expect("checker installed");
        let end = checker.finish();
        assert!(
            end.is_empty(),
            "invariant violations at chaos seed {}: {:?}",
            chaos.seed,
            end
        );
        assert!(
            !j.faults().is_empty(),
            "the bed never faulted under chaos seed {}",
            chaos.seed
        );
        assert_eq!(
            j.incomplete_faults(),
            0,
            "bounce chains without a resolve at chaos seed {}",
            chaos.seed
        );
        assert_eq!(
            j.unbalanced_faults(),
            0,
            "bounce-chain slices must tile each fault at chaos seed {}",
            chaos.seed
        );
        let mut saw_bounce_slices = false;
        for f in j.faults() {
            assert_eq!(
                f.phase_sum(),
                f.latency(),
                "inexact attribution for bounced fault {:?} at chaos seed {}",
                f.id,
                chaos.seed
            );
            // Softemu chains carry the driver-level slices and never
            // the firmware trigger interrupt.
            assert_eq!(
                f.phase_total(Phase::Trigger),
                SimDuration::ZERO,
                "a softemu fault carried a firmware trigger at chaos seed {}",
                chaos.seed
            );
            if f.phase_total(Phase::Validate) > SimDuration::ZERO
                && f.phase_total(Phase::CopyOut) > SimDuration::ZERO
            {
                saw_bounce_slices = true;
            }
        }
        assert!(
            saw_bounce_slices,
            "no fault carried validate + copy_out slices at chaos seed {}",
            chaos.seed
        );
    }
}

#[test]
fn same_chaos_seed_replays_identically() {
    let chaos = ChaosConfig::profile(ChaosProfile::All, seed_base() + 7);
    assert_eq!(
        run_ib(chaos),
        run_ib(chaos),
        "a chaos seed must replay bit-for-bit"
    );
}

#[test]
fn disabled_chaos_injects_nothing_and_stays_deterministic() {
    let run = || {
        let scenario = ScenarioBuilder::infiniband().nodes(2);
        let mut c = scenario.build().expect("valid scenario");
        assert!(!c.chaos().enabled(), "the bed holds a disabled engine");
        let (qa, qb) = c.connect(0, 1);
        let src = c.alloc_buffers(0, ByteSize::mib(1));
        let dst = c.alloc_buffers(1, ByteSize::mib(1));
        c.post_recv(1, qb, 9, dst, 1 << 20);
        c.post_send(
            0,
            qa,
            1,
            SendOp::Send {
                local: src,
                len: 1 << 20,
            },
        );
        c.run_until_quiescent(1_000_000);
        assert_eq!(c.chaos().counters().iter().count(), 0, "nothing injected");
        (c.now(), c.drain_completions(1))
    };
    let (t1, c1) = run();
    let (t2, c2) = run();
    assert_eq!(t1, t2, "disabled chaos must not perturb the clock");
    assert_eq!(c1, c2, "disabled chaos must not perturb completions");
}

/// Speculative pre-faults under chaos: with huge pages, stride prefetch
/// and tiered backing all enabled, every fault — demand *and*
/// speculative — must leave a complete, exactly-balanced journal chain,
/// every raised NPF must resolve exactly once (the invariant checker's
/// `finish()` certifies no lost or double resolution), and the service
/// must stay live. A speculative chain is distinguishable by its
/// `prefetch` issue slice, so the test also proves the sweep actually
/// exercised the prefetcher rather than vacuously passing.
#[test]
fn prefetched_faults_leave_complete_journal_chains() {
    use npf::prelude::NpfConfig;
    use npf::simcore::journal::Phase;
    let base = seed_base();
    for s in 0..2u64 {
        let chaos = ChaosConfig::profile(ChaosProfile::All, base + 0x6000 + s);
        instrument(chaos, true);
        let mut bed = ScenarioBuilder::ethernet()
            .mode(RxMode::Backup)
            .instances(2)
            .conns_per_instance(2)
            .ring_entries(64)
            .host_memory(ByteSize::mib(512))
            .disk(npf::memsim::swap::DiskConfig::nvme())
            .tier(npf::memsim::manager::TierConfig {
                capacity: ByteSize::mib(256),
            })
            .memcached(MemcachedConfig {
                max_bytes: ByteSize::mib(64),
                value_size: 1024,
            })
            .working_set_keys(1000)
            .npf(
                NpfConfig::default()
                    .with_huge_pages(true)
                    .with_prefetch_depth(64),
            )
            .chaos(chaos)
            .build()
            .expect("setup");
        bed.run_until(SimTime::from_millis(250));

        // Hunt a quiescent cut so "incomplete" below means "lost",
        // never "still in flight" — speculative faults included.
        let mut outstanding = invariant::with(|c| c.outstanding_faults()).unwrap_or(0);
        let mut tries = 0;
        while outstanding > 0 && tries < 2000 {
            let next = bed.now() + SimDuration::from_micros(500);
            bed.run_until(next);
            outstanding = invariant::with(|c| c.outstanding_faults()).unwrap_or(0);
            tries += 1;
        }
        assert_eq!(
            outstanding, 0,
            "all faults, speculative included, must resolve (chaos seed {})",
            chaos.seed
        );
        assert_eq!(
            bed.total_failed_conns(),
            0,
            "no connection may die under chaos seed {}",
            chaos.seed
        );
        // 250 ms horizon (not the sweeps' full second), so the liveness
        // bar is proportionally lower.
        assert!(
            bed.total_ops() > 25,
            "the service must stay live under chaos seed {}: {} ops",
            chaos.seed,
            bed.total_ops()
        );
        // The prefetcher actually fired; otherwise the chain checks
        // below only cover demand faults.
        let c = bed.engine().counters();
        assert!(
            c.get("prefetch_issued") > 0,
            "the stride prefetcher never triggered under chaos seed {}",
            chaos.seed
        );

        let installed = Instruments::take();
        let j = installed.journal.expect("journal installed");
        let checker = installed.checker.expect("checker installed");
        let end = checker.finish();
        assert!(
            end.is_empty(),
            "invariant violations (lost or double-resolved faults) at chaos seed {}: {:?}",
            chaos.seed,
            end
        );
        assert!(
            !j.faults().is_empty(),
            "the bed never faulted under chaos seed {}",
            chaos.seed
        );
        assert_eq!(
            j.incomplete_faults(),
            0,
            "journal chains without a resolve at chaos seed {}",
            chaos.seed
        );
        assert_eq!(
            j.unbalanced_faults(),
            0,
            "journal slices must tile each fault at chaos seed {}",
            chaos.seed
        );
        let mut speculative = 0u64;
        for f in j.faults() {
            assert_eq!(
                f.phase_sum(),
                f.latency(),
                "inexact attribution for fault {:?} at chaos seed {}",
                f.id,
                chaos.seed
            );
            if f.phase_total(Phase::Prefetch) > SimDuration::ZERO {
                speculative += 1;
            }
        }
        assert!(
            speculative > 0,
            "no journal chain carried a prefetch slice at chaos seed {}",
            chaos.seed
        );
    }
}

/// Sorted `(name, value)` pairs of a bed's master injector. The
/// accessor is taken through `Into<Option<_>>` so this pin reads the
/// same whether `chaos()` hands back the engine or an `Option` of it.
fn injections<'a>(engine: impl Into<Option<&'a ChaosEngine>>) -> Vec<(String, u64)> {
    let engine = engine.into().expect("chaos is on");
    engine
        .counters()
        .iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect()
}

/// Pins chaos-on output across builds, where
/// [`same_chaos_seed_replays_identically`] only compares a build with
/// itself: one IB and one Ethernet bed at a fixed `ChaosProfile::All`
/// seed (never shifted by `CHAOS_SEED_BASE`) must reproduce these
/// literals exactly — every injection counter, the NPF engines'
/// `npf_chaos_*` tallies, the work done and the final clock. A change
/// that moves, adds or drops one fate draw fails here.
#[test]
fn fixed_chaos_seed_reproduces_pinned_outcome() {
    const SEED: u64 = 0x5EED_0007;
    let chaos = ChaosConfig::profile(ChaosProfile::All, SEED);

    let rc = npf::rdmasim::types::RcConfig {
        max_retries: 100_000,
        max_rnr_retries: 100_000,
        ..npf::rdmasim::types::RcConfig::default()
    };
    let mut c = ScenarioBuilder::infiniband()
        .nodes(2)
        .rc(rc)
        .chaos(chaos)
        .disk(npf::memsim::swap::DiskConfig::nvme())
        .build()
        .expect("valid scenario");
    let (qa, qb) = c.connect(0, 1);
    let src = c.alloc_buffers(0, ByteSize::mib(2));
    let dst = c.alloc_buffers(1, ByteSize::mib(2));
    for i in 0..8u64 {
        c.post_recv(1, qb, 100 + i, dst, 2 << 20);
        c.post_send(
            0,
            qa,
            i,
            SendOp::Send {
                local: src,
                len: (i + 1) * 8192,
            },
        );
    }
    c.run_until_quiescent(5_000_000);
    let mut ib = injections(c.chaos());
    for n in 0..2 {
        let counters = c.node(n).engine().counters();
        for name in ["npf_chaos_delays", "npf_chaos_retries"] {
            ib.push((format!("node{n}.{name}"), counters.get(name)));
        }
    }
    ib.push((
        "send_completions".into(),
        c.drain_completions(0).len() as u64,
    ));
    ib.push((
        "recv_completions".into(),
        c.drain_completions(1).len() as u64,
    ));
    ib.push(("now_ns".into(), c.now().as_nanos()));
    let ib_pinned: &[(&str, u64)] = &[
        ("mem_burst", 5),
        ("mem_storm", 1),
        ("net_corrupt", 14),
        ("net_drop", 28),
        ("net_duplicate", 19),
        ("net_reorder", 43),
        ("node0.npf_chaos_delays", 2),
        ("node0.npf_chaos_retries", 1),
        ("node1.npf_chaos_delays", 4),
        ("node1.npf_chaos_retries", 0),
        ("send_completions", 8),
        ("recv_completions", 8),
        ("now_ns", 10_000_000),
    ];
    assert_eq!(
        ib,
        ib_pinned
            .iter()
            .map(|&(n, v)| (n.to_string(), v))
            .collect::<Vec<_>>(),
        "IB bed at chaos seed {SEED:#x}"
    );

    let mut bed = ScenarioBuilder::ethernet()
        .mode(RxMode::Backup)
        .instances(1)
        .conns_per_instance(4)
        .ring_entries(64)
        .host_memory(ByteSize::mib(512))
        .disk(npf::memsim::swap::DiskConfig::nvme())
        .memcached(MemcachedConfig {
            max_bytes: ByteSize::mib(64),
            value_size: 1024,
        })
        .working_set_keys(1000)
        .chaos(chaos)
        .build()
        .expect("setup");
    bed.run_until(SimTime::from_secs(1));
    let mut eth = injections(bed.chaos());
    let counters = bed.engine().counters();
    for name in ["npf_chaos_delays", "npf_chaos_retries"] {
        eth.push((name.to_string(), counters.get(name)));
    }
    eth.push(("ops".into(), bed.total_ops()));
    eth.push(("now_ns".into(), bed.now().as_nanos()));
    let eth_pinned: &[(&str, u64)] = &[
        ("irq_delayed", 64),
        ("irq_lost", 19),
        ("mem_burst", 419),
        ("mem_storm", 109),
        ("net_corrupt", 6),
        ("net_drop", 15),
        ("net_duplicate", 12),
        ("net_reorder", 20),
        ("npf_chaos_delays", 60),
        ("npf_chaos_retries", 44),
        ("ops", 110),
        ("now_ns", 1_000_000_000),
    ];
    assert_eq!(
        eth,
        eth_pinned
            .iter()
            .map(|&(n, v)| (n.to_string(), v))
            .collect::<Vec<_>>(),
        "Ethernet bed at chaos seed {SEED:#x}"
    );
}
