//! Byte-identity of the worker pool across worker counts.
//!
//! The contract the pool sells (`DESIGN.md` §13) is that `--jobs N` /
//! `--shards N` is *unobservable* in every artifact: stdout tables,
//! trace exports, journal exports, and invariant tallies are
//! byte-identical whether the coupling groups run serially or on N
//! workers. This suite pins that contract down with property tests
//! over randomly drawn scalebench cells, in three instrumentation
//! variants:
//!
//! * plain — trace + journal recording only;
//! * chaos — fault injection plus the invariant checker;
//! * chaos + watchdog — the above with a journal SLO watchdog armed.
//!
//! Each case runs the same task set at 1, 2, and 8 workers and demands
//! identical bytes from every export. The test at the bottom pins the
//! other half of the contract: a knob set on the [`RunCtx`] reaches
//! every task, on whichever thread it runs.
//!
//! Tuned small (`PROPTEST_CASES` overrides): the point is the
//! cross-shard comparison, not scenario coverage — `scale_determinism`
//! and the golden checks cover breadth.

use npf_bench::tracectl::{task, RunCtx};
use npf_core::ArbiterPolicy;
use proptest::prelude::*;
use simcore::chaos::{ChaosConfig, ChaosProfile, InvariantChecker};
use simcore::instruments::Instruments;
use simcore::journal::JournalRecorder;
use simcore::shard::Pool;
use simcore::trace::TraceRecorder;
use simcore::{JournalWatchdog, SimDuration};

const POLICIES: [ArbiterPolicy; 3] = [
    ArbiterPolicy::ChannelOnly,
    ArbiterPolicy::RoundRobin,
    ArbiterPolicy::WeightedFair,
];

/// Ring capacity for the per-task recorders: big enough that no cell
/// here wraps, small enough that 8 concurrent rings stay cheap.
const RING: usize = 1 << 16;

/// Everything one run exports, as bytes.
#[derive(PartialEq, Eq)]
struct Capture {
    cells: String,
    trace: String,
    journal: String,
    attribution: String,
    chaos: String,
}

/// First line where `a` and `b` disagree, for a readable failure.
fn first_diff(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("first diff at line {}: {la:?} vs {lb:?}", i + 1);
        }
    }
    format!("common prefix equal; lengths {} vs {}", a.len(), b.len())
}

/// Runs three coupled-by-nothing scalebench cells through
/// [`RunCtx::pool`] at `shards` workers (real threads on any host)
/// with caller-side instruments installed, exactly as the bench
/// binaries do, and returns every export.
fn run_at(
    shards: usize,
    tenants: u32,
    seed: u64,
    policy: ArbiterPolicy,
    quota: Option<u64>,
    chaos_seed: Option<u64>,
    watchdog: bool,
) -> Capture {
    // Caller-side instruments, mirroring `tracectl::run`'s setup.
    let mut jr = JournalRecorder::new();
    if watchdog {
        jr.set_watchdog(JournalWatchdog {
            budget: SimDuration::from_micros(200),
        });
    }
    let caller = Instruments {
        trace: Some(TraceRecorder::new(RING)),
        journal: Some(jr),
        checker: chaos_seed.map(InvariantChecker::new),
    };
    assert!(
        caller.install().is_empty(),
        "test thread must start uninstrumented"
    );

    let chaos = chaos_seed.map_or(ChaosConfig::disabled(), |s| {
        ChaosConfig::profile(ChaosProfile::All, s)
    });
    let mut ctx = RunCtx::default().with_pool(Pool::on_host(shards, 8));
    ctx.opts.chaos = chaos;
    let ctx = &ctx;

    let params = [
        (tenants, seed),
        (tenants, seed.wrapping_add(1)),
        (tenants + 1, seed),
    ];
    let cells = ctx.pool(
        params
            .iter()
            .map(|&(t, s)| task(move || npf_bench::scale::run_cell(ctx, t, s, policy, quota)))
            .collect(),
    );

    let installed = Instruments::take();
    let recorder = installed.trace.expect("installed above");
    let journal = installed.journal.expect("installed above");
    let chaos_summary = installed
        .checker
        .map(|checker| {
            let violations = format!("{:?}", checker.finish());
            format!(
                "seed={} checks={} resolved={} delivered={} violations={violations:?}",
                checker.seed(),
                checker.checks(),
                checker.resolved_faults(),
                checker.messages_delivered(),
            )
        })
        .unwrap_or_default();

    Capture {
        cells: cells
            .iter()
            .map(npf_bench::scale::cell_json)
            .collect::<Vec<_>>()
            .join("\n"),
        trace: recorder.export_chrome_json(),
        journal: journal.export_chrome_json(),
        attribution: journal.attribution_report(),
        chaos: chaos_summary,
    }
}

/// Asserts byte-identity of every export at shards 1 vs 2 vs 8.
fn assert_shard_invariant(
    tenants: u32,
    seed: u64,
    policy: ArbiterPolicy,
    quota: Option<u64>,
    chaos_seed: Option<u64>,
    watchdog: bool,
) -> Result<(), TestCaseError> {
    let base = run_at(1, tenants, seed, policy, quota, chaos_seed, watchdog);
    for shards in [2usize, 8] {
        let got = run_at(shards, tenants, seed, policy, quota, chaos_seed, watchdog);
        for (name, a, b) in [
            ("cells", &base.cells, &got.cells),
            ("trace", &base.trace, &got.trace),
            ("journal", &base.journal, &got.journal),
            ("attribution", &base.attribution, &got.attribution),
            ("chaos", &base.chaos, &got.chaos),
        ] {
            prop_assert!(
                a == b,
                "{name} diverged at shards {shards} vs 1 \
                 (tenants={tenants} seed={seed} policy={policy:?} quota={quota:?} \
                 chaos={chaos_seed:?} watchdog={watchdog}): {}",
                first_diff(a, b)
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]
    #[test]
    fn plain_runs_are_byte_identical_across_shard_counts(
        tenants in 2u32..5,
        seed in 1u64..1000,
        policy_idx in 0usize..3,
        quota_raw in 0u64..32,
    ) {
        // The shim has no `prop::option`; 0 stands in for "no quota".
        let quota = (quota_raw >= 4).then_some(quota_raw);
        assert_shard_invariant(tenants, seed, POLICIES[policy_idx], quota, None, false)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]
    #[test]
    fn chaos_runs_are_byte_identical_across_shard_counts(
        tenants in 2u32..5,
        seed in 1u64..1000,
        chaos_seed in 1u64..1000,
        policy_idx in 0usize..3,
    ) {
        assert_shard_invariant(
            tenants, seed, POLICIES[policy_idx], Some(16), Some(chaos_seed), false,
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]
    #[test]
    fn chaos_watchdog_runs_are_byte_identical_across_shard_counts(
        tenants in 2u32..5,
        seed in 1u64..1000,
        chaos_seed in 1u64..1000,
    ) {
        assert_shard_invariant(
            tenants, seed, ArbiterPolicy::WeightedFair, Some(16), Some(chaos_seed), true,
        )?;
    }
}

/// The bug the explicit [`RunCtx`] removes: knobs set for one figure
/// inside the process (the `enginebench` ablation cells) used to live
/// in a thread-local override, which spawned workers never saw — the
/// figure silently ran with the defaults on any multi-core host.
#[test]
fn knobs_reach_spawned_workers() {
    let knobs = RunCtx::default().with_huge_pages(true).with_prefetch(64);
    let serial = knobs.clone().with_pool(Pool::on_host(1, 8));
    let parallel = knobs.with_pool(Pool::on_host(4, 8));

    // Two probe tasks that meet at a barrier run on two threads at
    // once, so at least one is on a spawned worker.
    let gate = std::sync::Barrier::new(2);
    let caller = std::thread::current().id();
    let probes = parallel.pool(
        (0..2)
            .map(|_| {
                task(|| {
                    gate.wait();
                    (std::thread::current().id(), parallel.npf_config())
                })
            })
            .collect(),
    );
    assert!(
        probes.iter().any(|(thread, _)| *thread != caller),
        "a probe must have run on a spawned worker"
    );
    for (_, npf) in &probes {
        assert!(npf.huge_pages);
        assert_eq!(npf.prefetch_depth, 64);
    }

    let fig = |ctx| npf_bench::eth_experiments::fig4a(ctx, 1).render();
    assert_eq!(
        fig(&serial),
        fig(&parallel),
        "the figure must not depend on which threads ran its testbeds"
    );
}
