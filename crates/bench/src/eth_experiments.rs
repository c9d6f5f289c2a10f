//! E4–E7: the Ethernet memcached experiments (Figure 4, Table 5,
//! Figure 7).

use simcore::time::SimTime;
use simcore::units::ByteSize;
use testbed::builder::{EthScenario, ScenarioBuilder};
use testbed::eth::RxMode;
use workloads::memcached::MemcachedConfig;

use crate::report::{f, Report};
use crate::tracectl::{task, RunCtx};

fn base_scenario(ctx: &RunCtx, mode: RxMode) -> EthScenario {
    // <2 GB working set: ~450k pages of 1 KB values.
    let scenario = ScenarioBuilder::ethernet()
        .mode(mode)
        .instances(1)
        .conns_per_instance(16)
        .ring_entries(64)
        .host_memory(ByteSize::gib(8))
        .memcached(MemcachedConfig {
            max_bytes: ByteSize::gib(3),
            value_size: 1024,
        })
        .working_set_keys(1_800_000)
        .chaos(ctx.opts.chaos)
        .profile(ctx.fabric_profile())
        .npf(ctx.npf_config());
    match ctx.tier_config() {
        Some(tier) => scenario.tier(tier),
        None => scenario,
    }
}

/// E4 — Figure 4(a): startup throughput over time, 64-entry ring.
///
/// `horizon_secs` bounds the simulated duration (the paper runs 80 s;
/// the interesting dynamics finish well before).
pub fn fig4a(ctx: &RunCtx, horizon_secs: u64) -> Report {
    let mut r = Report::new(
        "Cold-ring startup throughput over time (64-entry ring)",
        "Figure 4(a)",
    );
    r.columns(["t[s]", "pin[KTPS]", "backup[KTPS]", "drop[KTPS]"]);
    // Three independent testbeds (one per rx mode) — three coupling
    // groups for the worker pool.
    let series = ctx.pool(
        [RxMode::Pin, RxMode::Backup, RxMode::Drop]
            .into_iter()
            .map(|mode| {
                task(move || {
                    let mut bed = base_scenario(ctx, mode).build().expect("setup");
                    bed.start_sampling();
                    bed.run_until(SimTime::from_secs(horizon_secs));
                    (
                        bed.metrics()[0].ops.series().points().to_vec(),
                        bed.total_failed_conns(),
                    )
                })
            })
            .collect(),
    );
    // Report 1-second windows.
    for sec in 0..horizon_secs {
        let from = SimTime::from_secs(sec);
        let to = SimTime::from_secs(sec + 1);
        let vals: Vec<String> = series
            .iter()
            .map(|(pts, _)| {
                let mean = workloads_window_mean(pts, from, to);
                f(mean / 1e3, 1)
            })
            .collect();
        r.row([
            format!("{sec}"),
            vals[0].clone(),
            vals[1].clone(),
            vals[2].clone(),
        ]);
    }
    r.note(format!(
        "failed connections: pin {}, backup {}, drop {}",
        series[0].1, series[1].1, series[2].1
    ));
    r.note("paper: pin and backup reach steady state immediately; drop stays near zero for ~60s");
    r
}

fn workloads_window_mean(points: &[(SimTime, f64)], from: SimTime, to: SimTime) -> f64 {
    let mut sum = 0.0;
    let mut n = 0;
    for &(t, v) in points {
        if t > from && t <= to {
            sum += v;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// E5 — Figure 4(b): time to complete 10 000 operations vs ring size.
pub fn fig4b(ctx: &RunCtx, ops: u64, deadline_secs: u64) -> Report {
    let mut r = Report::new(
        "Time to perform operations vs receive ring size",
        "Figure 4(b)",
    );
    r.columns(["ring", "pin[s]", "backup[s]", "drop[s]"]);
    // 5 rings × 3 modes = 15 independent coupling groups.
    const RINGS: [u64; 5] = [16, 64, 256, 1024, 4096];
    const MODES: [RxMode; 3] = [RxMode::Pin, RxMode::Backup, RxMode::Drop];
    let cells = ctx.pool(
        RINGS
            .into_iter()
            .flat_map(|ring| MODES.into_iter().map(move |mode| (ring, mode)))
            .map(|(ring, mode)| {
                task(move || {
                    let scenario = base_scenario(ctx, mode)
                        .ring_entries(ring)
                        .bm_size(ring * 2);
                    let mut bed = scenario.build().expect("setup");
                    let done = bed.run_until_ops(ops, SimTime::from_secs(deadline_secs));
                    match done {
                        Some(t) => f(t.as_secs_f64(), 2),
                        // TCP gave up (SYN retries exhaust after ~127 s of
                        // dropped cold-ring traffic — the paper's "stack
                        // announces a failure").
                        None if bed.total_failed_conns() > 0 => "FAILED".to_owned(),
                        None => format!(">{deadline_secs}"),
                    }
                })
            })
            .collect(),
    );
    for (i, ring) in RINGS.into_iter().enumerate() {
        let mut row = vec![format!("{ring}")];
        row.extend(
            cells[i * MODES.len()..(i + 1) * MODES.len()]
                .iter()
                .cloned(),
        );
        r.row(row);
    }
    r.note("paper: drop takes >10s even at 16 entries and aborts (TCP max retries) at >=128");
    r
}

/// E6 — Table 5: aggregated throughput of 1–4 memcached VMs on an
/// 8 GB host (3 GB virtual each); pinning cannot start more than two.
pub fn table5(ctx: &RunCtx, measure_secs: u64) -> Report {
    let mut r = Report::new("Overcommit: aggregated memcached throughput", "Table 5");
    r.columns(["instances", "NPF[KTPS]", "pinning[KTPS]"]);
    // 4 instance counts × 2 modes = 8 independent coupling groups.
    let cells = ctx.pool(
        (1..=4u32)
            .flat_map(|n| {
                [RxMode::Backup, RxMode::Pin]
                    .into_iter()
                    .map(move |m| (n, m))
            })
            .map(|(n, mode)| {
                task(move || {
                    match base_scenario(ctx, mode).instances(n).build() {
                        Ok(mut bed) => {
                            // Warm up 1 s, then measure.
                            bed.run_until(SimTime::from_secs(1));
                            let before = bed.total_ops();
                            bed.run_until(SimTime::from_secs(1 + measure_secs));
                            let rate = (bed.total_ops() - before) as f64 / measure_secs as f64;
                            f(rate / 1e3, 0)
                        }
                        Err(_) => "N/A".to_owned(),
                    }
                })
            })
            .collect(),
    );
    for n in 1..=4usize {
        let mut row = vec![format!("{n}")];
        row.extend(cells[(n - 1) * 2..n * 2].iter().cloned());
        r.row(row);
    }
    r.note("paper: NPF 186/311/407/484; pinning 185/310/N/A/N/A (8GB host, 3GB VMs)");
    r
}

/// E7 — Figure 7: two instances whose working sets swap (100 MB ↔
/// 900 MB) under a shared 1 GB cgroup; hits per second over time.
///
/// Instance 1 starts with the large set (preloaded up to its capacity),
/// instance 0 with the small one; at `swap_at` they exchange sizes.
/// A `(time, hits-per-second)` series for one instance.
type HitSeries = Vec<(SimTime, f64)>;

pub fn fig7(ctx: &RunCtx, total_secs: u64, swap_at: u64) -> Report {
    let value_size = 20 * 1024; // the paper's 20 KB items
    let small_keys = (100u64 << 20) / value_size;
    // ~850 MB: the large set; together with the small one it fits the
    // 1 GB cgroup with the headroom a real deployment has.
    let big_keys = (850u64 << 20) / value_size;

    let run = |pinned: bool| -> (HitSeries, HitSeries) {
        let cache = |max_bytes| MemcachedConfig {
            max_bytes,
            value_size,
        };
        let scenario = base_scenario(ctx, if pinned { RxMode::Pin } else { RxMode::Backup })
            .instances(2)
            .conns_per_instance(8)
            .working_set_keys(small_keys)
            .preload(false); // per-instance manual warmup below
        let scenario = if pinned {
            // Static split: 500 MB each (the paper's only choice).
            scenario.memcached(cache(ByteSize::mib(500)))
        } else {
            scenario
                .memcached(cache(ByteSize::gib(1)))
                .cgroup_limit(ByteSize::gib(1))
        };
        let mut bed = scenario.build().expect("setup");
        // Instance 0 starts small (100 MB), instance 1 big (850 MB).
        // Preload big first so the small set stays resident.
        bed.resize_working_set(1, big_keys);
        bed.preload_instance(1, big_keys);
        bed.preload_instance(0, small_keys);
        bed.start_sampling();
        bed.run_until(SimTime::from_secs(swap_at));
        // The sets exchange sizes.
        bed.resize_working_set(0, big_keys);
        bed.resize_working_set(1, small_keys);
        bed.run_until(SimTime::from_secs(total_secs));
        (
            bed.metrics()[0].hits.series().points().to_vec(),
            bed.metrics()[1].hits.series().points().to_vec(),
        )
    };

    // Two independent testbeds (NPF vs pinned) — two coupling groups.
    let mut results = ctx.pool(vec![task(|| run(false)), task(|| run(true))]);
    let (pin_a, pin_b) = results.pop().expect("two tasks");
    let (npf_a, npf_b) = results.pop().expect("two tasks");

    let mut r = Report::new("Dynamic working sets: hits per second", "Figure 7");
    r.columns([
        "t[s]",
        "npf 100->900 [KHPS]",
        "npf 900->100 [KHPS]",
        "pin 100->900 [KHPS]",
        "pin 900->100 [KHPS]",
    ]);
    for sec in (0..total_secs).step_by(2) {
        let from = SimTime::from_secs(sec);
        let to = SimTime::from_secs(sec + 2);
        r.row([
            format!("{sec}"),
            f(workloads_window_mean(&npf_a, from, to) / 1e3, 1),
            f(workloads_window_mean(&npf_b, from, to) / 1e3, 1),
            f(workloads_window_mean(&pin_a, from, to) / 1e3, 1),
            f(workloads_window_mean(&pin_b, from, to) / 1e3, 1),
        ]);
    }
    r.note(format!("working sets swap at t={swap_at}s"));
    r.note("paper: with NPFs both instances converge to equal rates; with static pinning the big-set instance always suffers");
    r
}
