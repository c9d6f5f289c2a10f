//! The repository's benchmark, measured from outside the simulator.
//!
//! `--workload W --seed S --seconds T --trace 0|1` runs one workload in
//! this process and ends with one JSON result line (the form the driver
//! of `BENCHMARK.json` calls). Without `--trace` it runs the suite: each
//! workload in a child process, untraced then traced, printing a table
//! and writing `out/results.json`. `--selfcheck` runs the suite three
//! times and compares the sets. See `README.md` beside this package.

mod json;
mod kernels;
mod metrics;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::{obj, Json};
use kernels::Shape;
use metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use spans::SpanLog;
use stats::{quiet, summarize};
use workloads::{Kind, Repeat, Trace, Workload};

/// `run_seconds` of `BENCHMARK.json`: the time one run spends on
/// repeats when `--seconds` is not given.
pub const DEFAULT_SECONDS: u64 = 18;

/// Repeats a run makes even when they outlast `--seconds`.
const MIN_REPEATS: usize = 3;

/// Set-up samples a run collects (repeats' own, then set-up-only
/// builds), and the time it may spend on the extra ones. The cheap
/// set-ups (InfiniBand: well under a millisecond) need the many samples
/// for a steady figure; the expensive ones run out of budget first.
const SETUP_SAMPLES: usize = 101;
const SETUP_EXTRA_BUDGET: Duration = Duration::from_millis(1500);

/// Share of `--seconds` a traced run spends on repeats; the kernels
/// need the rest.
const TRACED_REPEAT_SHARE: f64 = 0.6;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    selfcheck: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        selfcheck: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--out-dir" => args.out_dir = PathBuf::from(value("a directory")?),
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(name) = &args.workload {
        if workloads::find(name).is_none() {
            let known: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name:?}; known: {}",
                known.join(", ")
            ));
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".to_owned());
    }
    Ok(args)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        });
    kib.unwrap_or(0.0) / 1024.0
}

/// Output checks meant to survive later model changes: determinism,
/// drained backup ring, shape guards and the paper anchor (failed
/// connections, error completions and undelivered operations are
/// already counted in `Tally::failed`). One line per failed check.
fn check(w: &Workload, repeats: &[&Repeat]) -> Vec<String> {
    let reference = &repeats[0].tally;
    let mut failures = Vec::new();
    for (i, r) in repeats.iter().enumerate().skip(1) {
        if r.tally != *reference {
            failures.push(format!(
                "repeat {i} tallied differently from repeat 0 at one seed"
            ));
        }
    }
    let t = reference;
    if t.drained_resolved < t.stored_at_window_end {
        failures.push(format!(
            "backup ring did not drain: {} resolved of {} stored",
            t.drained_resolved, t.stored_at_window_end
        ));
    }
    let ratios = metrics::shape_ratios(t);
    for g in w.guards {
        let value = ratios
            .iter()
            .find(|(k, _)| *k == g.metric)
            .expect("guarded ratio")
            .1;
        if !(g.min..=g.max).contains(&value) {
            failures.push(format!(
                "shape guard: {} = {value} outside [{}, {}]",
                g.metric, g.min, g.max
            ));
        }
    }
    if let Some((paper, tolerance)) = w.anchor {
        let error = metrics::sim_ops_per_s(t) / paper - 1.0;
        if error.abs() > tolerance {
            failures.push(format!(
                "sim_ops_per_s is {:+.1} % from the paper's {paper}",
                error * 100.0
            ));
        }
    }
    failures
}

/// What one in-process run produced.
struct Outcome {
    defs: &'static [MetricDef],
    values: Values,
    /// What the result line has no room for (untraced runs).
    detail: Option<Json>,
    /// One line per failed output check.
    failures: Vec<String>,
    /// Operations one repeat attempted, and how many of them failed.
    attempted: u64,
    failed_ops: u64,
}

fn print_metrics(defs: &[MetricDef], values: &Values) {
    for (def, (name, value)) in defs.iter().zip(values) {
        debug_assert_eq!(def.name, *name);
        println!("{name:<34} {value:>16.6} {}", def.unit);
    }
}

fn metrics_json(defs: &[MetricDef], values: &Values) -> Json {
    obj(defs.iter().zip(values).map(|(def, &(name, value))| {
        (
            name,
            obj([("value", Json::from(value)), ("unit", Json::from(def.unit))]),
        )
    }))
}

/// The `--trace 0` run: repeats for `seconds`, each on a fresh testbed
/// at the same seed, then set-up-only builds.
fn run_untraced(w: &Workload, seed: u64, seconds: u64) -> Outcome {
    let clock = Instant::now();
    let mut repeats = Vec::new();
    while repeats.len() < MIN_REPEATS || clock.elapsed().as_secs_f64() < seconds as f64 {
        repeats.push(w.run(seed, None));
    }
    let mut setups: Vec<f64> = repeats.iter().map(|r| r.setup_s).collect();
    let extra = Instant::now();
    while setups.len() < SETUP_SAMPLES && extra.elapsed() < SETUP_EXTRA_BUDGET {
        setups.push(w.setup_only(seed));
    }
    let windows: Vec<f64> = repeats.iter().map(|r| r.measure_s).collect();
    let all: Vec<&Repeat> = repeats.iter().collect();
    let failures = check(w, &all);
    let tally = &repeats[0].tally;
    let values = metrics::end_to_end(
        quiet(&setups),
        metrics::host_wall_s(&all),
        peak_rss_mib(),
        tally,
    );

    let summary = |samples: &[f64]| {
        let s = summarize(samples).expect("at least one sample");
        obj([
            ("n", Json::from(s.n as u64)),
            ("median", Json::from(s.median)),
            ("min", Json::from(s.min)),
            ("max", Json::from(s.max)),
            ("iqr", Json::from(s.iqr)),
            (
                "samples",
                Json::Arr(samples.iter().map(|&v| Json::from(v)).collect()),
            ),
        ])
    };
    let mut detail = vec![
        ("setup_s", summary(&setups)),
        ("host_wall_s", summary(&windows)),
        ("sim_lat_samples", Json::from(tally.lat.samples)),
        (
            "slices",
            Json::Arr(
                repeats
                    .iter()
                    .map(|r| Json::Arr(r.slice_s.iter().map(|&v| Json::from(v)).collect()))
                    .collect(),
            ),
        ),
        ("validated", Json::from(w.anchor.is_some())),
    ];
    if let Some((paper, tolerance)) = w.anchor {
        let sim = metrics::sim_ops_per_s(tally);
        detail.push(("paper_ops_per_s", Json::from(paper)));
        detail.push(("paper_error_pct", Json::from((sim / paper - 1.0) * 100.0)));
        detail.push(("paper_tolerance_pct", Json::from(tolerance * 100.0)));
    }
    Outcome {
        defs: &END_TO_END,
        values,
        detail: Some(obj(detail)),
        failures,
        attempted: tally.attempted,
        failed_ops: tally.failed,
    }
}

fn shape_of(w: &Workload, r: &Repeat) -> Shape {
    let c = &r.tally.window;
    let mut shape = Shape {
        queue_depth: r.tally.queue_depth_end,
        cancel_ratio: if c.events_scheduled == 0 {
            0.0
        } else {
            c.events_cancelled as f64 / c.events_scheduled as f64
        },
        kv_keys: 0,
        rx_ring_entries: 64,
        npf: npf_core::NpfConfig::default(),
        pages_per_npf: c.npf_pages.checked_div(c.npf_events).unwrap_or(1),
        message_bytes: 64 * 1024,
        transport: netsim::profile::RdmaTransport::GoBackN,
        fabric_nodes: 2,
    };
    match &w.kind {
        Kind::Eth(spec) => {
            shape.kv_keys = spec.keys;
            shape.rx_ring_entries = spec.ring_entries;
            shape.npf = spec.scenario(0).config().npf;
        }
        Kind::Ib(spec) => {
            // `IbCluster` does not expose its queue; in flight are the
            // windows' packets, bounded by the RC window per flow.
            shape.queue_depth = u64::from(spec.senders) * 128;
            shape.message_bytes = spec.message_bytes;
            shape.transport = spec.transport;
            shape.fabric_nodes = spec.senders + 1;
        }
    }
    shape
}

/// The `--trace 1` run: untraced and traced repeats alternate, then the
/// isolated kernels run; spans go to `<out_dir>/<workload>.spans.json`.
fn run_traced(w: &Workload, seed: u64, seconds: u64, out_dir: &Path) -> Outcome {
    let clock = Instant::now();
    let mut log = SpanLog::new();
    let root = log.begin("workload", None);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    loop {
        // Alternate which kind goes first, so drift over the run does
        // not read as tracing overhead.
        for traced_turn in [traced.len() % 2 == 1, traced.len() % 2 == 0] {
            if traced_turn {
                let parent = log.begin(format!("traced_repeat.{}", traced.len()), Some(root));
                let trace = Trace {
                    log: &mut log,
                    parent,
                };
                traced.push(w.run(seed, Some(trace)));
                log.end(parent, Vec::new());
            } else {
                untraced.push(w.run(seed, None));
            }
        }
        if clock.elapsed().as_secs_f64() >= seconds as f64 * TRACED_REPEAT_SHARE {
            break;
        }
    }
    let kernels = kernels::measure(&shape_of(w, &untraced[0]), &mut log, root);
    log.end(root, Vec::new());

    let all: Vec<&Repeat> = untraced.iter().chain(&traced).collect();
    let mut failures = check(w, &all);
    let untraced: Vec<&Repeat> = untraced.iter().collect();
    let traced: Vec<&Repeat> = traced.iter().collect();
    let values = metrics::per_layer(w, &untraced, &traced, &kernels);

    let path = out_dir.join(format!("{}.spans.json", w.name));
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, log.to_json(w.name, seed).render_pretty()));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => failures.push(format!("cannot write {}: {e}", path.display())),
    }
    Outcome {
        defs: &PER_LAYER,
        values,
        detail: None,
        failures,
        attempted: untraced[0].tally.attempted,
        failed_ops: untraced[0].tally.failed,
    }
}

/// Runs one workload in this process and prints the result line.
fn run_one(w: &Workload, args: &Args, trace: bool) -> ExitCode {
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(trace)
    );
    let out = if trace {
        run_traced(w, args.seed, args.seconds, &args.out_dir)
    } else {
        run_untraced(w, args.seed, args.seconds)
    };
    print_metrics(out.defs, &out.values);
    for failure in &out.failures {
        println!("CHECK FAILED: {failure}");
    }
    if let Some(detail) = &out.detail {
        println!("{}{}", suite::DETAIL_PREFIX, detail.render());
    }
    // Failed operations and failed output checks both count as failed.
    let failed = out.failed_ops + out.failures.len() as u64;
    println!("ops_failed_share {}", failed as f64 / out.attempted as f64);
    let result = obj([
        ("correct", Json::from(failed == 0)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics_json(out.defs, &out.values)),
    ]);
    println!("{}", result.render());
    suite::exit_code(failed == 0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: run.sh [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--selfcheck] [--out-dir DIR]"
            );
            return ExitCode::from(2);
        }
    };
    match (args.trace, &args.workload) {
        (Some(trace), Some(name)) => {
            let w = workloads::find(name).expect("validated by parse_args");
            run_one(&w, &args, trace)
        }
        _ if args.selfcheck => suite::selfcheck(&args.out_dir, args.seconds),
        _ => suite::run(
            args.workload.as_deref(),
            args.seed,
            args.seconds,
            &args.out_dir,
        ),
    }
}
