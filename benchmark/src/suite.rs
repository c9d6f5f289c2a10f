//! Suite mode: every workload in its own child process (so peak RSS is
//! per workload), untraced then traced; the results table,
//! `results.json`, and the `--selfcheck` comparison of two sets.

use std::path::Path;
use std::process::{Command, ExitCode};

use crate::json::{obj, Json};
use crate::metrics::{MetricDef, END_TO_END, LAYERS, PER_LAYER};
use crate::workloads::{self, Workload};

/// Prefix of the line on which an untraced child reports what the
/// result line has no room for (timing spread, paper anchor).
pub const DETAIL_PREFIX: &str = "detail: ";

/// `setup_s` differences below this many seconds never fail the
/// self-check: the InfiniBand set-ups take well under a millisecond.
const SETUP_FLOOR_S: f64 = 0.01;

/// One child run's result line (and detail line, when untraced).
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Metric values in the order the child printed them.
    metrics: Vec<(String, f64)>,
    detail: Json,
}

/// Both runs of one workload.
struct WorkloadResult {
    workload: Workload,
    untraced: ChildResult,
    traced: ChildResult,
}

impl WorkloadResult {
    fn correct(&self) -> bool {
        self.untraced.correct && self.traced.correct
    }
}

fn run_child(
    w: &Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: &Path,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .map_err(|e| format!("cannot start the child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with("CHECK FAILED")) {
        println!("  {line}");
    }
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| {
        format!(
            "{} (trace {}) printed no result line ({e}); stderr: {}",
            w.name,
            u8::from(trace),
            String::from_utf8_lossy(&output.stderr).trim()
        )
    })?;
    let field = |key: &str| result.get(key).ok_or(format!("result line lacks {key:?}"));
    let metrics = field("metrics")?
        .as_object()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            value
                .map(|v| (name.clone(), v))
                .ok_or(format!("metric {name} has no value"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .map_or(Ok(Json::Null), Json::parse)?;
    Ok(ChildResult {
        correct: field("correct")?
            .as_bool()
            .ok_or("correct is not a boolean")?,
        attempted: field("attempted")?
            .as_f64()
            .ok_or("attempted is not a number")? as u64,
        failed: field("failed")?.as_f64().ok_or("failed is not a number")? as u64,
        metrics,
        detail,
    })
}

/// Runs the selected workloads single-threaded, one child at a time.
fn run_set(
    only: Option<&str>,
    seed: u64,
    seconds: u64,
    out_dir: &Path,
) -> Result<Vec<WorkloadResult>, String> {
    let mut results = Vec::new();
    for w in workloads::all() {
        if only.is_some_and(|name| name != w.name) {
            continue;
        }
        eprintln!("running {} at seed {seed} ...", w.name);
        results.push(WorkloadResult {
            workload: w,
            untraced: run_child(&w, seed, seconds, false, out_dir)?,
            traced: run_child(&w, seed, seconds, true, out_dir)?,
        });
    }
    Ok(results)
}

fn value_of(metrics: &[(String, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(k, _)| k == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

fn print_table(results: &[WorkloadResult]) {
    for r in results {
        println!("\n== {} ==", r.workload.name);
        println!("   {}", r.workload.why);
        for def in &END_TO_END {
            let value = value_of(&r.untraced.metrics, def.name);
            let spread = r.untraced.detail.get(def.name).map_or(String::new(), |s| {
                let f = |k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
                format!(
                    "  [min {:.4} max {:.4} iqr {:.4} n {}]",
                    f("min"),
                    f("max"),
                    f("iqr"),
                    f("n")
                )
            });
            println!("{:<34} {value:>16.6} {}{spread}", def.name, def.unit);
        }
        let detail = |k: &str| r.untraced.detail.get(k).and_then(Json::as_f64);
        match (detail("paper_ops_per_s"), detail("paper_error_pct")) {
            (Some(paper), Some(error)) => println!(
                "   validated: sim_ops_per_s vs the paper's {paper} ops/s: {error:+.2} % (limit ±{} %)",
                detail("paper_tolerance_pct").unwrap_or(f64::NAN)
            ),
            _ => println!("   validated: false (the paper gives no number for this workload)"),
        }
        for def in &PER_LAYER {
            println!(
                "{:<34} {:>16.6} {}",
                def.name,
                value_of(&r.traced.metrics, def.name),
                def.unit
            );
        }
        println!(
            "   attempted {} failed {} correct {}",
            r.untraced.attempted,
            r.untraced.failed + r.traced.failed,
            r.correct()
        );
    }
    println!(
        "\n== est_share by layer (unit cost x count / host_wall_s; estimates, not measurements) =="
    );
    print!("{:<24}", "workload");
    for layer in LAYERS {
        print!("{layer:>10}");
    }
    println!("{:>10}{:>12}", "residual", "trace_ovh%");
    for r in results {
        print!("{:<24}", r.workload.name);
        for layer in LAYERS {
            print!(
                "{:>10.3}",
                value_of(&r.traced.metrics, &format!("{layer}.est_share"))
            );
        }
        println!(
            "{:>10.3}{:>12.2}",
            value_of(&r.traced.metrics, "testbed.residual_share"),
            value_of(&r.traced.metrics, "harness.trace_overhead_pct")
        );
    }
}

fn metrics_json(defs: &[MetricDef], metrics: &[(String, f64)]) -> Json {
    obj(defs.iter().map(|def| {
        let mut fields = vec![
            ("value", Json::from(value_of(metrics, def.name))),
            ("unit", Json::from(def.unit)),
            ("better", Json::from(def.better)),
        ];
        if let Some(bound) = def.bound {
            fields.push(("bound", Json::from(bound)));
        }
        (def.name, obj(fields))
    }))
}

fn results_json(results: &[WorkloadResult], seed: u64, seconds: u64) -> Json {
    let workloads = results
        .iter()
        .map(|r| {
            obj([
                ("name", Json::from(r.workload.name)),
                ("why", Json::from(r.workload.why)),
                ("validated", Json::from(r.workload.anchor.is_some())),
                ("correct", Json::from(r.correct())),
                ("attempted", Json::from(r.untraced.attempted)),
                ("failed", Json::from(r.untraced.failed + r.traced.failed)),
                ("end_to_end", metrics_json(&END_TO_END, &r.untraced.metrics)),
                ("detail", r.untraced.detail.clone()),
                ("per_layer", metrics_json(&PER_LAYER, &r.traced.metrics)),
            ])
        })
        .collect();
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    obj([
        ("schema", Json::from("npf-benchmark-v1")),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        // Workloads run one at a time on one thread each; the count is
        // recorded because host timings depend on what else it leaves.
        ("host_threads", Json::from(threads)),
        ("claim", Json::Null),
        ("workloads", Json::Arr(workloads)),
    ])
}

pub fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the suite once, prints the table, writes `results.json`.
pub fn run(only: Option<&str>, seed: u64, seconds: u64, out_dir: &Path) -> ExitCode {
    let results = match run_set(only, seed, seconds, out_dir) {
        Ok(results) => results,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    print_table(&results);
    let path = out_dir.join("results.json");
    let written = std::fs::create_dir_all(out_dir).and_then(|()| {
        std::fs::write(&path, results_json(&results, seed, seconds).render_pretty())
    });
    match written {
        Ok(()) => println!("\nresults written to {}", path.display()),
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    exit_code(results.iter().all(WorkloadResult::correct))
}

/// Host timings and memory vary between runs; everything else is
/// simulated and must repeat exactly at one seed.
fn is_host_metric(def: &MetricDef) -> bool {
    matches!(def.unit, "s" | "MiB")
}

/// Runs the suite twice at seed 1 and once at held-out seed 2. Host
/// metrics must agree within their bounds between the two seed-1 sets;
/// simulated metrics and exact counts must be identical.
pub fn selfcheck(out_dir: &Path, seconds: u64) -> ExitCode {
    let sets: Result<Vec<_>, _> = [1, 1, 2]
        .iter()
        .map(|&seed| run_set(None, seed, seconds, out_dir))
        .collect();
    let sets = match sets {
        Ok(sets) => sets,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let (first, second, held_out) = (&sets[0], &sets[1], &sets[2]);
    let mut ok = true;
    println!(
        "{:<24}{:<20}{:>16}{:>16}{:>10}{:>16}",
        "workload", "metric", "seed 1 (a)", "seed 1 (b)", "diff %", "seed 2"
    );
    for ((a, b), c) in first.iter().zip(second).zip(held_out) {
        for def in &END_TO_END {
            let (va, vb) = (
                value_of(&a.untraced.metrics, def.name),
                value_of(&b.untraced.metrics, def.name),
            );
            let diff = (vb - va).abs() / va.abs();
            let pass = if is_host_metric(def) {
                diff <= def.bound.expect("end-to-end metrics are bounded")
                    || (def.name == "setup_s" && (vb - va).abs() <= SETUP_FLOOR_S)
            } else {
                va == vb
            };
            ok &= pass;
            println!(
                "{:<24}{:<20}{va:>16.6}{vb:>16.6}{:>10.3}{:>16.6}{}",
                a.workload.name,
                def.name,
                diff * 100.0,
                value_of(&c.untraced.metrics, def.name),
                if pass { "" } else { "  MISMATCH" }
            );
        }
        for def in PER_LAYER
            .iter()
            .filter(|d| matches!(d.unit, "count" | "sim_us"))
        {
            let (va, vb) = (
                value_of(&a.traced.metrics, def.name),
                value_of(&b.traced.metrics, def.name),
            );
            // `harness.repeats` counts how many repeats fit the budget.
            if va != vb && def.name != "harness.repeats" {
                ok = false;
                println!(
                    "{:<24}{:<34}{va:>16}{vb:>16}  MISMATCH",
                    a.workload.name, def.name
                );
            }
        }
        for (label, set) in [("seed 1 (a)", a), ("seed 1 (b)", b), ("seed 2", c)] {
            if !set.correct() {
                ok = false;
                println!("{:<24}output checks failed at {label}", set.workload.name);
            }
        }
    }
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    exit_code(ok)
}
