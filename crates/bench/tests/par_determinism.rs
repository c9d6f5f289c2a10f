//! Serial-vs-parallel equivalence: the same experiments at `--jobs 1`
//! and `--jobs 4` must produce byte-identical output — stdout, metrics
//! files, trace files, and the chaos verdict — because every task is a
//! hermetic deterministic island and results merge in task order.
//!
//! Two angles:
//!
//! * end-to-end through a real binary (`ablations`, six tasks), with
//!   `--metrics`/`--trace` export, and with chaos flags that its
//!   testbeds do not take (it must refuse them the same way at every
//!   job count);
//! * in-process through the worker pool with fault injection actually
//!   firing (the binaries' ablation testbeds don't take a chaos
//!   config, so injection equivalence needs a direct testbed).

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::Command;

use npf_bench::report::Report;
use simcore::chaos::{ChaosConfig, ChaosProfile, InvariantChecker};
use simcore::instruments::Instruments;
use simcore::shard::{task, Pool, Task};
use simcore::trace::TraceRecorder;
use simcore::units::ByteSize;

/// Output of one binary run: exit code, stdout, stderr, and the
/// exported files' contents (empty when not written).
struct BinRun {
    code: Option<i32>,
    stdout: Vec<u8>,
    stderr: String,
    metrics: String,
    trace: String,
}

/// Runs the `ablations` binary with `jobs` workers, exporting metrics
/// and a trace into a per-run temp directory.
fn run_ablations(jobs: u32, extra: &[&str]) -> BinRun {
    let dir = std::env::temp_dir().join(format!(
        "npf-par-determinism-{}-j{jobs}-{}",
        std::process::id(),
        extra.len()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics: PathBuf = dir.join("metrics.json");
    let trace: PathBuf = dir.join("trace.json");
    let out = Command::new(env!("CARGO_BIN_EXE_ablations"))
        .arg(format!("--jobs={jobs}"))
        .arg(format!("--metrics={}", metrics.display()))
        .arg(format!("--trace={}", trace.display()))
        .args(extra)
        .output()
        .expect("run ablations");
    let run = BinRun {
        code: out.status.code(),
        stdout: out.stdout,
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        metrics: std::fs::read_to_string(&metrics).unwrap_or_default(),
        trace: std::fs::read_to_string(&trace).unwrap_or_default(),
    };
    let _ = std::fs::remove_dir_all(&dir);
    run
}

#[test]
fn ablations_binary_is_byte_identical_across_jobs() {
    let serial = run_ablations(1, &[]);
    let parallel = run_ablations(4, &[]);
    assert_eq!(serial.code, Some(0), "{}", serial.stderr);
    assert_eq!(parallel.code, Some(0), "{}", parallel.stderr);
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&parallel.stdout),
        "stdout must not depend on --jobs"
    );
    assert_eq!(serial.metrics, parallel.metrics, "metrics export");
    assert_eq!(serial.trace, parallel.trace, "trace export");
    assert!(!serial.stdout.is_empty(), "reports actually printed");
    assert!(serial.metrics.contains('{'), "metrics actually exported");
}

/// `ablations` builds no testbed that takes a chaos config, so chaos
/// flags inject nothing: the run must say so and exit 2 instead of
/// printing a clean verdict, identically at every job count.
#[test]
fn ablations_binary_is_byte_identical_across_jobs_under_chaos() {
    let chaos = ["--chaos-profile", "all", "--chaos-seed", "9"];
    let serial = run_ablations(1, &chaos);
    let parallel = run_ablations(4, &chaos);
    for run in [&serial, &parallel] {
        assert_eq!(run.code, Some(2), "{}", run.stderr);
        assert!(
            run.stderr
                .contains("--chaos-seed/--chaos-profile reached no testbed"),
            "{}",
            run.stderr
        );
        assert!(
            !run.stderr.contains("no invariant violations"),
            "{}",
            run.stderr
        );
    }
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&parallel.stdout),
        "stdout must not depend on --jobs under chaos"
    );
    assert_eq!(
        serial.stderr, parallel.stderr,
        "stderr must not depend on --jobs"
    );
}

/// A small two-node IB transfer with fault injection armed through the
/// testbed config (not argv), so chaos actually fires inside the task.
fn chaos_ib_task(seed: u64) -> Task<'static, Report> {
    task(move || {
        use rdmasim::types::{RcConfig, SendOp, WcStatus};
        use testbed::builder::ScenarioBuilder;
        let mut c = ScenarioBuilder::infiniband()
            .nodes(2)
            .rc(RcConfig {
                max_retries: 100_000,
                max_rnr_retries: 100_000,
                ..RcConfig::default()
            })
            .chaos(ChaosConfig::profile(ChaosProfile::All, seed))
            .disk(memsim::swap::DiskConfig::nvme())
            .build()
            .expect("valid scenario");
        let (qa, qb) = c.connect(0, 1);
        let src = c.alloc_buffers(0, ByteSize::mib(4));
        let dst = c.alloc_buffers(1, ByteSize::mib(4));
        const MSGS: u64 = 8;
        for i in 0..MSGS {
            c.post_recv(1, qb, 1000 + i, dst, 4 << 20);
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
        let recv = c.drain_completions(1);
        let mut r = Report::new(&format!("chaos ib seed {seed}"), "par_determinism");
        r.columns(["wr_id", "len", "status"]);
        for comp in &recv {
            r.row([
                comp.wr_id.to_string(),
                comp.len.to_string(),
                format!("{:?}", comp.status),
            ]);
        }
        assert_eq!(recv.len() as u64, MSGS, "delivery at seed {seed}");
        assert!(
            recv.iter().all(|c| c.status == WcStatus::Success),
            "status at seed {seed}"
        );
        r
    })
}

/// Runs four chaos tasks on `pool` under a caller-side recorder and
/// checker, as `tracectl::run` would install them, and renders
/// everything observable about the run into one comparable blob.
fn fingerprint(pool: &Pool) -> (String, Vec<Report>, u64) {
    let caller = Instruments {
        trace: Some(TraceRecorder::new(1 << 16)),
        checker: Some(InvariantChecker::new(21)),
        ..Instruments::default()
    };
    assert!(caller.install().is_empty());
    let reports = pool.run((0..4).map(|i| chaos_ib_task(21 + i)).collect());
    let installed = Instruments::take();
    let checker = installed.checker.expect("installed above");
    let recorder = installed.trace.expect("installed above");
    let rendered = reports
        .iter()
        .map(Report::render)
        .collect::<Vec<_>>()
        .join("\n");
    let blob = format!(
        "{rendered}\n---\nviolations={} checks={} outstanding={}\n---\n{}\n---\n{}",
        checker.violations().len(),
        checker.checks(),
        checker.outstanding_faults(),
        recorder.metrics().to_json(),
        recorder.export_chrome_json(),
    );
    (blob, reports, checker.checks())
}

#[test]
fn injected_chaos_runs_are_identical_across_jobs() {
    let (fs, reports, checks) = fingerprint(&Pool::on_host(1, 4));
    // `on_host` makes the four workers real threads on a 1-core host too.
    let (fp, _, _) = fingerprint(&Pool::on_host(4, 4));
    if fs != fp {
        std::fs::write("/tmp/fp_serial.txt", &fs).ok();
        std::fs::write("/tmp/fp_parallel.txt", &fp).ok();
    }
    assert_eq!(
        fs, fp,
        "injected chaos must merge identically at every job count"
    );
    assert!(
        checks > 0,
        "the invariant checker actually observed the runs"
    );
    // The report bodies differ per seed, so merge order is observable.
    let mut seen = HashMap::new();
    for r in &reports {
        *seen.entry(r.render()).or_insert(0u32) += 1;
    }
    assert_eq!(seen.len(), 4, "per-seed tasks produced distinct reports");
}
