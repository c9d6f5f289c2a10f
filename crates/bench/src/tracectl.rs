//! Command-line handling and the run context for the bench binaries.
//!
//! Every `bin/` target starts `main` with [`RunOpts::init`] — one
//! strict parse of argv shared by all binaries, so an unknown or
//! malformed flag fails uniformly (status 2) everywhere — and gets back
//! a [`RunCtx`]: the parsed options plus the run's worker budget. The
//! binary passes `&ctx` into every experiment function that reads a
//! knob or fans out work, and wraps its body in [`run`] or
//! [`run_tasks`], which install the instruments the flags ask for and
//! export them afterwards. Nothing below `main` looks at argv, a
//! global, or a thread-local to find its configuration: a knob reaches
//! a testbed because the value carrying it was handed there.
//!
//! The shared flags are the [`STANDARD_FLAGS`] table (`--help` prints
//! it). `--jobs` is the one worker budget that experiment points and
//! the testbeds inside them share ([`simcore::shard`]); output is
//! byte-identical at every value.
//! All feature knobs default to the paper's configuration, so every
//! figure is byte-identical unless a flag says otherwise.
//!
//! Traces are stamped exclusively with [`simcore::time::SimTime`], so
//! the same seed produces byte-identical files.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use memsim::manager::TierConfig;
use netsim::profile::{FabricProfile, RdmaTransport, TransportConfig};
use npf_core::npf::NpfConfig;
use npf_core::{ArbiterPolicy, BackendKind};
use simcore::chaos::{ChaosConfig, ChaosProfile, InvariantChecker};
use simcore::instruments::Instruments;
use simcore::journal::JournalRecorder;
use simcore::shard::Pool;
pub use simcore::shard::{task, Task};
use simcore::trace::TraceRecorder;
use simcore::units::ByteSize;

use crate::report::Report;

/// Default ring capacity for binary-driven traces: large enough to
/// hold full experiment runs without wrapping.
const DEFAULT_CAPACITY: usize = 1 << 20;

/// The flags every bench binary accepts, as `(name, value, help)`:
/// the one table both the parser's accepted set and `--help` come
/// from. A binary registers any extra value-taking flags of its own
/// via [`RunOpts::init`]; anything else on the command line is
/// rejected with a uniform error.
const STANDARD_FLAGS: &[(&str, &str, &str)] = &[
    ("trace", "<path>", "write a Chrome trace-event JSON on exit"),
    (
        "metrics",
        "<path>",
        "write the metrics registry (CSV for .csv paths)",
    ),
    (
        "journal",
        "<path>",
        "write the fault-lifecycle journal (.txt for text)",
    ),
    ("chaos-seed", "<n>", "enable fault injection with seed n"),
    (
        "chaos-profile",
        "<p>",
        "chaos profile: network, interrupts, npf, memory,\nall (default all)",
    ),
    (
        "jobs",
        "<n>",
        "worker threads for the whole run (0 = all cores),\n\
         shared by experiment points and the independent\n\
         testbeds inside them; output is byte-identical\n\
         at any n",
    ),
    ("tenants", "<n>", "tenant/IO-channel count for scale sweeps"),
    (
        "arbiter",
        "<policy>",
        "cross-channel fault arbitration: channel, rr, wfq",
    ),
    ("quota", "<entries>", "per-tenant backup-ring quota"),
    (
        "backend",
        "<kind>",
        "ODP backend: firmware, softemu, pinned",
    ),
    (
        "hugepages",
        "<on|off>",
        "fold 2 MiB huge pages in the IOMMU tables",
    ),
    (
        "prefetch",
        "<depth>",
        "speculative NPF prefetch depth in pages (0 = off)",
    ),
    (
        "tier",
        "<mib>",
        "NVM backing tier of <mib> MiB before swap (0 = off)",
    ),
    (
        "transport",
        "<t>",
        "RC loss recovery: gbn (go-back-N, default), irn\n(selective repeat with a BDP cap)",
    ),
    (
        "loss",
        "<p>",
        "random per-packet loss probability (default 0)",
    ),
    (
        "pfc",
        "<on|off>",
        "802.1Qbb priority flow control at the switch",
    ),
    (
        "ecn",
        "<on|off>",
        "ECN marking above the queueing-delay threshold",
    ),
];

/// The `--help` text shared by every bench binary: the standard flags
/// plus whatever extras the binary registered with [`RunOpts::init`].
fn usage(bin: &str, extra: &[&str]) -> String {
    let mut out = format!("usage: {bin} [--flag value ...]\n\nstandard flags:\n");
    for (name, value, help) in STANDARD_FLAGS {
        let mut head = format!("--{name} {value}");
        for line in help.lines() {
            out.push_str(&format!("  {head:<23}{line}\n"));
            head.clear();
        }
    }
    if !extra.is_empty() {
        out.push_str("\nbinary-specific flags:\n");
        for name in extra {
            out.push_str(&format!("  --{name} <value>\n"));
        }
    }
    out
}

/// The one parsed view of a bench binary's command line.
///
/// Parsing is strict — an unknown `--flag`, a missing value, a
/// duplicate, or a stray positional argument prints one uniform error
/// line and exits with status 2 — so every binary rejects typos the
/// same way instead of silently ignoring them.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// `--trace <path>`: write a Chrome trace-event JSON on exit.
    pub trace: Option<PathBuf>,
    /// `--metrics <path>`: write the metrics registry on exit.
    pub metrics: Option<PathBuf>,
    /// `--journal <path>`: write the fault-lifecycle journal on exit.
    pub journal: Option<PathBuf>,
    /// `--chaos-seed` / `--chaos-profile`: fault injection, disabled
    /// unless asked. `--chaos-profile` alone uses seed 0.
    pub chaos: ChaosConfig,
    /// `--jobs <n>`: the worker budget; absent → 1, `0` → all cores.
    pub workers: usize,
    /// `--tenants <n>`: tenant/IOchannel count for scale sweeps.
    pub tenants: Option<u32>,
    /// `--arbiter <policy>`: cross-channel fault arbitration policy
    /// (`channel`, `rr`, `wfq`).
    pub arbiter: Option<ArbiterPolicy>,
    /// `--quota <entries>`: per-tenant backup-ring quota.
    pub quota: Option<u64>,
    /// `--backend <kind>`: the ODP backend (`firmware`, `softemu`,
    /// `pinned`).
    pub backend: Option<BackendKind>,
    /// `--hugepages <on|off>`: 2 MiB huge-page folding in the IOMMU
    /// page tables.
    pub huge_pages: bool,
    /// `--prefetch <depth>`: speculative stride-stream NPF prefetch
    /// depth in pages (0 disables).
    pub prefetch: u32,
    /// `--tier <mib>`: NVM backing-tier capacity in MiB (absent or 0
    /// disables tiering).
    pub tier_mib: Option<u64>,
    /// `--transport <gbn|irn>`: the RC loss-recovery discipline, when
    /// given (sweeps visit both when it is not).
    pub transport: Option<RdmaTransport>,
    /// `--loss <p>`: random per-packet loss probability in `[0, 1)`.
    pub loss: f64,
    /// `--pfc <on|off>`: 802.1Qbb priority flow control at the switch.
    pub pfc: bool,
    /// `--ecn <on|off>`: ECN marking when the queueing delay crosses
    /// the profile's threshold.
    pub ecn: bool,
    /// Values of the binary-specific flags registered with `init`.
    extras: BTreeMap<String, String>,
}

/// Removes `--<name>` from `values` and converts it with `parse`,
/// prefixing a conversion error with the flag's name.
fn typed<T>(
    values: &mut BTreeMap<String, String>,
    name: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    values
        .remove(name)
        .map(|v| parse(&v).map_err(|e| format!("--{name} {e}")))
        .transpose()
}

fn integer<T: std::str::FromStr>(v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("must be an integer: {e}"))
}

/// An on/off switch value (`on`, `true`, `1` / `off`, `false`, `0`).
fn switch(v: &str) -> Result<bool, String> {
    match v {
        "on" | "true" | "1" => Ok(true),
        "off" | "false" | "0" => Ok(false),
        _ => Err(format!("must be on|off: {v:?}")),
    }
}

/// A worker count: `0` means every hardware thread of this host.
fn worker_count(v: &str) -> Result<usize, String> {
    integer(v).map(|n| match n {
        0 => simcore::shard::host_parallelism(),
        n => n,
    })
}

impl RunOpts {
    /// Parses the process command line, accepting [`STANDARD_FLAGS`]
    /// plus the binary's own `extra` value-taking flags, and returns
    /// the run's context. Call once at the top of `main`. Exits with
    /// status 2 on any malformed or unknown argument, and with status 0
    /// after printing the usage on `--help`.
    #[must_use]
    pub fn init(extra: &[&str]) -> RunCtx {
        let mut argv = std::env::args();
        let bin = argv.next().unwrap_or_else(|| "bench".to_owned());
        let args: Vec<String> = argv.collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            print!("{}", usage(&bin, extra));
            std::process::exit(0);
        }
        match Self::parse(&args, extra) {
            Ok(opts) => RunCtx::new(opts),
            Err(e) => {
                eprintln!("{bin}: error: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Strict parse of an argv slice. Every flag takes a value, in
    /// either `--flag value` or `--flag=value` form.
    ///
    /// # Errors
    ///
    /// Returns a one-line description for an unknown flag, a missing
    /// value, a duplicated flag, a positional argument, or a value
    /// that fails typed conversion.
    pub fn parse(args: &[String], extra: &[&str]) -> Result<Self, String> {
        let mut values: BTreeMap<String, String> = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(body) = arg.strip_prefix("--") else {
                return Err(format!(
                    "unexpected argument {arg:?} (flags are --name value)"
                ));
            };
            let (name, inline) = match body.split_once('=') {
                Some((n, v)) => (n, Some(v.to_owned())),
                None => (body, None),
            };
            if !STANDARD_FLAGS.iter().any(|(flag, ..)| *flag == name) && !extra.contains(&name) {
                return Err(format!("unknown flag --{name}"));
            }
            let value = match inline {
                Some(v) => v,
                None => it
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("--{name} requires a value"))?,
            };
            if values.insert(name.to_owned(), value).is_some() {
                return Err(format!("--{name} given more than once"));
            }
        }
        Self::from_values(values)
    }

    fn from_values(mut values: BTreeMap<String, String>) -> Result<Self, String> {
        let v = &mut values;
        let seed = typed(v, "chaos-seed", integer::<u64>)?;
        let profile = typed(v, "chaos-profile", |p| {
            ChaosProfile::from_name(p).ok_or_else(|| format!("{p:?} is unknown (try \"all\")"))
        })?;
        let chaos = if seed.is_some() || profile.is_some() {
            ChaosConfig::profile(profile.unwrap_or(ChaosProfile::All), seed.unwrap_or(0))
        } else {
            ChaosConfig::disabled()
        };
        let workers = typed(v, "jobs", worker_count)?.unwrap_or(1);
        let loss = typed(v, "loss", |p| {
            let loss: f64 = p
                .parse()
                .map_err(|e| format!("must be a probability: {e}"))?;
            if !loss.is_finite() || !(0.0..1.0).contains(&loss) {
                return Err(format!("must be in [0, 1): {p:?}"));
            }
            Ok(loss)
        })?
        .unwrap_or(0.0);
        let pfc = typed(v, "pfc", switch)?.unwrap_or(false);
        if pfc && loss > 0.0 {
            return Err(format!(
                "--pfc models a lossless fabric; it cannot be combined with --loss {loss}"
            ));
        }
        Ok(RunOpts {
            trace: v.remove("trace").map(PathBuf::from),
            metrics: v.remove("metrics").map(PathBuf::from),
            journal: v.remove("journal").map(PathBuf::from),
            chaos,
            workers,
            tenants: typed(v, "tenants", integer)?,
            arbiter: typed(v, "arbiter", |p| {
                ArbiterPolicy::parse(p).map_err(|bad| format!("does not accept {bad:?}"))
            })?,
            quota: typed(v, "quota", integer)?,
            backend: typed(v, "backend", |k| {
                BackendKind::parse(k).map_err(|bad| format!("does not accept {bad:?}"))
            })?,
            huge_pages: typed(v, "hugepages", switch)?.unwrap_or(false),
            prefetch: typed(v, "prefetch", integer)?.unwrap_or(0),
            tier_mib: typed(v, "tier", integer::<u64>)?.filter(|&mib| mib > 0),
            transport: typed(v, "transport", |t| {
                RdmaTransport::from_name(t).ok_or_else(|| format!("must be gbn|irn: {t:?}"))
            })?,
            loss,
            pfc,
            ecn: typed(v, "ecn", switch)?.unwrap_or(false),
            // What's left can only be the binary's registered extras.
            extras: values,
        })
    }

    /// The value of a binary-specific flag registered with `init`.
    #[must_use]
    pub fn extra(&self, name: &str) -> Option<&str> {
        self.extras.get(name).map(String::as_str)
    }
}

/// Everything an experiment needs from its caller: the parsed options
/// and the run's worker budget. `Clone + Send + Sync`; clones share the
/// budget, so however a run nests its fan-outs, at most
/// `opts.workers` task bodies execute at once.
///
/// Tests build one with `RunCtx::default()` (the paper's
/// configuration, serial) and the `with_*` setters.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// The parsed command line.
    pub opts: RunOpts,
    pool: Pool,
}

impl Default for RunCtx {
    /// What a binary run with no flags gets.
    fn default() -> Self {
        RunCtx::new(RunOpts::parse(&[], &[]).expect("an empty command line parses"))
    }
}

impl RunCtx {
    /// A context for `opts`, with a fresh budget of `opts.workers`.
    #[must_use]
    pub fn new(opts: RunOpts) -> Self {
        let pool = Pool::new(opts.workers);
        RunCtx { opts, pool }
    }

    /// This context with its own fresh budget of `workers` threads.
    #[must_use]
    pub fn with_workers(self, workers: usize) -> Self {
        self.with_pool(Pool::new(workers))
    }

    /// This context fanning out on `pool` (tests use
    /// [`Pool::on_host`] to force real worker threads on any host).
    #[must_use]
    pub fn with_pool(mut self, pool: Pool) -> Self {
        self.opts.workers = pool.workers();
        self.pool = pool;
        self
    }

    /// This context with `--hugepages` set — with [`Self::with_prefetch`],
    /// the ablation cell `enginebench` times next to the plain figure.
    #[must_use]
    pub fn with_huge_pages(mut self, on: bool) -> Self {
        self.opts.huge_pages = on;
        self
    }

    /// This context with `--prefetch <depth>` set.
    #[must_use]
    pub fn with_prefetch(mut self, depth: u32) -> Self {
        self.opts.prefetch = depth;
        self
    }

    /// Runs independent tasks on the run's worker budget and returns
    /// their results in task order; see [`simcore::shard`] for the
    /// determinism contract.
    pub fn pool<T: Send>(&self, tasks: Vec<Task<'_, T>>) -> Vec<T> {
        self.pool.run(tasks)
    }

    /// The [`NpfConfig`] matching the memory-feature flags: defaults
    /// plus `--hugepages` and `--prefetch`. Experiment drivers build on
    /// this (e.g. `.with_backend(...)`) so every binary honors the
    /// flags uniformly.
    #[must_use]
    pub fn npf_config(&self) -> NpfConfig {
        NpfConfig::default()
            .with_huge_pages(self.opts.huge_pages)
            .with_prefetch_depth(self.opts.prefetch)
    }

    /// The [`TierConfig`] requested with `--tier <mib>`, if any: an
    /// Optane-class NVM device of that capacity in front of the swap
    /// disk.
    #[must_use]
    pub fn tier_config(&self) -> Option<TierConfig> {
        self.opts.tier_mib.map(|mib| TierConfig {
            capacity: ByteSize::mib(mib),
        })
    }

    /// The [`FabricProfile`] matching the lossy-fabric flags: lossless
    /// by default, `--loss <p>` for random loss, `--pfc on` for
    /// 802.1Qbb flow control, `--ecn on` for marking at the default
    /// queueing-delay threshold.
    #[must_use]
    pub fn fabric_profile(&self) -> FabricProfile {
        let mut profile = FabricProfile::default()
            .with_loss(self.opts.loss)
            .with_pfc(self.opts.pfc);
        if self.opts.ecn {
            profile = profile.with_ecn(Some(simcore::time::SimDuration::from_micros(20)));
        }
        profile
    }

    /// The [`TransportConfig`] matching `--transport <gbn|irn>`: the
    /// default BDP cap with the requested discipline (go-back-N when
    /// the flag is absent).
    #[must_use]
    pub fn transport_config(&self) -> TransportConfig {
        TransportConfig::default().with_transport(self.opts.transport.unwrap_or_default())
    }
}

/// The invariant checker a run under `cfg` executes under: one when
/// chaos is enabled, announcing the seed so a violation can be
/// replayed, none otherwise.
pub(crate) fn chaos_checker(cfg: ChaosConfig) -> Option<InvariantChecker> {
    cfg.enabled().then(|| {
        eprintln!(
            "chaos enabled: seed {} (replay with --chaos-seed {})",
            cfg.seed, cfg.seed
        );
        InvariantChecker::new(cfg.seed)
    })
}

fn write_or_warn(path: &Path, what: &str, contents: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => eprintln!("{what} written to {}", path.display()),
        Err(e) => eprintln!("failed to write {what} to {}: {e}", path.display()),
    }
}

/// Runs `body` under the [`Instruments`] the flags ask for and exports
/// them afterwards: a trace recorder for `--trace`/`--metrics`, a fault
/// journal for `--journal`. Without any of them `body` runs
/// uninstrumented (instrumentation costs one branch per site).
///
/// With `--chaos-seed`/`--chaos-profile`, also installs an
/// [`InvariantChecker`] around `body`: a violation prints the failing
/// seed (plus the trace ring, when recording) and the process exits
/// nonzero, so chaos-enabled experiment runs are CI-able. A binary
/// whose testbeds take no chaos config built no enabled engine; rather
/// than print a clean verdict for faults it never injected, it exits 2.
///
/// Whatever `body` fans out through [`RunCtx::pool`] runs under fresh
/// copies of these instruments and is absorbed back in task order, so
/// the exported files are byte-identical at every worker count.
pub fn run<R>(ctx: &RunCtx, body: impl FnOnce() -> R) -> R {
    let opts = &ctx.opts;
    let recording = opts.trace.is_some() || opts.metrics.is_some();
    let asked = Instruments {
        checker: chaos_checker(opts.chaos),
        trace: recording.then(|| TraceRecorder::new(DEFAULT_CAPACITY)),
        journal: opts.journal.is_some().then(JournalRecorder::new),
    };
    assert!(
        asked.install().is_empty(),
        "instruments were already installed"
    );
    let out = body();
    let Instruments {
        trace,
        journal,
        checker,
    } = Instruments::take();
    if checker.as_ref().is_some_and(|c| c.chaos_engines() == 0) {
        eprintln!(
            "error: --chaos-seed/--chaos-profile reached no testbed: this binary injects no faults"
        );
        std::process::exit(2);
    }
    let violated = checker.is_some_and(|checker| report_chaos(opts.chaos, &checker));
    if let Some(recorder) = trace {
        if let Some(path) = &opts.trace {
            if recorder.dropped() > 0 {
                eprintln!(
                    "trace ring wrapped: {} oldest records dropped",
                    recorder.dropped()
                );
            }
            write_or_warn(path, "chrome trace", &recorder.export_chrome_json());
        }
        if let Some(path) = &opts.metrics {
            let contents = if path.extension().is_some_and(|e| e == "csv") {
                recorder.metrics().to_csv()
            } else {
                recorder.metrics().to_json()
            };
            write_or_warn(path, "metrics", &contents);
        }
    }
    if let (Some(path), Some(j)) = (&opts.journal, journal) {
        finish_journal(&j, path, violated);
    }
    if violated {
        std::process::exit(1);
    }
    out
}

/// Settles a captured fault journal: prints any SLO-watchdog hits,
/// dumps the attribution report on a chaos violation (the journal is
/// the "why was this fault slow" companion to the trace-ring dump),
/// and writes the requested export — attribution text for `.txt`
/// paths, Chrome flow-event JSON otherwise.
fn finish_journal(j: &JournalRecorder, path: &Path, violated: bool) {
    if !j.slo_hits().is_empty() {
        eprint!("{}", j.slo_report());
    }
    if violated {
        eprint!("{}", j.attribution_report());
    }
    let contents = if path.extension().is_some_and(|e| e == "txt") {
        j.attribution_report()
    } else {
        j.export_chrome_json()
    };
    write_or_warn(path, "fault journal", &contents);
}

/// Prints the end-of-run chaos verdict. Returns `true` when any
/// invariant was violated.
///
/// Experiments stop at a wall-clock horizon, not at quiescence, so
/// in-flight NPFs at the cut are expected — report them as context,
/// not as `finish()`'s liveness violation (the sweep tests, which do
/// hunt a quiescent cut, assert that predicate instead).
fn report_chaos(cfg: ChaosConfig, checker: &InvariantChecker) -> bool {
    let outstanding = checker.outstanding_faults();
    if outstanding > 0 {
        eprintln!(
            "chaos seed {}: {outstanding} NPFs still in flight at the horizon",
            cfg.seed
        );
    }
    let violations = checker.violations().len();
    if violations > 0 {
        eprintln!(
            "chaos seed {}: {violations} invariant violation(s) — replay with --chaos-seed {}",
            cfg.seed, cfg.seed
        );
        return true;
    }
    eprintln!(
        "chaos seed {}: no invariant violations ({} checks)",
        cfg.seed,
        checker.checks()
    );
    false
}

/// [`run`] for a binary whose body is a list of report-producing
/// experiment points: fans them over the worker budget and hands the
/// reports (in task order) to `emit` for printing, then settles exactly
/// like [`run`] — stdout first, chaos verdict on stderr, trace/metrics
/// files, then a nonzero exit on violation.
pub fn run_tasks(ctx: &RunCtx, tasks: Vec<Task<'_, Report>>, emit: impl FnOnce(Vec<Report>)) {
    run(ctx, || emit(ctx.pool(tasks)));
}

/// The tail every sweep binary ends with: `--check <path>` compares
/// this run against a committed artifact, otherwise the artifact is
/// written to `--out <path>` (default `default_out`).
///
/// Under `--check`, `verdict(path, baseline)` returns the line to print
/// when the run matches, or the lines for stderr when it drifted (exit
/// status 1). An unreadable baseline or unwritable output exits 2.
pub fn check_or_write(
    opts: &RunOpts,
    default_out: &str,
    what: &str,
    verdict: impl FnOnce(&str, &str) -> Result<String, Vec<String>>,
    render: impl FnOnce() -> String,
) {
    if let Some(path) = opts.extra("check") {
        let baseline = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("failed to read baseline {path}: {e}");
            std::process::exit(2);
        });
        match verdict(path, &baseline) {
            Ok(matches) => println!("{matches}"),
            Err(drift) => {
                for line in drift {
                    eprintln!("{line}");
                }
                std::process::exit(1);
            }
        }
    } else {
        let out_path = opts.extra("out").unwrap_or(default_out);
        if let Err(e) = std::fs::write(out_path, render()) {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(2);
        }
        println!("{what} written to {out_path}");
    }
}

/// The [`check_or_write`] verdict of a sweep whose artifact holds one
/// JSON line per cell: every cell's line must appear verbatim in
/// `baseline`. Subset runs (`--tenants 64`, `--backend softemu`) check
/// only their own cells, so the CI smoke jobs stay cheap while the
/// committed file keeps the full sweep.
pub fn cells_verdict<C>(
    path: &str,
    baseline: &str,
    cells: &[C],
    cell_json: impl Fn(&C) -> String,
) -> Result<String, Vec<String>> {
    let lines = cells.iter().map(cell_json);
    let mut drift: Vec<String> = lines
        .filter(|line| !baseline.contains(line.as_str()))
        .map(|line| format!("drifted from {path}: {line}"))
        .collect();
    if drift.is_empty() {
        return Ok(format!("all {} cells match {path}", cells.len()));
    }
    let summary = format!(
        "{} of {} cells drifted from {path}",
        drift.len(),
        cells.len()
    );
    drift.push(summary);
    Err(drift)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn help_lists_every_standard_flag_once() {
        let help = usage("bench", &["out"]);
        assert_eq!(STANDARD_FLAGS.len(), 17);
        for (name, ..) in STANDARD_FLAGS {
            assert_eq!(help.matches(&format!("\n  --{name} ")).count(), 1, "{name}");
        }
        assert!(help.contains("\n  --out <value>\n"), "{help}");
    }

    #[test]
    fn parses_chaos_flags() {
        let chaos = |items: &[&str]| RunOpts::parse(&argv(items), &[]).expect("valid").chaos;
        assert_eq!(chaos(&["--jobs", "1"]), ChaosConfig::disabled());
        let cfg = chaos(&["--chaos-seed", "42"]);
        assert_eq!(cfg.seed, 42);
        assert!(cfg.enabled());
        assert!(ChaosProfile::ALL.iter().all(|&class| cfg.arms(class)));
        let cfg = chaos(&["--chaos-seed=7", "--chaos-profile=network"]);
        assert_eq!(cfg.seed, 7);
        assert!(cfg.arms(ChaosProfile::Network));
        assert!(!cfg.arms(ChaosProfile::Interrupts));
        let cfg = chaos(&["--chaos-profile", "interrupts"]);
        assert!(cfg.arms(ChaosProfile::Interrupts));
        assert!(!cfg.arms(ChaosProfile::Network));
        assert_eq!(cfg.seed, 0);
        // `iommu` named a profile until its fault class was deleted;
        // `irq` was an unlisted alias of `interrupts`.
        for name in ["gremlins", "iommu", "irq"] {
            let bad = RunOpts::parse(&argv(&["--chaos-profile", name]), &[]).unwrap_err();
            assert!(
                bad.contains(&format!("--chaos-profile {name:?} is unknown")),
                "{bad}"
            );
        }
    }

    #[test]
    fn runopts_parses_standard_flags() {
        let opts = RunOpts::parse(
            &argv(&[
                "--trace=/tmp/t.json",
                "--metrics",
                "/tmp/m.csv",
                "--jobs=4",
                "--tenants",
                "256",
                "--arbiter=wfq",
                "--quota=64",
                "--backend=softemu",
                "--chaos-seed",
                "9",
                "--hugepages=on",
                "--prefetch=16",
                "--tier",
                "2048",
            ]),
            &[],
        )
        .expect("all standard flags");
        assert_eq!(opts.trace, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(opts.metrics, Some(PathBuf::from("/tmp/m.csv")));
        assert_eq!(opts.workers, 4);
        assert_eq!(opts.tenants, Some(256));
        assert_eq!(opts.arbiter, Some(ArbiterPolicy::WeightedFair));
        assert_eq!(opts.quota, Some(64));
        assert_eq!(opts.backend, Some(BackendKind::SoftEmu));
        assert!(opts.chaos.enabled());
        assert_eq!(opts.chaos.seed, 9);
        assert!(opts.huge_pages);
        assert_eq!(opts.prefetch, 16);
        assert_eq!(opts.tier_mib, Some(2048));
    }

    #[test]
    fn jobs_is_the_one_worker_budget() {
        let workers = |items: &[&str]| RunOpts::parse(&argv(items), &[]).expect("valid").workers;
        assert_eq!(workers(&[]), 1);
        assert_eq!(workers(&["--jobs", "3"]), 3);
        assert_eq!(
            workers(&["--jobs", "0"]),
            simcore::shard::host_parallelism()
        );
        let bad = RunOpts::parse(&argv(&["--jobs", "many"]), &[]).unwrap_err();
        assert!(bad.contains("--jobs must be an integer"), "{bad}");
    }

    #[test]
    fn shards_is_not_a_second_spelling_of_jobs() {
        let err = RunOpts::parse(&argv(&["--shards", "4"]), &[]).unwrap_err();
        assert!(err.contains("unknown flag --shards"), "{err}");
    }

    #[test]
    fn mem_feature_flags_default_off_and_reject_junk() {
        let opts = RunOpts::parse(&[], &[]).expect("empty argv");
        assert!(!opts.huge_pages);
        assert_eq!(opts.prefetch, 0);
        assert_eq!(opts.tier_mib, None);
        // `--tier 0` means "no tier", same as absent.
        let opts = RunOpts::parse(&argv(&["--tier", "0"]), &[]).expect("tier 0");
        assert_eq!(opts.tier_mib, None);
        let bad = RunOpts::parse(&argv(&["--hugepages", "maybe"]), &[]).unwrap_err();
        assert!(bad.contains("--hugepages must be on|off"), "{bad}");
        let bad = RunOpts::parse(&argv(&["--prefetch", "lots"]), &[]).unwrap_err();
        assert!(bad.contains("--prefetch must be an integer"), "{bad}");
    }

    #[test]
    fn mem_feature_knobs_reach_the_configs() {
        let plain = RunCtx::default();
        assert!(!plain.npf_config().huge_pages);
        assert_eq!(plain.npf_config().prefetch_depth, 0);
        assert!(plain.tier_config().is_none());
        let ctx = plain.clone().with_huge_pages(true).with_prefetch(32);
        let npf = ctx.npf_config();
        assert!(npf.huge_pages);
        assert_eq!(npf.prefetch_depth, 32);
        // The setters changed a clone, not the value it came from.
        assert!(!plain.npf_config().huge_pages);
        let tiered = RunCtx::new(RunOpts::parse(&argv(&["--tier", "1024"]), &[]).expect("tier"));
        let tier = tiered.tier_config().expect("tier on");
        assert_eq!(tier.capacity, ByteSize::mib(1024));
    }

    #[test]
    fn transport_flags_parse_and_validate() {
        let opts = RunOpts::parse(
            &argv(&["--transport", "irn", "--loss=0.01", "--ecn=on"]),
            &[],
        )
        .expect("lossy transport flags");
        assert_eq!(opts.transport, Some(RdmaTransport::SelectiveRepeat));
        assert!((opts.loss - 0.01).abs() < 1e-12);
        assert!(opts.ecn);
        assert!(!opts.pfc);

        let opts = RunOpts::parse(&argv(&["--pfc", "on"]), &[]).expect("pfc alone");
        assert!(opts.pfc);
        assert_eq!(opts.transport, None);

        let bad = RunOpts::parse(&argv(&["--transport", "tcp"]), &[]).unwrap_err();
        assert!(bad.contains("--transport must be gbn|irn"), "{bad}");
        let bad = RunOpts::parse(&argv(&["--loss", "1.5"]), &[]).unwrap_err();
        assert!(bad.contains("--loss must be in [0, 1)"), "{bad}");
        let bad = RunOpts::parse(&argv(&["--pfc=on", "--loss=0.01"]), &[]).unwrap_err();
        assert!(bad.contains("cannot be combined"), "{bad}");
    }

    #[test]
    fn transport_defaults_reproduce_the_legacy_fabric() {
        let ctx = RunCtx::new(RunOpts::parse(&[], &[]).expect("empty argv"));
        assert_eq!(ctx.opts.transport, None);
        assert_eq!(ctx.opts.loss, 0.0);
        assert!(!ctx.opts.pfc);
        assert!(!ctx.opts.ecn);
        // The config view: a transparent profile and a GBN transport.
        assert!(ctx.fabric_profile().is_lossless_default());
        assert_eq!(ctx.transport_config().transport, RdmaTransport::GoBackN);
    }

    #[test]
    fn runopts_defaults_when_argv_is_empty() {
        let ctx = RunCtx::new(RunOpts::parse(&[], &[]).expect("empty argv is fine"));
        let opts = &ctx.opts;
        assert_eq!(opts.trace, None);
        assert_eq!(opts.metrics, None);
        assert!(!opts.chaos.enabled());
        assert_eq!(opts.workers, 1);
        assert_eq!(opts.tenants, None);
        assert_eq!(opts.arbiter, None);
        assert_eq!(opts.quota, None);
        assert_eq!(opts.backend, None);
        assert_eq!(opts.extra("out"), None);
    }

    #[test]
    fn runopts_rejects_malformed_command_lines() {
        let unknown = RunOpts::parse(&argv(&["--frobnicate", "1"]), &[]).unwrap_err();
        assert!(unknown.contains("unknown flag --frobnicate"), "{unknown}");
        let positional = RunOpts::parse(&argv(&["stray"]), &[]).unwrap_err();
        assert!(positional.contains("unexpected argument"), "{positional}");
        let missing = RunOpts::parse(&argv(&["--jobs"]), &[]).unwrap_err();
        assert!(missing.contains("--jobs requires a value"), "{missing}");
        let twice = RunOpts::parse(&argv(&["--jobs", "1", "--jobs=2"]), &[]).unwrap_err();
        assert!(twice.contains("more than once"), "{twice}");
        let bad_policy = RunOpts::parse(&argv(&["--arbiter", "lottery"]), &[]).unwrap_err();
        assert!(bad_policy.contains("--arbiter"), "{bad_policy}");
        let bad_backend = RunOpts::parse(&argv(&["--backend", "quantum"]), &[]).unwrap_err();
        assert!(bad_backend.contains("--backend"), "{bad_backend}");
        let bad_int = RunOpts::parse(&argv(&["--tenants", "many"]), &[]).unwrap_err();
        assert!(
            bad_int.contains("--tenants must be an integer"),
            "{bad_int}"
        );
    }

    #[test]
    fn runopts_accepts_registered_extras_only() {
        let opts = RunOpts::parse(
            &argv(&["--out", "B.json", "--check=old.json"]),
            &["out", "check"],
        )
        .expect("registered extras");
        assert_eq!(opts.extra("out"), Some("B.json"));
        assert_eq!(opts.extra("check"), Some("old.json"));
        assert_eq!(opts.extra("other"), None);
        let err = RunOpts::parse(&argv(&["--out", "B.json"]), &[]).unwrap_err();
        assert!(err.contains("unknown flag --out"), "{err}");
    }

    #[test]
    fn run_without_flags_leaves_tracing_disabled() {
        let r = run(&RunCtx::default(), || {
            assert!(!simcore::trace::enabled());
            7
        });
        assert_eq!(r, 7);
    }
}
