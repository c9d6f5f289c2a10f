//! Differential ODP-backend sweep (the `backendbench` binary's
//! engine).
//!
//! Runs the *same* Ethernet scenario — cold backup-mode rings, a
//! handful of memcached tenants — once per ODP backend (firmware NPF,
//! NP-RDMA-style software emulation, pinned baseline) and per seed,
//! and tallies each run into one deterministic cell. The differential
//! is the point: workload progress must hold across backends while the
//! servicing counters swap columns (firmware events vs bounce-buffer
//! traffic vs unexpected-fault accounting). Cells fan out over the
//! run's worker pool ([`RunCtx::pool`]), so `--jobs N` produces
//! byte-identical output to a serial run; the JSON the binary commits
//! (`BENCH_backend.json`) carries only simulation-deterministic
//! tallies, never wall-clock.

use npf_core::BackendKind;
use simcore::{ByteSize, SimTime};
use testbed::builder::ScenarioBuilder;
use testbed::eth::RxMode;
use workloads::memcached::MemcachedConfig;

use crate::report::Report;
use crate::tracectl::RunCtx;

/// The backends a full sweep visits, in artifact order.
pub const SWEEP_BACKENDS: &[BackendKind] = &[
    BackendKind::Firmware,
    BackendKind::SoftEmu,
    BackendKind::Pinned,
];

/// The seeds each backend is sharded across.
pub const SWEEP_SEEDS: &[u64] = &[1, 2];

/// Simulated horizon per cell: long enough for every tenant's cold
/// ring to fault in under the slowest backend, short enough for CI.
pub const CELL_HORIZON: SimTime = SimTime::from_millis(150);

/// One sweep point: the identical scenario run under one backend and
/// seed. All fields are deterministic in `(backend, seed)` — nothing
/// here may ever hold wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendCell {
    /// The ODP backend this cell ran under.
    pub backend: BackendKind,
    /// Simulation seed of this cell.
    pub seed: u64,
    /// Completed memcached operations, all tenants.
    pub ops: u64,
    /// NPF engine fault events (any backend).
    pub faults: u64,
    /// Ring drops, all tenants.
    pub drops: u64,
    /// Firmware NPF events (firmware/pinned paths only).
    pub fw_events: u64,
    /// Faults bounced through the softemu pool (softemu only).
    pub bounces: u64,
    /// Bounce-buffer copy-outs on resolution (softemu only).
    pub copyouts: u64,
    /// Faults that waited for a free bounce buffer (softemu only).
    pub pool_waits: u64,
    /// Faults a nominally-pinned NIC had to service (pinned only).
    pub unexpected: u64,
    /// Largest per-tenant p99 request latency, in microseconds.
    pub p99_us: u64,
}

/// Runs one sweep cell: the canonical differential scenario under
/// `backend` with `seed`. The memory-feature and chaos knobs come from
/// `ctx`, so a chaos-enabled differential run exercises the identical
/// recipe with faults injected.
///
/// # Panics
///
/// Panics when the cell's scenario fails validation — a backendbench
/// bug, not an input error.
#[must_use]
pub fn run_cell(ctx: &RunCtx, backend: BackendKind, seed: u64) -> BackendCell {
    let mut bed = ScenarioBuilder::ethernet()
        .mode(RxMode::Backup)
        .instances(4)
        .conns_per_instance(2)
        .ring_entries(32)
        .bm_size(64)
        .backup_capacity(256)
        .host_memory(ByteSize::mib(512))
        .memcached(MemcachedConfig {
            max_bytes: ByteSize::mib(8),
            ..MemcachedConfig::default()
        })
        .working_set_keys(1_000)
        .npf(ctx.npf_config().with_backend(backend))
        .chaos(ctx.opts.chaos)
        .seed(seed)
        .build()
        .expect("backendbench cell must validate");
    bed.run_until(CELL_HORIZON);
    let counters = bed.engine().counters();
    let mut cell = BackendCell {
        backend,
        seed,
        ops: bed.total_ops(),
        faults: counters.get("npf_events"),
        drops: 0,
        fw_events: counters.get("fw_npf_events"),
        bounces: counters.get("softemu_bounces"),
        copyouts: counters.get("softemu_copyouts"),
        pool_waits: counters.get("softemu_pool_waits"),
        unexpected: counters.get("pinned_unexpected_faults"),
        p99_us: 0,
    };
    for i in 0..4 {
        let t = bed.tenant_report(i);
        cell.drops += t.drops;
        cell.p99_us = cell.p99_us.max(t.p99.as_micros());
    }
    cell
}

/// One cell as a single JSON line — the unit `--check` compares, so
/// the spelling must stay byte-stable.
#[must_use]
pub fn cell_json(c: &BackendCell) -> String {
    format!(
        "{{\"backend\": \"{}\", \"seed\": {}, \"ops\": {}, \"faults\": {}, \"drops\": {}, \
         \"fw_events\": {}, \"bounces\": {}, \"copyouts\": {}, \"pool_waits\": {}, \
         \"unexpected\": {}, \"p99_us\": {}}}",
        c.backend.as_str(),
        c.seed,
        c.ops,
        c.faults,
        c.drops,
        c.fw_events,
        c.bounces,
        c.copyouts,
        c.pool_waits,
        c.unexpected,
        c.p99_us
    )
}

/// The full JSON artifact: header plus one line per cell, in task
/// order. Deterministic in the cells — byte-identical at every
/// `--jobs` value.
#[must_use]
pub fn render_json(cells: &[BackendCell]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"npf-backendbench-v1\",\n");
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 == cells.len() { "" } else { "," };
        out.push_str(&format!("    {}{sep}\n", cell_json(c)));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the sweep as one stdout table, in cell order.
#[must_use]
pub fn render_report(cells: &[BackendCell]) -> Report {
    let mut r = Report::new(
        "ODP backend differential: one scenario, three servicing paths",
        "firmware NPF vs NP-RDMA-style softemu vs pinned",
    );
    r.columns([
        "backend",
        "seed",
        "ops",
        "faults",
        "drops",
        "fw events",
        "bounces",
        "copyouts",
        "pool waits",
        "unexpected",
        "p99[us]",
    ]);
    for c in cells {
        r.row([
            c.backend.as_str().to_owned(),
            c.seed.to_string(),
            c.ops.to_string(),
            c.faults.to_string(),
            c.drops.to_string(),
            c.fw_events.to_string(),
            c.bounces.to_string(),
            c.copyouts.to_string(),
            c.pool_waits.to_string(),
            c.unexpected.to_string(),
            c.p99_us.to_string(),
        ]);
    }
    r.note("identical scenario per row pair; only the servicing columns may differ by backend");
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracectl::cells_verdict;
    use crate::tracectl::task;

    #[test]
    fn cells_are_deterministic_in_their_seed() {
        let ctx = RunCtx::default();
        let a = run_cell(&ctx, BackendKind::SoftEmu, 1);
        let b = run_cell(&ctx, BackendKind::SoftEmu, 1);
        assert_eq!(a, b);
        assert!(a.ops > 0, "tenants must make progress: {a:?}");
        assert!(a.faults > 0, "cold rings must fault: {a:?}");
    }

    #[test]
    fn counters_swap_columns_by_backend() {
        let ctx = RunCtx::default();
        let fw = run_cell(&ctx, BackendKind::Firmware, 1);
        let se = run_cell(&ctx, BackendKind::SoftEmu, 1);
        let pin = run_cell(&ctx, BackendKind::Pinned, 1);
        // Firmware services faults as NPF events, never bounces.
        assert!(fw.fw_events > 0, "{fw:?}");
        assert_eq!(fw.bounces, 0, "{fw:?}");
        assert_eq!(fw.unexpected, 0, "{fw:?}");
        // Softemu bounces every fault and raises no firmware event.
        assert_eq!(se.fw_events, 0, "{se:?}");
        assert!(se.bounces > 0, "{se:?}");
        assert_eq!(se.bounces, se.faults, "{se:?}");
        // The pinned baseline books every fault as unexpected.
        assert_eq!(pin.unexpected, pin.faults, "{pin:?}");
        assert_eq!(pin.bounces, 0, "{pin:?}");
        // And the workload makes progress under all three.
        for c in [&fw, &se, &pin] {
            assert!(c.ops > 0, "{c:?}");
        }
    }

    #[test]
    fn retry_backoff_is_identical_serial_and_parallel() {
        use simcore::chaos::{ChaosConfig, ChaosProfile};
        use simcore::shard::Pool;
        // NPF-profile chaos fires transient misses, so these cells
        // exercise the softemu exponential-backoff retry path; the
        // tallies must not depend on how many workers ran the cells.
        let sweep = |pool: Pool| -> Vec<BackendCell> {
            let base = RunCtx::default().with_pool(pool);
            let cells = (1..=4u64).map(|s| {
                let chaos = ChaosConfig::profile(ChaosProfile::Npf, s);
                let mut ctx = base.clone();
                ctx.opts.chaos = chaos;
                task(move || run_cell(&ctx, BackendKind::SoftEmu, s))
            });
            base.pool(cells.collect())
        };
        let serial = sweep(Pool::on_host(1, 4));
        // `on_host` makes the four workers real threads on a 1-core host too.
        let parallel = sweep(Pool::on_host(4, 4));
        assert_eq!(serial, parallel, "worker count leaked into the cells");
    }

    #[test]
    fn check_against_spots_a_drifted_cell() {
        let ctx = RunCtx::default();
        let cells = [
            run_cell(&ctx, BackendKind::Firmware, 1),
            run_cell(&ctx, BackendKind::SoftEmu, 1),
        ];
        let baseline = render_json(&cells);
        let verdict = |cells: &[_]| cells_verdict("golden", &baseline, cells, cell_json);
        assert!(verdict(&cells).is_ok());
        let mut drifted = cells;
        drifted[1].ops += 1;
        let bad = verdict(&drifted).expect_err("one cell moved");
        assert_eq!(bad.len(), 2, "the cell and the summary: {bad:?}");
        assert!(bad[0].contains("\"backend\": \"softemu\""), "{bad:?}");
    }
}
