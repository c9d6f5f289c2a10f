//! Multi-tenant scale-out sweep (the `scalebench` binary's engine).
//!
//! Runs one simulated NIC with 16→512 memcached tenants on direct
//! IOchannels — Zipf-skewed connection allocation, cross-channel fault
//! arbitration, per-tenant backup-ring quotas — and tallies the
//! per-tenant counters into one deterministic cell per (tenant count,
//! seed) pair. Cells fan out over the run's worker pool
//! ([`RunCtx::pool`]), so `--jobs N` produces byte-identical output to
//! a serial run; the JSON the binary commits (`BENCH_scale.json`)
//! carries only simulation-deterministic tallies, never wall-clock.

use npf_core::ArbiterPolicy;
use simcore::{ByteSize, SimTime};
use testbed::builder::ScenarioBuilder;
use testbed::eth::RxMode;
use workloads::memcached::MemcachedConfig;

use crate::report::Report;
use crate::tracectl::RunCtx;

/// The tenant counts a full sweep visits. The 1024- and 2048-tenant
/// cells exist because the worker pool made them practical: cells are
/// independent coupling groups, so `--jobs N` runs them concurrently
/// with byte-identical output.
pub const SWEEP_TENANTS: &[u32] = &[16, 32, 64, 128, 256, 512, 1024, 2048];

/// The seeds each tenant count is sharded across.
pub const SWEEP_SEEDS: &[u64] = &[1, 2];

/// Simulated horizon per cell: long enough for every tenant's cold
/// ring to fault in and the arbiter to see contention, short enough
/// that the 512-tenant cell stays CI-sized.
pub const CELL_HORIZON: SimTime = SimTime::from_millis(250);

/// One sweep point: every field except the key pair is a tally summed
/// (or maxed) over the cell's tenants. All fields are deterministic in
/// `(tenants, seed)` — nothing here may ever hold wall-clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScaleCell {
    /// Tenant (IOchannel) count of this cell.
    pub tenants: u32,
    /// Simulation seed of this cell.
    pub seed: u64,
    /// Completed memcached operations, all tenants.
    pub ops: u64,
    /// rNPF events raised, all tenants.
    pub faults: u64,
    /// Ring drops, all tenants.
    pub drops: u64,
    /// Faults admitted by the cross-channel arbiter.
    pub arb_grants: u64,
    /// Faults the arbiter queued behind a busy slot pool.
    pub arb_queued: u64,
    /// Worst single arbitration wait, in microseconds.
    pub arb_max_wait_us: u64,
    /// Largest per-tenant backup-ring high-water mark.
    pub backup_hwm: u64,
    /// Largest per-tenant p99 request latency, in microseconds.
    pub p99_us: u64,
}

/// Runs one sweep cell: `tenants` skewed memcached tenants on one NIC
/// under `policy` arbitration, with an optional per-tenant backup
/// quota, to the fixed horizon. The fabric, memory-feature and chaos
/// knobs come from `ctx`, so a chaos-enabled sweep (and `whyslow
/// --chaos-seed`) exercises the identical recipe with faults injected.
///
/// # Panics
///
/// Panics when the cell's scenario fails validation — a scalebench
/// bug, not an input error.
#[must_use]
pub fn run_cell(
    ctx: &RunCtx,
    tenants: u32,
    seed: u64,
    policy: ArbiterPolicy,
    quota: Option<u64>,
) -> ScaleCell {
    let mut scenario = ScenarioBuilder::ethernet()
        .mode(RxMode::Backup)
        .instances(tenants)
        .conns_per_instance(2)
        .ring_entries(32)
        .bm_size(64)
        .backup_capacity(512)
        .host_memory(ByteSize::gib(2))
        .memcached(MemcachedConfig {
            max_bytes: ByteSize::mib(8),
            ..MemcachedConfig::default()
        })
        .working_set_keys(2_000)
        .tenant_skew(1.0)
        .profile(ctx.fabric_profile())
        .npf(
            ctx.npf_config()
                .with_arbiter(policy)
                .with_total_fault_slots(64),
        )
        .chaos(ctx.opts.chaos)
        .seed(seed);
    if let Some(quota) = quota {
        scenario = scenario.backup_quota(quota);
    }
    if policy == ArbiterPolicy::WeightedFair {
        // One heavy tenant, so the sweep exercises unequal shares.
        scenario = scenario.tenant_weight(0, 4);
    }
    let mut bed = scenario.build().expect("scalebench cell must validate");
    bed.run_until(CELL_HORIZON);
    let mut cell = ScaleCell {
        tenants,
        seed,
        ops: bed.total_ops(),
        ..ScaleCell::default()
    };
    for i in 0..tenants {
        let t = bed.tenant_report(i);
        cell.faults += t.faults;
        cell.drops += t.drops;
        cell.arb_grants += t.arb_grants;
        cell.arb_queued += t.arb_queued;
        cell.arb_max_wait_us = cell.arb_max_wait_us.max(t.arb_max_wait.as_micros());
        cell.backup_hwm = cell.backup_hwm.max(t.backup_hwm);
        cell.p99_us = cell.p99_us.max(t.p99.as_micros());
    }
    cell
}

/// One cell as a single JSON line — the unit `--check` compares, so
/// the spelling must stay byte-stable.
#[must_use]
pub fn cell_json(c: &ScaleCell) -> String {
    format!(
        "{{\"tenants\": {}, \"seed\": {}, \"ops\": {}, \"faults\": {}, \"drops\": {}, \
         \"arb_grants\": {}, \"arb_queued\": {}, \"arb_max_wait_us\": {}, \
         \"backup_hwm\": {}, \"p99_us\": {}}}",
        c.tenants,
        c.seed,
        c.ops,
        c.faults,
        c.drops,
        c.arb_grants,
        c.arb_queued,
        c.arb_max_wait_us,
        c.backup_hwm,
        c.p99_us
    )
}

/// The full JSON artifact: header plus one line per cell, in task
/// order. Deterministic in the cells — byte-identical at every
/// `--jobs` value.
///
/// `wall_ms` (per-cell wall-clock, when measured) lands in a separate
/// `timings` array *after* the cells: `--check` compares only
/// the cell lines, so timings are informational and never gate CI.
#[must_use]
pub fn render_json(
    policy: ArbiterPolicy,
    quota: Option<u64>,
    cells: &[ScaleCell],
    wall_ms: &[u64],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"npf-scalebench-v1\",\n");
    out.push_str(&format!("  \"arbiter\": \"{}\",\n", policy.name()));
    match quota {
        Some(q) => out.push_str(&format!("  \"backup_quota\": {q},\n")),
        None => out.push_str("  \"backup_quota\": null,\n"),
    }
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 == cells.len() { "" } else { "," };
        out.push_str(&format!("    {}{sep}\n", cell_json(c)));
    }
    out.push_str("  ],\n");
    out.push_str("  \"timings\": [\n");
    for (i, (c, ms)) in cells.iter().zip(wall_ms).enumerate() {
        let sep = if i + 1 == wall_ms.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"tenants\": {}, \"seed\": {}, \"wall_ms\": {ms}}}{sep}\n",
            c.tenants, c.seed
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the sweep as one stdout table, in cell order.
#[must_use]
pub fn render_report(cells: &[ScaleCell]) -> Report {
    let mut r = Report::new(
        "Multi-tenant scale-out: one NIC, 16-2048 IOchannels",
        "§4 IOchannels at scale",
    );
    r.columns([
        "tenants",
        "seed",
        "ops",
        "faults",
        "arb grants",
        "arb queued",
        "max wait[us]",
        "backup hwm",
        "p99[us]",
    ]);
    for c in cells {
        r.row([
            c.tenants.to_string(),
            c.seed.to_string(),
            c.ops.to_string(),
            c.faults.to_string(),
            c.arb_grants.to_string(),
            c.arb_queued.to_string(),
            c.arb_max_wait_us.to_string(),
            c.backup_hwm.to_string(),
            c.p99_us.to_string(),
        ]);
    }
    r.note("tenant 0 carries weight 4 under wfq; connections are Zipf(1.0)-skewed");
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracectl::cells_verdict;

    #[test]
    fn cells_are_deterministic_in_their_seed() {
        let ctx = RunCtx::default();
        let a = run_cell(&ctx, 16, 1, ArbiterPolicy::WeightedFair, Some(16));
        let b = run_cell(&ctx, 16, 1, ArbiterPolicy::WeightedFair, Some(16));
        assert_eq!(a, b);
        assert!(a.ops > 0, "tenants must make progress: {a:?}");
        assert!(a.faults > 0, "cold rings must fault: {a:?}");
    }

    #[test]
    fn check_against_spots_a_drifted_cell() {
        let ctx = RunCtx::default();
        let cells = [
            run_cell(&ctx, 16, 1, ArbiterPolicy::RoundRobin, None),
            run_cell(&ctx, 16, 2, ArbiterPolicy::RoundRobin, None),
        ];
        let baseline = render_json(ArbiterPolicy::RoundRobin, None, &cells, &[0, 0]);
        let verdict = |cells: &[_]| cells_verdict("golden", &baseline, cells, cell_json);
        assert!(verdict(&cells).is_ok());
        let mut drifted = cells;
        drifted[1].ops += 1;
        let bad = verdict(&drifted).expect_err("one cell moved");
        assert_eq!(bad.len(), 2, "the cell and the summary: {bad:?}");
        assert!(bad[0].contains("\"seed\": 2"), "{bad:?}");
    }
}
