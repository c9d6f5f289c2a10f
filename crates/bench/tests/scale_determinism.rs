//! The scalebench sweep's jobs-invariance, pinned at the scale the
//! acceptance cares about: a 256-tenant cell sharded across seeds must
//! render a byte-identical artifact whether the cells run serially or
//! across four workers.

use npf_bench::scale;
use npf_bench::tracectl::{task, RunCtx};
use npf_core::ArbiterPolicy;
use simcore::shard::Pool;

fn sweep(pool: Pool) -> String {
    let ctx = &RunCtx::default().with_pool(pool);
    let cells = ctx.pool(
        [1u64, 2, 3, 4]
            .into_iter()
            .map(|seed| {
                task(move || scale::run_cell(ctx, 256, seed, ArbiterPolicy::WeightedFair, Some(16)))
            })
            .collect(),
    );
    // Zero wall_ms placeholders: timings are informational and must
    // never reach the compared cell lines anyway.
    scale::render_json(
        ArbiterPolicy::WeightedFair,
        Some(16),
        &cells,
        &vec![0; cells.len()],
    )
}

#[test]
fn jobs_1_and_4_render_identical_256_tenant_artifacts() {
    let serial = sweep(Pool::on_host(1, 4));
    // `on_host` makes the four workers real threads on a 1-core host too.
    let parallel = sweep(Pool::on_host(4, 4));
    assert_eq!(
        serial, parallel,
        "the scale artifact must be byte-identical at every --jobs value"
    );
    assert!(serial.contains("\"tenants\": 256"), "{serial}");
}
