//! Transport differential properties (DESIGN §15).
//!
//! Two suites over the IRN-style selective-repeat transport:
//!
//! * A proptest differential: on the idealised **lossless** fabric,
//!   selective repeat and go-back-N must produce *identical completion
//!   streams* for arbitrary message schedules — same wr_ids, same
//!   lengths, same statuses, in the same order, on both the sender and
//!   receiver. Cold rings keep the RNR-NACK path engaged, so the
//!   equality covers the interaction of both disciplines with ODP
//!   faults, not just the happy path.
//! * A chaos cell: pause storms (802.3x injections at the fabric) on
//!   top of 1% random loss, under the invariant checker and the fault
//!   journal. Delivery must stay exactly-once and in order, every
//!   journal chain must stay complete and exactly tiled, and the storm
//!   must actually have fired (so a regression that silently disables
//!   the injection point fails here).

use proptest::prelude::*;

use npf::netsim::profile::{FabricProfile, RdmaTransport, TransportConfig};
use npf::prelude::*;
use npf::rdmasim::types::{RcConfig, SendOp, WcStatus};
use npf::simcore::chaos::PauseChaos;
use npf::simcore::instruments::Instruments;

/// Base seed, shiftable per CI matrix job like the chaos sweep's.
fn seed_base() -> u64 {
    std::env::var("CHAOS_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FF_EE00)
}

/// Runs one two-node cold-ring schedule under `transport` and returns
/// both completion streams as `(node, wr_id, len, status_ok)` tuples —
/// everything logically observable, nothing timing-dependent.
fn run_schedule(transport: RdmaTransport, lens: &[u64]) -> Vec<(u32, u64, u64, bool)> {
    let mut c: IbCluster = ScenarioBuilder::infiniband()
        .nodes(2)
        .node_memory(ByteSize::mib(256))
        .transport(TransportConfig::default().with_transport(transport))
        .seed(11)
        .build()
        .expect("differential scenario must validate");
    let (qa, qb) = c.connect(0, 1);
    let src = c.alloc_buffers(0, ByteSize::mib(4));
    let dst = c.alloc_buffers(1, ByteSize::mib(4));
    for (i, &len) in lens.iter().enumerate() {
        let i = i as u64;
        c.post_recv(1, qb, 1000 + i, dst, 4 << 20);
        c.post_send(
            0,
            qa,
            i,
            SendOp::Send {
                local: src,
                len: len.max(1),
            },
        );
    }
    c.run_until_quiescent(20_000_000);
    let mut stream = Vec::new();
    for node in 0..2u32 {
        for comp in c.drain_completions(node) {
            stream.push((node, comp.wr_id, comp.len, comp.status == WcStatus::Success));
        }
    }
    stream
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On a lossless fabric the two disciplines are observationally
    /// equivalent: selective repeat's bitmap machinery must be inert
    /// when nothing is ever lost.
    #[test]
    fn selective_repeat_matches_go_back_n_when_lossless(
        lens in proptest::collection::vec(1u64..128 * 1024, 1..12),
    ) {
        let gbn = run_schedule(RdmaTransport::GoBackN, &lens);
        let irn = run_schedule(RdmaTransport::SelectiveRepeat, &lens);
        prop_assert_eq!(gbn, irn);
    }
}

#[test]
fn pause_storms_with_loss_keep_exactly_once_and_complete_journals() {
    use npf::simcore::journal::JournalRecorder;
    let base = seed_base();
    for s in 0..2u64 {
        let chaos =
            ChaosConfig::profile(ChaosProfile::Network, base + 0x7000 + s).with_pause(PauseChaos {
                storm: 0.05,
                max_pause: SimDuration::from_micros(80),
            });
        let fresh = Instruments {
            checker: Some(InvariantChecker::new(chaos.seed)),
            journal: Some(JournalRecorder::new()),
            ..Instruments::default()
        };
        assert!(fresh.install().is_empty(), "stale instruments");
        // Retry forever, as the chaos sweep does: the cell asserts
        // liveness, not the transport's give-up threshold.
        let rc = RcConfig {
            max_retries: 100_000,
            max_rnr_retries: 100_000,
            ..RcConfig::default()
        };
        let mut c: IbCluster = ScenarioBuilder::infiniband()
            .nodes(2)
            .node_memory(ByteSize::mib(256))
            .rc(rc)
            .profile(FabricProfile::lossy(0.01))
            .transport(TransportConfig::irn())
            .chaos(chaos)
            .seed(13)
            .build()
            .expect("pause-storm scenario must validate");
        let (qa, qb) = c.connect(0, 1);
        let src = c.alloc_buffers(0, ByteSize::mib(4));
        let dst = c.alloc_buffers(1, ByteSize::mib(4));
        const MSGS: u64 = 24;
        for i in 0..MSGS {
            c.post_recv(1, qb, 1000 + i, dst, 4 << 20);
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
            assert_eq!(comp.status, WcStatus::Success);
        }
        let storms = c
            .chaos()
            .expect("chaos enabled")
            .counters()
            .get("pause_storm");
        assert!(storms > 0, "storms must fire at chaos seed {}", chaos.seed);

        let installed = Instruments::take();
        let j = installed.journal.expect("journal installed");
        let mut checker = installed.checker.expect("checker installed");
        let end = checker.finish();
        assert!(
            end.is_empty(),
            "invariant violations at chaos seed {}: {:?}",
            chaos.seed,
            end
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
            "journal phase slices must tile at chaos seed {}",
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
    }
}
