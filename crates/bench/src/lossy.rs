//! Lossy-fabric transport sweep (the `lossybench` binary's engine).
//!
//! Runs the *same* cold-ring incast scenario — three senders fanning
//! into one receiver whose ODP memory is unmapped, so rNPFs fire on
//! first touch — once per fabric profile (lossless + PFC, then random
//! loss from 0.01% to 1%), per RC transport (legacy go-back-N vs the
//! IRN-style selective repeat), and per ODP backend. The differential
//! is the point of the figure: on the lossless PFC fabric the two
//! transports are equivalent, while under loss go-back-N pays a full
//! window rewind per drop and selective repeat retransmits only the
//! missing PSNs, so IRN's goodput must hold up as loss rises
//! (DESIGN §15). Cells fan out over the run's worker pool
//! ([`RunCtx::pool`]), so `--jobs N` produces byte-identical output to
//! a serial run; the JSON the binary commits (`BENCH_lossy.json`)
//! carries only simulation-deterministic tallies, never wall-clock.

use netsim::profile::{FabricProfile, RdmaTransport, TransportConfig};
use npf_core::BackendKind;
use simcore::time::SimDuration;
use simcore::units::ByteSize;
use testbed::builder::ScenarioBuilder;
use testbed::ib::IbCluster;

use crate::report::Report;
use crate::tracectl::RunCtx;
use rdmasim::types::{SendOp, WcOpcode, WcStatus};

/// The fabric profiles a full sweep visits, in artifact order:
/// "RoCE by the book" (lossless + PFC), then rising random loss. ECN
/// marking is armed everywhere so the incast's congestion shows up in
/// the `ecn_marks` column without changing delivery.
#[must_use]
pub fn sweep_profiles() -> Vec<FabricProfile> {
    let ecn = Some(SimDuration::from_micros(20));
    vec![
        FabricProfile::lossless_pfc().with_ecn(ecn),
        FabricProfile::lossy(0.0001).with_ecn(ecn),
        FabricProfile::lossy(0.001).with_ecn(ecn),
        FabricProfile::lossy(0.01).with_ecn(ecn),
    ]
}

/// The transports each profile is run under, in artifact order.
pub const SWEEP_TRANSPORTS: &[RdmaTransport] =
    &[RdmaTransport::GoBackN, RdmaTransport::SelectiveRepeat];

/// The ODP backends each (profile, transport) pair is run under.
pub const SWEEP_BACKENDS: &[BackendKind] = &[
    BackendKind::Firmware,
    BackendKind::SoftEmu,
    BackendKind::Pinned,
];

/// Senders fanning into the one receiver node.
pub const SENDERS: u32 = 3;

/// Messages each sender pushes through its QP.
pub const MESSAGES_PER_SENDER: u64 = 48;

/// Message payload bytes (16 MTU packets at the default 4 KiB MTU).
pub const MESSAGE_BYTES: u64 = 64 * 1024;

/// One sweep point. All fields are deterministic in
/// `(profile, transport, backend)` — nothing here may ever hold
/// wall-clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LossyCell {
    /// Fabric profile label (`pfc`, `loss0.01%`, …).
    pub profile: String,
    /// RC loss-recovery discipline this cell ran under.
    pub transport: RdmaTransport,
    /// The ODP backend servicing the receiver's cold-ring faults.
    pub backend: BackendKind,
    /// Messages delivered across all senders.
    pub delivered: u64,
    /// Aggregate receiver goodput in kilobits per simulated second.
    pub goodput_kbps: u64,
    /// Loss-driven retransmissions (timeout, sequence NAK, SACK hole),
    /// summed over the sender QPs.
    pub retransmits: u64,
    /// RNR-NACK-driven rewinds (receiver readiness, not loss).
    pub rnr_retransmits: u64,
    /// Transport timer expirations, summed over the sender QPs.
    pub timeouts: u64,
    /// Packets the fabric dropped (random loss; the queues are sized so
    /// tail drop never fires).
    pub fabric_drops: u64,
    /// Packets ECN-marked while queued at the incast bottleneck.
    pub ecn_marks: u64,
    /// PFC pause events raised by the switch (PFC profile only).
    pub pfc_pauses: u64,
}

/// Runs one sweep cell: the canonical cold-ring incast under one
/// fabric profile, transport, and backend, with the memory-feature
/// knobs from `ctx`.
///
/// # Panics
///
/// Panics when the cell's scenario fails validation or a QP completes
/// with an error — either is a lossybench bug, not an input error.
#[must_use]
pub fn run_cell(
    ctx: &RunCtx,
    profile: FabricProfile,
    transport: RdmaTransport,
    backend: BackendKind,
) -> LossyCell {
    let receiver = SENDERS; // node index of the fan-in target
    let mut cluster: IbCluster = ScenarioBuilder::infiniband()
        .nodes(SENDERS + 1)
        .node_memory(ByteSize::mib(512))
        .npf(ctx.npf_config().with_backend(backend))
        .profile(profile)
        .transport(TransportConfig::default().with_transport(transport))
        .seed(7)
        .build()
        .expect("lossybench cell must validate");

    // One QP per sender into the receiver; the receive buffers stay
    // unmapped (cold), so the first packets of every ring raise rNPFs.
    let mut pairs = Vec::new();
    for s in 0..SENDERS {
        let (qs, qr) = cluster.connect(s, receiver);
        let src = cluster.alloc_buffers(s, ByteSize::mib(1));
        let dst = cluster.alloc_buffers(receiver, ByteSize::mib(1));
        pairs.push((s, qs, qr, src, dst));
    }

    // A deep pipeline per sender: enough recvs for every message, a
    // send window the transport is free to pace.
    for (s, qs, qr, src, dst) in &pairs {
        for i in 0..MESSAGES_PER_SENDER {
            cluster.post_recv(receiver, *qr, 10_000 + i, *dst, ByteSize::mib(1).bytes());
            cluster.post_send(
                *s,
                *qs,
                i,
                SendOp::Send {
                    local: *src,
                    len: MESSAGE_BYTES,
                },
            );
        }
    }

    let total = u64::from(SENDERS) * MESSAGES_PER_SENDER;
    let mut delivered = 0u64;
    let mut guard = 0u64;
    while delivered < total {
        if !cluster.step() {
            break;
        }
        guard += 1;
        assert!(guard < 50_000_000, "lossybench cell diverged");
        for comp in cluster.drain_completions(receiver) {
            if comp.opcode == WcOpcode::Recv {
                assert_eq!(comp.status, WcStatus::Success, "receiver QP errored");
                delivered += 1;
            }
        }
    }

    let elapsed = cluster.now().as_secs_f64();
    let goodput_kbps = ((delivered * MESSAGE_BYTES * 8) as f64 / elapsed.max(1e-12) / 1e3) as u64;
    let mut cell = LossyCell {
        profile: profile.label(),
        transport,
        backend,
        delivered,
        goodput_kbps,
        retransmits: 0,
        rnr_retransmits: 0,
        timeouts: 0,
        fabric_drops: cluster.fabric().total_drops(),
        ecn_marks: cluster.fabric().total_marked(),
        pfc_pauses: cluster.fabric().pfc_pauses(),
    };
    for (s, qs, _, _, _) in &pairs {
        let st = cluster.node(*s).qp_stats(*qs);
        cell.retransmits += st.retransmits;
        cell.rnr_retransmits += st.rnr_retransmits;
        cell.timeouts += st.timeouts;
    }
    cell
}

/// One cell as a single JSON line — the unit `--check` compares, so
/// the spelling must stay byte-stable.
#[must_use]
pub fn cell_json(c: &LossyCell) -> String {
    format!(
        "{{\"profile\": \"{}\", \"transport\": \"{}\", \"backend\": \"{}\", \
         \"delivered\": {}, \"goodput_kbps\": {}, \"retransmits\": {}, \
         \"rnr_retransmits\": {}, \"timeouts\": {}, \"fabric_drops\": {}, \
         \"ecn_marks\": {}, \"pfc_pauses\": {}}}",
        c.profile,
        c.transport.name(),
        c.backend.as_str(),
        c.delivered,
        c.goodput_kbps,
        c.retransmits,
        c.rnr_retransmits,
        c.timeouts,
        c.fabric_drops,
        c.ecn_marks,
        c.pfc_pauses
    )
}

/// The full JSON artifact: header plus one line per cell, in task
/// order. Deterministic in the cells — byte-identical at every
/// `--jobs` value.
#[must_use]
pub fn render_json(cells: &[LossyCell]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"npf-lossybench-v1\",\n");
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
pub fn render_report(cells: &[LossyCell]) -> Report {
    let mut r = Report::new(
        "lossy-fabric transport differential: cold-ring incast",
        "go-back-N + PFC vs IRN-style selective repeat, per ODP backend",
    );
    r.columns([
        "profile",
        "transport",
        "backend",
        "delivered",
        "goodput[Mb/s]",
        "retransmits",
        "rnr",
        "timeouts",
        "drops",
        "ecn",
        "pauses",
    ]);
    for c in cells {
        r.row([
            c.profile.clone(),
            c.transport.name().to_owned(),
            c.backend.as_str().to_owned(),
            c.delivered.to_string(),
            format!(
                "{}.{:01}",
                c.goodput_kbps / 1000,
                (c.goodput_kbps % 1000) / 100
            ),
            c.retransmits.to_string(),
            c.rnr_retransmits.to_string(),
            c.timeouts.to_string(),
            c.fabric_drops.to_string(),
            c.ecn_marks.to_string(),
            c.pfc_pauses.to_string(),
        ]);
    }
    r.note("identical incast per row; only the recovery discipline and wire differ");
    r.note("paper argument (IRN): selective repeat keeps goodput as loss rises; go-back-N decays");
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracectl::cells_verdict;

    /// [`super::run_cell`] under the default context.
    fn run_cell(p: FabricProfile, t: RdmaTransport, b: BackendKind) -> LossyCell {
        super::run_cell(&RunCtx::default(), p, t, b)
    }

    #[test]
    fn cells_are_deterministic() {
        let p = FabricProfile::lossy(0.001);
        let a = run_cell(p, RdmaTransport::SelectiveRepeat, BackendKind::Firmware);
        let b = run_cell(p, RdmaTransport::SelectiveRepeat, BackendKind::Firmware);
        assert_eq!(a, b);
        assert_eq!(a.delivered, u64::from(SENDERS) * MESSAGES_PER_SENDER);
        assert!(a.fabric_drops > 0, "1e-3 loss must drop something: {a:?}");
        assert!(a.retransmits > 0, "drops must force retransmits: {a:?}");
    }

    #[test]
    fn irn_beats_gbn_under_loss() {
        // The tentpole differential: at 0.1% loss on the cold-ring
        // incast, selective repeat must deliver at least go-back-N's
        // goodput (in practice it wins by a wide margin).
        let p = FabricProfile::lossy(0.001);
        let gbn = run_cell(p, RdmaTransport::GoBackN, BackendKind::Firmware);
        let irn = run_cell(p, RdmaTransport::SelectiveRepeat, BackendKind::Firmware);
        assert_eq!(gbn.delivered, irn.delivered, "both must finish the incast");
        assert!(
            irn.goodput_kbps >= gbn.goodput_kbps,
            "IRN must hold goodput under loss: irn={} gbn={}",
            irn.goodput_kbps,
            gbn.goodput_kbps
        );
    }

    #[test]
    fn pfc_cell_pauses_and_stays_lossless() {
        let p = FabricProfile::lossless_pfc().with_ecn(Some(SimDuration::from_micros(20)));
        let cell = run_cell(p, RdmaTransport::GoBackN, BackendKind::Firmware);
        assert_eq!(cell.delivered, u64::from(SENDERS) * MESSAGES_PER_SENDER);
        assert_eq!(cell.fabric_drops, 0, "PFC fabric must not drop: {cell:?}");
        assert_eq!(cell.retransmits, 0, "lossless ⇒ no loss recovery: {cell:?}");
    }

    #[test]
    fn check_against_spots_a_drifted_cell() {
        let p = FabricProfile::lossy(0.001);
        let cells = [
            run_cell(p, RdmaTransport::GoBackN, BackendKind::Pinned),
            run_cell(p, RdmaTransport::SelectiveRepeat, BackendKind::Pinned),
        ];
        let baseline = render_json(&cells);
        let verdict = |cells: &[_]| cells_verdict("golden", &baseline, cells, cell_json);
        assert!(verdict(&cells).is_ok());
        let mut drifted = cells;
        drifted[1].goodput_kbps += 1;
        let bad = verdict(&drifted).expect_err("one cell moved");
        assert_eq!(bad.len(), 2, "the cell and the summary: {bad:?}");
        assert!(bad[0].contains("\"transport\": \"irn\""), "{bad:?}");
    }
}
