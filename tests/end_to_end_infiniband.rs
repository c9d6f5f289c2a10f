//! Cross-crate integration: the InfiniBand cluster (rdmasim + memsim +
//! iommu + npf-core glued by testbed).

use memsim::types::PageRange;
use npf::prelude::*;
use rdmasim::types::{SendOp, WcOpcode, WcStatus};

fn pair() -> IbCluster {
    let scenario = ScenarioBuilder::infiniband().nodes(2);
    scenario.build().expect("valid scenario")
}

#[test]
fn odp_send_faults_both_sides_and_completes() {
    let mut c = pair();
    let (qa, qb) = c.connect(0, 1);
    let src = c.alloc_buffers(0, ByteSize::mib(4));
    let dst = c.alloc_buffers(1, ByteSize::mib(4));
    c.post_recv(1, qb, 1, dst, 4 << 20);
    c.post_send(
        0,
        qa,
        2,
        SendOp::Send {
            local: src,
            len: 2 << 20,
        },
    );
    c.run_until_quiescent(2_000_000);
    let recv = c.drain_completions(1);
    assert_eq!(recv.len(), 1);
    assert_eq!(recv[0].status, WcStatus::Success);
    assert_eq!(recv[0].len, 2 << 20);
    // Send-side local fault and receive-side rNPF both happened.
    assert!(c.node(0).engine().counters().get("npf_events") >= 1);
    assert!(c.node(1).engine().counters().get("npf_events") >= 1);
    assert!(c.node(1).qp_stats(qb).rnr_nacks_sent >= 1);
    // And neither side pinned anything.
    let s0 = c.node(0).space();
    let s1 = c.node(1).space();
    assert_eq!(
        c.node(0).engine().memory().pinned_bytes(s0).unwrap(),
        ByteSize::ZERO
    );
    assert_eq!(
        c.node(1).engine().memory().pinned_bytes(s1).unwrap(),
        ByteSize::ZERO
    );
}

#[test]
fn warm_odp_equals_pinned_timing() {
    // After first touch, ODP transfers take the same time as pinned
    // ones: demand paging's steady state.
    let run = |pin: bool| {
        let mut c = pair();
        let (qa, qb) = c.connect(0, 1);
        let src = c.alloc_buffers(0, ByteSize::mib(1));
        let dst = c.alloc_buffers(1, ByteSize::mib(1));
        if pin {
            let da = c.node(0).domain_of(qa);
            let db = c.node(1).domain_of(qb);
            c.node_mut(0)
                .engine_mut()
                .pin_and_map(da, PageRange::covering(src, 1 << 20))
                .expect("pin");
            c.node_mut(1)
                .engine_mut()
                .pin_and_map(db, PageRange::covering(dst, 1 << 20))
                .expect("pin");
        }
        // Warm-up message.
        c.post_recv(1, qb, 1, dst, 1 << 20);
        c.post_send(
            0,
            qa,
            2,
            SendOp::Send {
                local: src,
                len: 1 << 20,
            },
        );
        c.run_until_quiescent(2_000_000);
        c.drain_completions(1);
        // Timed message.
        let t0 = c.now();
        c.post_recv(1, qb, 3, dst, 1 << 20);
        c.post_send(
            0,
            qa,
            4,
            SendOp::Send {
                local: src,
                len: 1 << 20,
            },
        );
        c.run_until_quiescent(2_000_000);
        c.now().saturating_since(t0)
    };
    let pinned = run(true);
    let odp = run(false);
    let ratio = odp.as_secs_f64() / pinned.as_secs_f64();
    assert!(
        (0.95..=1.05).contains(&ratio),
        "warm ODP must match pinned: {ratio:.3}"
    );
}

#[test]
fn differential_pinned_vs_odp_is_byte_identical() {
    // The paper's core claim, as a differential test: demand paging is
    // a transparent replacement for pinning. The same workload, run
    // once with every buffer pinned-and-mapped up front and once
    // relying purely on ODP, must produce the *identical* completion
    // stream — same wr_ids, same opcodes, same statuses, same lengths —
    // differing only in timing.
    let run = |pin: bool| {
        let mut c = pair();
        let (qa, qb) = c.connect(0, 1);
        let src = c.alloc_buffers(0, ByteSize::mib(4));
        let dst = c.alloc_buffers(1, ByteSize::mib(4));
        if pin {
            let da = c.node(0).domain_of(qa);
            let db = c.node(1).domain_of(qb);
            c.node_mut(0)
                .engine_mut()
                .pin_and_map(da, PageRange::covering(src, 4 << 20))
                .expect("pin src");
            c.node_mut(1)
                .engine_mut()
                .pin_and_map(db, PageRange::covering(dst, 4 << 20))
                .expect("pin dst");
        }
        const MSGS: u64 = 12;
        for i in 0..MSGS {
            c.post_recv(1, qb, 500 + i, dst, 4 << 20);
        }
        for i in 0..MSGS {
            // Varied sizes so a lost or re-segmented message shows up
            // as a length mismatch, not just a count mismatch.
            c.post_send(
                0,
                qa,
                i,
                SendOp::Send {
                    local: src,
                    len: (i + 1) * 64 * 1024,
                },
            );
        }
        c.run_until_quiescent(20_000_000);
        let faults = c.node(0).engine().counters().get("npf_events")
            + c.node(1).engine().counters().get("npf_events");
        let comps: Vec<_> = c
            .drain_completions(1)
            .iter()
            .map(|x| (x.wr_id, x.opcode, x.status, x.len))
            .collect();
        (comps, faults)
    };
    let (pinned, pinned_faults) = run(true);
    let (odp, odp_faults) = run(false);
    assert_eq!(pinned_faults, 0, "pinned path must never fault");
    assert!(odp_faults > 0, "the ODP path actually exercised NPFs");
    assert_eq!(
        pinned.len() as u64,
        12,
        "pinned run delivered every message"
    );
    assert_eq!(
        pinned, odp,
        "pinned and ODP must yield byte-identical completion streams"
    );
    let bytes: u64 = odp.iter().map(|&(_, _, _, len)| len).sum();
    assert_eq!(bytes, (1..=12).map(|i| i * 64 * 1024).sum::<u64>());
}

#[test]
fn rdma_read_initiator_fault_recovers_by_rewind() {
    let mut c = pair();
    let (qa, _qb) = c.connect(0, 1);
    let local = c.alloc_buffers(0, ByteSize::mib(2));
    let remote = c.alloc_buffers(1, ByteSize::mib(2));
    // Remote data resident (responder gather must not stall the test).
    for vpn in PageRange::covering(remote, 1 << 20).iter() {
        let s1 = c.node(1).space();
        c.node_mut(1)
            .engine_mut()
            .touch(s1, vpn, true)
            .expect("touch");
    }
    c.post_send(
        0,
        qa,
        9,
        SendOp::Read {
            local,
            remote,
            len: 1 << 20,
        },
    );
    c.run_until_quiescent(2_000_000);
    let comps = c.drain_completions(0);
    assert_eq!(comps.len(), 1);
    assert_eq!(comps[0].opcode, WcOpcode::Read);
    assert_eq!(comps[0].status, WcStatus::Success);
    // The initiator's scatter faulted (cold local buffer) and recovered
    // by dropping + re-requesting (§4: no RNR for reads).
    assert!(
        c.node(0).qp_stats(qa).rx_dropped > 0,
        "read responses were dropped"
    );
    assert!(c.node(0).engine().counters().get("npf_events") >= 1);
}

#[test]
fn eight_node_all_pairs_traffic() {
    let mut c = ScenarioBuilder::infiniband()
        .build()
        .expect("valid scenario");
    let mut qps = Vec::new();
    for i in 0..8u32 {
        let j = (i + 1) % 8;
        let (qa, qb) = c.connect(i, j);
        let src = c.alloc_buffers(i, ByteSize::mib(1));
        let dst = c.alloc_buffers(j, ByteSize::mib(1));
        c.post_recv(j, qb, u64::from(i), dst, 1 << 20);
        c.post_send(
            i,
            qa,
            100 + u64::from(i),
            SendOp::Send {
                local: src,
                len: 256 * 1024,
            },
        );
        qps.push((i, j));
    }
    c.run_until_quiescent(5_000_000);
    for &(i, j) in &qps {
        let comps = c.drain_completions(j);
        assert!(
            comps.iter().any(|x| x.opcode == WcOpcode::Recv),
            "ring transfer {i}->{j} must complete"
        );
    }
}

#[test]
fn cluster_is_deterministic() {
    let run = || {
        let mut c = pair();
        let (qa, qb) = c.connect(0, 1);
        let src = c.alloc_buffers(0, ByteSize::mib(2));
        let dst = c.alloc_buffers(1, ByteSize::mib(2));
        for i in 0..8 {
            c.post_recv(1, qb, i, dst, 2 << 20);
        }
        for i in 0..8 {
            c.post_send(
                0,
                qa,
                100 + i,
                SendOp::Send {
                    local: src,
                    len: 128 * 1024,
                },
            );
        }
        c.run_until_quiescent(2_000_000);
        (c.now(), c.node(1).qp_stats(qb).data_packets_sent)
    };
    assert_eq!(run(), run());
}

#[test]
fn read_rnr_extension_works_through_the_cluster() {
    // §4's recommended extension, driven through the full cluster event
    // loop with synthetic initiator-side faults.
    use rdmasim::types::RcConfig;
    let rc = RcConfig {
        rnr_for_reads: true,
        ..RcConfig::default()
    };
    let scenario = ScenarioBuilder::infiniband().nodes(2).rc(rc);
    let mut c = scenario.build().expect("valid scenario");
    let (qa, qb) = c.connect(0, 1);
    let local = c.alloc_buffers(0, ByteSize::mib(2));
    let remote = c.alloc_buffers(1, ByteSize::mib(2));
    let da = c.node(0).domain_of(qa);
    let db = c.node(1).domain_of(qb);
    c.node_mut(0)
        .engine_mut()
        .pin_and_map(da, PageRange::covering(local, 1 << 20))
        .expect("pin local");
    c.node_mut(1)
        .engine_mut()
        .pin_and_map(db, PageRange::covering(remote, 1 << 20))
        .expect("pin remote");
    c.set_synthetic_faults(0, 1.0 / 8.0, simcore::SimDuration::from_micros(220), 9);
    for i in 0..20 {
        c.post_send(
            0,
            qa,
            i,
            SendOp::Read {
                local,
                remote,
                len: 256 * 1024,
            },
        );
    }
    c.run_until_quiescent(5_000_000);
    let done = c
        .drain_completions(0)
        .iter()
        .filter(|x| x.opcode == WcOpcode::Read && x.status == WcStatus::Success)
        .count();
    assert_eq!(done, 20, "every read completes under the extension");
    assert!(
        c.node(0).qp_stats(qa).read_rnr_sent > 0,
        "the extension actually fired"
    );
}
