//! E13+: ablations of the paper's design choices (§4's optimizations
//! and §2.2's pinning continuum).

use memsim::manager::{MemConfig, MemoryManager};
use memsim::space::Backing;
use memsim::types::Vpn;
use npf_core::npf::{NpfConfig, NpfEngine};
use npf_core::pinning::Strategy;
use simcore::rng::SimRng;
use simcore::time::SimTime;
use simcore::units::ByteSize;
use testbed::mpi_run::{run_collective, MpiRunConfig};
use workloads::mpi::Collective;

use crate::report::{f, Report};

fn fresh_engine(config: NpfConfig) -> (NpfEngine, memsim::types::PageRange, iommu::DomainId) {
    let mm = MemoryManager::new(MemConfig {
        total_memory: ByteSize::gib(8),
        ..MemConfig::default()
    });
    let mut engine = NpfEngine::new(config, mm, SimRng::new(17));
    let space = engine.memory_mut().create_space();
    let region = engine
        .memory_mut()
        .mmap(space, ByteSize::mib(64), Backing::Anonymous)
        .expect("region");
    let domain = engine.create_channel(space);
    (engine, region, domain)
}

/// Ablation 1 — batched scatter-gather resolution vs one page per PRI
/// request: the paper estimates a cold 4 MB message would cost >220 ms
/// under the ATS/PRI discipline.
pub fn ablation_batching() -> Report {
    let mut r = Report::new(
        "Batched pre-fault vs one-page-per-PRI (cold 4 MB message)",
        "§4 optimization 3",
    );
    r.columns(["mode", "fault events", "total fault time[ms]"]);
    for (label, batch) in [("batched (paper)", true), ("one page per PRI", false)] {
        let (mut engine, region, domain) =
            fresh_engine(NpfConfig::default().with_batch_resolution(batch));
        let mut now = SimTime::ZERO;
        // Fault the whole 4 MB range the way a cold send would: fault,
        // wait for resolution, retry at the next unresolved page.
        let mut page = region.start.0;
        let end = region.start.0 + 1024;
        let mut events = 0u64;
        while page < end {
            let rec = engine
                .begin_fault(
                    now,
                    domain,
                    Vpn(page).base(),
                    (end - page) * 4096,
                    true,
                    None,
                )
                .expect("fault")
                .clone();
            engine.complete_fault(rec.id);
            now = rec.ready_at;
            page = rec.range.end().0;
            events += 1;
        }
        r.row([
            label.to_owned(),
            format!("{events}"),
            f(now.as_secs_f64() * 1e3, 1),
        ]);
    }
    r.note("paper: batching makes this one ~350us fault; one-page PRI would exceed 220ms");
    r
}

/// Ablation 2 — firmware-bypass resume on/off.
pub fn ablation_firmware_bypass() -> Report {
    let mut r = Report::new("Firmware-bypass resume", "§4 optimization 2");
    r.columns(["mode", "mean 4KB NPF[us]"]);
    for (label, bypass) in [("bypass off", false), ("bypass on", true)] {
        let (mut engine, region, domain) =
            fresh_engine(NpfConfig::default().with_firmware_bypass(bypass));
        let mut total = 0f64;
        let n = 200u64;
        for i in 0..n {
            let rec = engine
                .begin_fault(
                    SimTime::ZERO,
                    domain,
                    Vpn(region.start.0 + i).base(),
                    4096,
                    true,
                    None,
                )
                .expect("fault")
                .clone();
            engine.complete_fault(rec.id);
            total += rec.breakdown.total().as_micros_f64();
        }
        r.row([label.to_owned(), f(total / n as f64, 1)]);
    }
    r.note("resuming via the hardware fast path before firmware bookkeeping saves ~65us");
    r
}

/// Ablation 3 — concurrent-fault limit per channel (the prototype
/// allows four).
pub fn ablation_concurrency() -> Report {
    let mut r = Report::new("Concurrent faults per IOchannel", "§4 optimization 1");
    r.columns(["limit", "8 parallel faults resolve in[us]"]);
    for limit in [1u32, 2, 4, 8] {
        let (mut engine, region, domain) =
            fresh_engine(NpfConfig::default().with_concurrent_faults_per_channel(limit));
        let mut latest = SimTime::ZERO;
        for i in 0..8u64 {
            let rec = engine
                .begin_fault(
                    SimTime::ZERO,
                    domain,
                    Vpn(region.start.0 + i).base(),
                    4096,
                    true,
                    None,
                )
                .expect("fault")
                .clone();
            engine.complete_fault(rec.id);
            latest = latest.max(rec.ready_at);
        }
        r.row([format!("{limit}"), f(latest.as_nanos() as f64 / 1e3, 0)]);
    }
    r.note("a serial handler multiplies burst latency; four slots absorb bursts");
    r
}

/// Ablation 4 — the coarse-grained pinning continuum (§2.2): pin-down
/// cache size from fine-grained-like to static-like.
pub fn ablation_pindown_sweep(iterations: u32) -> Report {
    let mut r = Report::new(
        "Pin-down cache size sweep (sendrecv 64KB, off-cache)",
        "§2.2",
    );
    r.columns(["cache", "per-iteration[us]", "note"]);
    let sizes = [
        (ByteSize::kib(64), "≈ fine-grained"),
        (ByteSize::kib(512), "thrashing"),
        (ByteSize::mib(4), "covers pool"),
        (ByteSize::mib(64), "≈ static"),
    ];
    for (cap, note) in sizes {
        let res = run_collective(MpiRunConfig {
            ranks: 4,
            message_bytes: 64 * 1024,
            iterations,
            strategy: Strategy::PinDownCache { capacity: cap },
            collective: Collective::SendRecv,
            seed: 13,
        });
        r.row([
            cap.to_string(),
            f(res.per_iteration.as_micros_f64(), 1),
            note.to_owned(),
        ]);
    }
    // True fine-grained pinning (pin/map + unpin/unmap around every
    // transfer) and the ODP reference.
    let fine = run_collective(MpiRunConfig {
        ranks: 4,
        message_bytes: 64 * 1024,
        iterations,
        strategy: Strategy::FineGrained,
        collective: Collective::SendRecv,
        seed: 13,
    });
    r.row([
        "fine-grained".to_owned(),
        f(fine.per_iteration.as_micros_f64(), 1),
        "pin/unpin every transfer".to_owned(),
    ]);
    let odp = run_collective(MpiRunConfig {
        ranks: 4,
        message_bytes: 64 * 1024,
        iterations,
        strategy: Strategy::Odp,
        collective: Collective::SendRecv,
        seed: 13,
    });
    r.row([
        "ODP/NPF".to_owned(),
        f(odp.per_iteration.as_micros_f64(), 1),
        "no pinning at all".to_owned(),
    ]);
    r.note("small caches behave like fine-grained pinning, big ones like static pinning (Table 3)");
    r
}

/// Ablation 5 — §4's recommended RC extension: RNR flow control for
/// RDMA read responses vs the standard drop-and-rewind recovery.
pub fn ablation_read_rnr() -> Report {
    use rdmasim::types::{RcConfig, SendOp, WcOpcode};
    use simcore::time::SimDuration as D;
    use testbed::builder::ScenarioBuilder;

    let run = |extension: bool| -> (f64, u64) {
        let rc = RcConfig {
            rnr_for_reads: extension,
            ..RcConfig::default()
        };
        let scenario = ScenarioBuilder::infiniband().nodes(2).rc(rc).seed(15);
        let mut c = scenario.build().expect("valid scenario");
        let (qa, qb) = c.connect(0, 1);
        let local = c.alloc_buffers(0, ByteSize::mib(64));
        let remote = c.alloc_buffers(1, ByteSize::mib(64));
        // Responder data resident; initiator landing buffers pinned so
        // only *synthetic* faults fire (clean comparison).
        let db = c.node(1).domain_of(qb);
        c.node_mut(1)
            .engine_mut()
            .pin_and_map(db, memsim::types::PageRange::covering(remote, 32 << 20))
            .expect("pin remote");
        let da = c.node(0).domain_of(qa);
        c.node_mut(0)
            .engine_mut()
            .pin_and_map(da, memsim::types::PageRange::covering(local, 32 << 20))
            .expect("pin local");
        c.set_synthetic_faults(0, 1.0 / 256.0, D::from_micros(220), 33);
        let reads = 200u64;
        for i in 0..reads {
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
        c.run_until_quiescent(20_000_000);
        let done = c
            .drain_completions(0)
            .iter()
            .filter(|x| x.opcode == WcOpcode::Read)
            .count() as u64;
        assert_eq!(done, reads, "all reads complete (ext={extension})");
        let wasted = c.node(0).qp_stats(qa).rx_dropped;
        (c.now().as_secs_f64() * 1e3, wasted)
    };

    let (std_ms, std_dropped) = run(false);
    let (ext_ms, ext_dropped) = run(true);
    let mut r = Report::new(
        "RDMA read rNPF recovery: standard rewind vs read-RNR extension",
        "§4 recommendation",
    );
    r.columns(["mode", "200x256KB reads [ms]", "responses wasted"]);
    r.row([
        "standard RC (drop+rewind)".to_owned(),
        f(std_ms, 2),
        format!("{std_dropped}"),
    ]);
    r.row([
        "read-RNR extension".to_owned(),
        f(ext_ms, 2),
        format!("{ext_dropped}"),
    ]);
    r.note("the extension stops the responder instead of discarding in-flight responses");
    r
}

/// Ablation 6 — §3's pre-faulting optimization: resolve subsequent
/// receive buffers together with the faulting one. Shortens cold
/// sequences, but (as §3 argues) it is an optimization, not a
/// substitute for rNPF handling — dropping still collapses.
pub fn ablation_prefaulting() -> Report {
    use simcore::time::SimTime;
    use simcore::units::ByteSize as BS;
    use testbed::builder::ScenarioBuilder;
    use testbed::eth::RxMode;
    use workloads::memcached::MemcachedConfig;

    let run = |mode: RxMode, window: u64| -> String {
        let scenario = ScenarioBuilder::ethernet()
            .mode(mode)
            .instances(1)
            .conns_per_instance(16)
            .ring_entries(1024)
            .bm_size(2048)
            .host_memory(BS::gib(4))
            .memcached(MemcachedConfig {
                max_bytes: BS::mib(512),
                ..MemcachedConfig::default()
            })
            .working_set_keys(100_000)
            .prefault_window(window);
        let mut bed = scenario.build().expect("setup");
        match bed.run_until_ops(10_000, SimTime::from_secs(120)) {
            Some(t) => format!("{:.2}s", t.as_secs_f64()),
            None => ">120s".to_owned(),
        }
    };
    let mut r = Report::new(
        "Pre-faulting subsequent receive buffers (1024-entry cold ring, 10k ops)",
        "§3 'Completeness'",
    );
    r.columns(["configuration", "time to 10k ops"]);
    r.row([
        "backup ring, no pre-fault".to_owned(),
        run(RxMode::Backup, 0),
    ]);
    r.row([
        "backup ring + pre-fault 64".to_owned(),
        run(RxMode::Backup, 64),
    ]);
    r.row(["drop, no pre-fault".to_owned(), run(RxMode::Drop, 0)]);
    r.row(["drop + pre-fault 64".to_owned(), run(RxMode::Drop, 64)]);
    r.note("pre-faulting helps both, but dropping still pays TCP timeouts for every cold stretch");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_ablation_shows_large_gap() {
        let r = ablation_batching();
        let text = r.render();
        assert!(text.contains("batched"));
        assert_eq!(r.row_count(), 2);
    }

    #[test]
    fn bypass_ablation_renders() {
        let r = ablation_firmware_bypass();
        assert_eq!(r.row_count(), 2);
    }

    #[test]
    fn concurrency_ablation_monotone() {
        let r = ablation_concurrency();
        assert_eq!(r.row_count(), 4);
    }
}
