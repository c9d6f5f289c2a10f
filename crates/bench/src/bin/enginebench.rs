//! Engine microbenchmarks: events/sec on the event-queue fast path and
//! wall-clock for reduced-size figure runs, persisted as
//! `BENCH_engine.json` so every PR leaves a perf trajectory. Every
//! sample times a call some testbed makes; a sample whose call loses
//! its last bed caller is deleted with it.
//!
//! Usage:
//!
//! ```text
//! enginebench [--out <path>] [--check <baseline.json>]
//! ```
//!
//! `--out` (default `BENCH_engine.json`) writes the measurement.
//! `--check` compares the fresh `*_events_per_sec` numbers against a
//! previously committed baseline and exits nonzero if any regresses by
//! more than 30% — the CI smoke gate. Figure wall-clocks are recorded
//! for trend reading but not gated (they shift with runner load).

use std::collections::VecDeque;
use std::time::Instant;

use iommu::{Iommu, TableMode};
use memsim::lru::LruTracker;
use memsim::manager::{MemConfig, MemoryManager};
use memsim::space::Backing;
use memsim::types::{FrameId, SpaceId, VirtAddr, Vpn, PAGE_SIZE};
use netsim::fabric::Fabric;
use netsim::link::LinkConfig;
use netsim::packet::NodeId;
use npf_bench::tracectl::{RunCtx, RunOpts};
use rdmasim::rc::RcQp;
use rdmasim::types::{PinnedGate, QpId, QpOutput, RcConfig, RcPacket, RecvWqe, SendOp, MTU};
use simcore::event::{EventQueue, EventToken};
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};
use simcore::units::{Bandwidth, ByteSize};
use workloads::memcached::{KvOp, Memaslap, Memcached, MemcachedConfig, SLAB_BASE};

/// Events per second below `baseline * (1 - REGRESSION_TOLERANCE)`
/// fail `--check`.
const REGRESSION_TOLERANCE: f64 = 0.30;

/// One microbench measurement: how many engine operations one
/// iteration performs and the best-observed wall-clock for it.
struct Sample {
    name: &'static str,
    ops_per_iter: u64,
    ns_per_iter: f64,
}

impl Sample {
    fn events_per_sec(&self) -> f64 {
        self.ops_per_iter as f64 * 1e9 / self.ns_per_iter
    }
}

/// Times `body` (which performs `ops` engine operations) over several
/// measured repetitions and keeps the best run — the least-noisy
/// estimate of the true cost on a shared machine.
fn measure(name: &'static str, ops: u64, mut body: impl FnMut()) -> Sample {
    const WARMUP: u32 = 3;
    const REPS: u32 = 7;
    const ITERS_PER_REP: u32 = 40;
    for _ in 0..WARMUP {
        body();
    }
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        for _ in 0..ITERS_PER_REP {
            body();
        }
        let ns = t0.elapsed().as_nanos() as f64 / f64::from(ITERS_PER_REP);
        best = best.min(ns);
    }
    Sample {
        name,
        ops_per_iter: ops,
        ns_per_iter: best,
    }
}

/// 4096 schedules followed by a full drain: the pure heap path.
fn bench_schedule_pop() -> Sample {
    measure("schedule_pop_4k", 8192, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..4096u64 {
            q.schedule_in(SimDuration::from_nanos(i * 13 % 977), i);
        }
        let mut sum = 0u64;
        while let Some((_, e)) = q.pop() {
            sum = sum.wrapping_add(e);
        }
        std::hint::black_box(sum);
    })
}

/// Half the scheduled events cancelled before the drain: 2048 in-place
/// removals from a 4 k-deep heap, then a drain of the live half.
fn bench_schedule_cancel_pop() -> Sample {
    measure("schedule_cancel_pop_4k", 4096 + 2048 + 2048, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut toks = Vec::with_capacity(4096);
        for i in 0..4096u64 {
            toks.push(q.schedule_in(SimDuration::from_nanos(i * 13 % 977), i));
        }
        for t in toks.iter().step_by(2) {
            q.cancel(*t);
        }
        let mut sum = 0u64;
        while let Some((_, e)) = q.pop() {
            sum = sum.wrapping_add(e);
        }
        std::hint::black_box(sum);
    })
}

/// Steady-state churn at depth 64 with interleaved cancels — the shape
/// of a live testbed (timers armed, retired, occasionally disarmed).
fn bench_churn() -> Sample {
    measure("churn_depth64", 4096 * 2 + 4096 / 3, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..64u64 {
            q.schedule_in(SimDuration::from_nanos(i), i);
        }
        let mut sum = 0u64;
        for i in 0..4096u64 {
            let (_, e) = q.pop().unwrap();
            sum = sum.wrapping_add(e);
            let t = q.schedule_in(SimDuration::from_nanos(e * 7 % 509 + 1), i);
            if i % 3 == 0 {
                q.cancel(t);
                q.schedule_in(SimDuration::from_nanos(e * 11 % 499 + 1), i);
            }
        }
        std::hint::black_box(sum);
    })
}

/// The shape of a TCP testbed: 64 near events churn while 16
/// retransmit timers sit 200 ms out, and every pop (an ACK) cancels one
/// timer and re-arms it, through `schedule_timer` as the Ethernet beds
/// arm TCP's RTO. The near delays advance simulated time ~1.7 µs
/// per pop, the rate `eth_overcommit_reclaim` cancels at, and the queue
/// lives across iterations: a queue that parked cancelled timers until
/// their instant would carry ~116 k of them under its 80 live events.
/// The other queue samples cancel near-term events only and cannot see
/// that.
fn bench_timer_rearm() -> Sample {
    const RTO: SimDuration = SimDuration::from_millis(200);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..64u64 {
        q.schedule_in(SimDuration::from_nanos(i), i);
    }
    let mut timers: Vec<EventToken> = (0..16u64)
        .map(|i| q.schedule_timer(q.now() + RTO, i))
        .collect();
    let mut round = move || {
        let mut sum = 0u64;
        for i in 0..4096u64 {
            let (now, e) = q.pop().unwrap();
            sum = sum.wrapping_add(e);
            q.schedule_in(SimDuration::from_nanos(e * 7919 % 220_000 + 1), i);
            let timer = &mut timers[(i % 16) as usize];
            q.cancel(*timer);
            *timer = q.schedule_timer(now + RTO, i);
        }
        std::hint::black_box(sum);
    };
    // Run past one RTO of simulated time (~116 k pops) before timing, so
    // the measured rounds see the steady-state heap.
    for _ in 0..32 {
        round();
    }
    measure("timer_rearm_depth64", 4096 * 4, round)
}

/// The shape of `ib_stream_hot`: 128 deliveries in flight down one wire,
/// each pop feeding the wire its next packet one MTU time after the
/// last, while two near one-off events (a CPU-side post, a completion)
/// recur and a 200 ms retransmit timer is cancelled and re-armed every
/// 16 pops (one ACK per message). The deliveries ride a lane, so the
/// heap is four entries deep; the queue lives across iterations.
fn bench_deliver_lane() -> Sample {
    const RTO: SimDuration = SimDuration::from_millis(200);
    /// A 4 KiB packet at 56 Gb/s.
    const MTU_TIME: SimDuration = SimDuration::from_nanos(585);
    /// Payloads at or above this are the one-off events.
    const NEAR: u64 = 1 << 63;
    let mut q: EventQueue<u64> = EventQueue::new();
    let lane = q.lane();
    let mut wire = q.now();
    for i in 0..128u64 {
        wire += MTU_TIME;
        q.schedule_on(lane, wire, i);
    }
    for k in 0..2u64 {
        q.schedule_in(SimDuration::from_nanos(1_300 + 800 * k), NEAR | k);
    }
    let mut timer = q.schedule_in(RTO, 0);
    let round = move || {
        let mut sum = 0u64;
        for i in 0..4096u64 {
            let (now, e) = q.pop().unwrap();
            sum = sum.wrapping_add(e);
            if e >= NEAR {
                q.schedule_in(SimDuration::from_nanos(1_300 + 800 * (e - NEAR)), e);
            } else {
                wire = wire.max(now) + MTU_TIME;
                q.schedule_on(lane, wire, i);
            }
            if i % 16 == 0 {
                q.cancel(timer);
                timer = q.schedule_in(RTO, i);
            }
        }
        std::hint::black_box(sum);
    };
    measure("deliver_lane_128", 4096 * 2 + 2 * (4096 / 16), round)
}

/// The fold itself: populate one 2 MiB chunk (512 contiguous PTEs) and
/// promote it to a huge leaf — the bookkeeping a batched cold fault
/// pays when huge pages are on.
fn bench_promote_512() -> Sample {
    let pairs: Vec<(Vpn, FrameId)> = (0..512u64).map(|i| (Vpn(i), FrameId(i + 64))).collect();
    measure("promote_512", 512, move || {
        let mut mmu = Iommu::new(1024);
        mmu.set_huge_pages(true);
        let d = mmu.create_domain(TableMode::PageFaultCapable);
        mmu.map_batch(d, &pairs, true);
        std::hint::black_box(mmu.huge_stats().0);
    })
}

/// The fault pipeline, both origins: a stride stream of 16 four-page
/// demand faults that trains the detector and raises a depth-8
/// speculative fault behind each one from the fourth on. One op is one
/// fault begun and completed, demand or speculative (an untimed run of
/// the same body counts them). One engine construction — a 64 MiB
/// `MemoryManager`, an `NpfEngine`, a 4096-page mapping — is inside the
/// timed body, spread over those ops.
fn bench_prefetch_issue_8() -> Sample {
    use memsim::manager::{MemConfig, MemoryManager};
    use memsim::space::Backing;
    use memsim::types::PageRange;
    use npf_core::npf::{NpfConfig, NpfEngine};
    use simcore::rng::SimRng;
    use simcore::time::SimTime;
    use simcore::units::ByteSize;

    let stream = || {
        let mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::mib(64),
            ..MemConfig::default()
        });
        let mut engine = NpfEngine::new(
            NpfConfig::default().with_prefetch_depth(8),
            mm,
            SimRng::new(1),
        );
        let space = engine.memory_mut().create_space();
        engine
            .memory_mut()
            .mmap_fixed(space, PageRange::new(Vpn(0), 4096), Backing::Anonymous)
            .expect("region");
        let domain = engine.create_channel(space);
        let mut begun = 0u64;
        for w in 0..16u64 {
            let addr = Vpn(w * 4).base();
            if let Ok(rec) = engine.begin_fault(SimTime::ZERO, domain, addr, 4 * 4096, true, None) {
                let id = rec.id;
                begun += 1;
                engine.complete_fault(id);
            }
            for (id, _) in engine.drain_spawned_prefetches() {
                begun += 1;
                engine.complete_fault(id);
            }
        }
        begun
    };
    measure("prefetch_issue_8", stream(), || {
        std::hint::black_box(stream());
    })
}

/// Reclaim's bookkeeping in steady state: uniform-random touches over
/// 6144 pages with the tracked set held at 4096, so two touches in
/// three promote a tracked page (relinked in place) and the third
/// tracks a new one and pops the oldest. The tracker persists across
/// iterations (it has been asked for an order, so it keeps one); one op
/// is one touch with the eviction it may force.
fn bench_lru_touch_evict() -> Sample {
    const PAGES: u64 = 6144;
    const TRACKED: usize = 4096;
    const OPS: u64 = 8192;
    let mut lru = LruTracker::new();
    let mut rng = SimRng::new(9);
    let s = SpaceId(0);
    measure("lru_touch_evict", OPS, || {
        let mut popped = 0u64;
        for _ in 0..OPS {
            lru.touch(s, Vpn(rng.below(PAGES)));
            if lru.len() > TRACKED {
                popped += lru.pop_oldest().map_or(0, |(_, v)| v.0);
            }
        }
        std::hint::black_box(popped);
    })
}

/// What `eth_memcached_warm` does a million times: a CPU touch of one
/// of memcached's 786 432 resident pages (3 GiB), picked uniformly, on
/// a host with memory to spare — nothing is ever reclaimed, so nothing
/// has ever asked the LRU for an order. One op is one
/// `MemoryManager::touch`.
fn bench_touch_resident_768k() -> Sample {
    const PAGES: u64 = 786_432;
    const OPS: u64 = 4096;
    let mut mm = MemoryManager::new(MemConfig {
        total_memory: ByteSize::gib(8),
        ..MemConfig::default()
    });
    let space = mm.create_space();
    let region = mm
        .mmap(
            space,
            ByteSize::bytes_exact(PAGES * PAGE_SIZE),
            Backing::Anonymous,
        )
        .expect("3 GiB of address space");
    for i in 0..PAGES {
        mm.touch(space, Vpn(region.start.0 + i), true)
            .expect("8 GiB hold 3");
    }
    let mut rng = SimRng::new(9);
    measure("touch_resident_768k", OPS, || {
        for _ in 0..OPS {
            let vpn = Vpn(region.start.0 + rng.below(PAGES));
            std::hint::black_box(mm.touch(space, vpn, false).is_ok());
        }
    })
}

/// The kernel `ib_stream_hot` runs: a requester and a responder QP on
/// pinned memory with 64 sends of 64 KiB outstanding, packets and ACKs
/// handed over in order, one new send posted per completion. The QPs
/// persist across iterations, so the PSN window is in steady state. One
/// op is one `on_packet`: 16 data packets and their ACK per message.
fn bench_rc_stream_window64() -> Sample {
    const DEPTH: u64 = 64;
    const LEN: u64 = 64 * 1024;
    let cfg = RcConfig::default();
    let mut a = RcQp::new(cfg, QpId(1), QpId(2), NodeId(1));
    let mut b = RcQp::new(cfg, QpId(2), QpId(1), NodeId(0));
    // Packets on the wire, oldest first; the flag is "toward b".
    let mut wire: VecDeque<(bool, RcPacket)> = VecDeque::new();
    let mut next_wr = 0u64;
    let mut post = |a: &mut RcQp, b: &mut RcQp, wire: &mut VecDeque<(bool, RcPacket)>| {
        next_wr += 1;
        b.post_recv(RecvWqe {
            wr_id: next_wr,
            addr: VirtAddr(0x10_0000),
            capacity: LEN,
        });
        let op = SendOp::Send {
            local: VirtAddr(0x80_0000),
            len: LEN,
        };
        for out in a.post_send(SimTime::ZERO, next_wr, op, &mut PinnedGate) {
            if let QpOutput::Send { packet, .. } = out {
                wire.push_back((true, packet));
            }
        }
    };
    for _ in 0..DEPTH {
        post(&mut a, &mut b, &mut wire);
    }
    measure("rc_stream_window64", DEPTH * (LEN / MTU + 1), || {
        let mut sent = 0;
        while sent < DEPTH {
            let (toward_b, pkt) = wire.pop_front().expect("a closed loop never drains");
            let qp = if toward_b { &mut b } else { &mut a };
            for out in qp.on_packet(SimTime::ZERO, pkt, &mut PinnedGate) {
                match out {
                    QpOutput::Send { packet, .. } => wire.push_back((!toward_b, packet)),
                    // A send completed at the requester: keep 64 posted.
                    QpOutput::Complete(_) if !toward_b => {
                        sent += 1;
                        post(&mut a, &mut b, &mut wire);
                    }
                    _ => {}
                }
            }
        }
    })
}

/// `Fabric::send` on the 3-node star of `ib_incast_cold_lossy`: two
/// senders alternate into the third node at line rate, two link
/// lookups per packet.
fn bench_fabric_star_send() -> Sample {
    const PACKETS: u64 = 4096;
    const WIRE_BYTES: u64 = 4096 + 64;
    let bandwidth = Bandwidth::gbps(56);
    let mut link = LinkConfig::datacenter(bandwidth);
    link.queue_capacity = u64::MAX / 4;
    let latency = SimDuration::from_nanos(200);
    let mut fabric = Fabric::star(link, 3, latency, &mut SimRng::new(5));
    let gap = bandwidth.transfer_time(WIRE_BYTES);
    let mut now = SimTime::ZERO;
    measure("fabric_star_send", PACKETS, || {
        for i in 0..PACKETS {
            let from = NodeId((i % 2) as u32);
            std::hint::black_box(fabric.send(now, from, NodeId(2), WIRE_BYTES));
            now += gap;
        }
    })
}

/// Figure 7's grown working set: a full 16 Ki-item memcached under
/// memaslap's 90/10 mix over nine times as many keys, so eight SETs in
/// nine evict. The cache persists across iterations (the recency list
/// is built and in steady state); one op is one `process`.
fn bench_kv_evict_full_cache() -> Sample {
    const ITEMS: u64 = 16 * 1024;
    const OPS: u64 = 4096;
    let config = MemcachedConfig {
        max_bytes: ByteSize::bytes_exact(ITEMS * 1024),
        value_size: 1024,
    };
    let mut app = Memcached::new(config);
    app.reserve_keys(ITEMS);
    for key in 0..ITEMS {
        app.process(KvOp::Set { key });
    }
    let mut client = Memaslap::new(ITEMS * 9, config.value_size, SimRng::new(9));
    measure("kv_evict_full_cache", OPS, || {
        for _ in 0..OPS {
            let (op, _) = client.next_op();
            std::hint::black_box(app.process(op));
        }
    })
}

/// The same cache as `eth_memcached_warm` runs it: 1.8 M preloaded keys
/// in 3 GiB of 1 KiB values (not full, so nothing evicts and no recency
/// list exists) under memaslap's 90/10 mix over those keys — every GET
/// hits. One op is one `process`.
fn bench_kv_get_hit_1p8m() -> Sample {
    const KEYS: u64 = 1_800_000;
    const OPS: u64 = 4096;
    let config = MemcachedConfig {
        max_bytes: ByteSize::gib(3),
        value_size: 1024,
    };
    let mut app = Memcached::new(config);
    app.reserve_keys(KEYS);
    for key in 0..KEYS {
        app.process(KvOp::Set { key });
    }
    let mut client = Memaslap::new(KEYS, config.value_size, SimRng::new(9));
    measure("kv_get_hit_1p8m", OPS, || {
        for _ in 0..OPS {
            let (op, _) = client.next_op();
            std::hint::black_box(app.process(op));
        }
    })
}

/// What one IOuser interrupt of `eth_memcached_warm` serves: 16 GETs
/// over the same 1.8 M preloaded keys (3 GiB cache, not full; one
/// resident value page per four keys), each with the CPU touch of its
/// value page — looked up as one batch first, every item and then every
/// page's PTE and LRU entry, as `EthTestbed` does before serving. One op
/// is one GET served.
fn bench_serve_batch16_1p8m() -> Sample {
    use memsim::types::PageRange;

    const KEYS: u64 = 1_800_000;
    const BATCH: usize = 16;
    const BATCHES: u64 = 256;
    let config = MemcachedConfig {
        max_bytes: ByteSize::gib(3),
        value_size: 1024,
    };
    let mut app = Memcached::new(config);
    let mut mm = MemoryManager::new(MemConfig {
        total_memory: ByteSize::gib(8),
        ..MemConfig::default()
    });
    let space = mm.create_space();
    let slab = PageRange::new(SLAB_BASE.vpn(), app.slab_bytes().pages());
    mm.mmap_fixed(space, slab, Backing::Anonymous)
        .expect("3 GiB of address space");
    app.reserve_keys(KEYS);
    for key in 0..KEYS {
        if let Some((addr, ..)) = app.process(KvOp::Set { key }).touch {
            mm.touch(space, addr.vpn(), true).expect("8 GiB hold 3");
        }
    }
    let mut rng = SimRng::new(9);
    measure("serve_batch16_1p8m", BATCHES * BATCH as u64, || {
        for _ in 0..BATCHES {
            let keys: [u64; BATCH] = std::array::from_fn(|_| rng.below(KEYS));
            let pages = keys.map(|key| app.lookup(key).map(VirtAddr::vpn));
            for &vpn in pages.iter().flatten() {
                std::hint::black_box(mm.recency(space, vpn));
            }
            for key in keys {
                if let Some((addr, ..)) = app.process(KvOp::Get { key }).touch {
                    std::hint::black_box(mm.touch(space, addr.vpn(), false).is_ok());
                }
            }
        }
    })
}

/// A reduced-size figure, as `figure_wall_clocks` times it.
type Figure<'a> = Box<dyn FnOnce() -> npf_bench::Report + 'a>;

/// Reduced-size figure runs timed end to end, fanning out through the
/// same [`RunCtx::pool`] the real binaries use.
fn figure_wall_clocks(ctx: &RunCtx) -> Vec<(&'static str, f64)> {
    use npf_bench::{eth_experiments as eth, ib_experiments as ib, micro};
    // The same figure on a 4-worker budget: the pool's speedup ablation
    // (≈ fig4a/3 on a multi-core host, since the figure is three
    // independent testbeds; equal on one core).
    let four_workers = ctx.clone().with_workers(4);
    // The huge-page + speculative-prefetch ablation of the same figure
    // (depth 64): the memory fast paths' headline lever. CI byte-diffs
    // this cell at --jobs 4 against serial.
    let prefetch = ctx.clone().with_huge_pages(true).with_prefetch(64);
    let figures: Vec<(&'static str, Figure<'_>)> = vec![
        ("fig3", Box::new(|| micro::fig3(100))),
        ("table4", Box::new(|| micro::table4(300))),
        ("fig4a", Box::new(|| eth::fig4a(ctx, 4))),
        ("fig4a_shards4", Box::new(|| eth::fig4a(&four_workers, 4))),
        ("fig4a_prefetch", Box::new(|| eth::fig4a(&prefetch, 4))),
        ("fig8b", Box::new(|| ib::fig8b(ctx, 150))),
        ("fig9", Box::new(|| ib::fig9(8, 4))),
        ("fig10_ethernet", Box::new(|| ib::fig10_ethernet(ctx, 100))),
    ];
    figures
        .into_iter()
        .map(|(name, figure)| {
            let t0 = Instant::now();
            std::hint::black_box(figure());
            (name, t0.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

fn render_json(samples: &[Sample], figures: &[(&'static str, f64)]) -> String {
    let host = simcore::shard::host_parallelism();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"npf-enginebench-v1\",\n");
    out.push_str(&format!("  \"host_parallelism\": {host},\n"));
    out.push_str("  \"queue_events_per_sec\": {\n");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 < samples.len() { "," } else { "" };
        out.push_str(&format!(
            "    \"{}\": {:.0}{comma}\n",
            s.name,
            s.events_per_sec()
        ));
    }
    out.push_str("  },\n");
    out.push_str("  \"queue_ns_per_iter\": {\n");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 < samples.len() { "," } else { "" };
        out.push_str(&format!(
            "    \"{}\": {:.0}{comma}\n",
            s.name, s.ns_per_iter
        ));
    }
    out.push_str("  },\n");
    out.push_str("  \"figure_wall_ms\": {\n");
    for (i, (name, ms)) in figures.iter().enumerate() {
        let comma = if i + 1 < figures.len() { "," } else { "" };
        out.push_str(&format!("    \"{name}\": {ms:.1}{comma}\n"));
    }
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

/// Pulls `"name": <number>` out of `json` after the
/// `"queue_events_per_sec"` marker — enough of a parser for the file
/// this binary itself writes.
fn baseline_events_per_sec(json: &str, name: &str) -> Option<f64> {
    let section = json.split("\"queue_events_per_sec\"").nth(1)?;
    let section = &section[..section.find('}')?];
    let needle = format!("\"{name}\":");
    let rest = section.split(&needle).nth(1)?;
    let num: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
        .collect();
    num.parse().ok()
}

fn main() {
    let ctx = RunOpts::init(&["out", "check"]);
    let out_path = ctx.opts.extra("out").unwrap_or("BENCH_engine.json");
    let check_path = ctx.opts.extra("check");

    let samples = [
        bench_schedule_pop(),
        bench_schedule_cancel_pop(),
        bench_churn(),
        bench_timer_rearm(),
        bench_deliver_lane(),
        bench_promote_512(),
        bench_prefetch_issue_8(),
        bench_lru_touch_evict(),
        bench_touch_resident_768k(),
        bench_rc_stream_window64(),
        bench_fabric_star_send(),
        bench_kv_evict_full_cache(),
        bench_kv_get_hit_1p8m(),
        bench_serve_batch16_1p8m(),
    ];
    for s in &samples {
        println!(
            "{:<24} {:>12.0} ns/iter  {:>14.0} events/sec",
            s.name,
            s.ns_per_iter,
            s.events_per_sec()
        );
    }
    let figures = figure_wall_clocks(&ctx);
    for (name, ms) in &figures {
        println!("{name:<24} {ms:>12.1} ms");
    }

    let json = render_json(&samples, &figures);
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(2);
    }
    println!("engine benchmark written to {out_path}");

    if let Some(path) = check_path {
        let baseline = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("failed to read baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        let mut failed = false;
        for s in &samples {
            let Some(base) = baseline_events_per_sec(&baseline, s.name) else {
                println!("{}: no baseline entry, skipping", s.name);
                continue;
            };
            let now = s.events_per_sec();
            let floor = base * (1.0 - REGRESSION_TOLERANCE);
            let verdict = if now < floor { "REGRESSED" } else { "ok" };
            println!(
                "{:<24} baseline {:>14.0}  now {:>14.0}  ({:+.1}%)  {verdict}",
                s.name,
                base,
                now,
                (now / base - 1.0) * 100.0
            );
            failed |= now < floor;
        }
        if failed {
            eprintln!(
                "events/sec regressed more than {:.0}% against {path}",
                REGRESSION_TOLERANCE * 100.0
            );
            std::process::exit(1);
        }
    }
}
