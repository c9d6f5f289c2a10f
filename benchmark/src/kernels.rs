//! Per-layer unit costs: each kernel calls one layer's public functions
//! in isolation, with inputs shaped like the workload, and reports host
//! nanoseconds per unit. The bodies follow `crates/bench/benches/`, but
//! time the calls the testbeds actually make (`Iommu::probe_range`, not
//! `check_dma`) at the workload's sizes.

use std::hint::black_box;
use std::time::Instant;

use iommu::{Iommu, TableMode};
use memsim::manager::{MemConfig, MemoryManager};
use memsim::space::Backing;
use memsim::types::{FrameId, PageRange, VirtAddr, Vpn, PAGE_SIZE};
use netsim::fabric::Fabric;
use netsim::link::{Link, LinkConfig};
use netsim::packet::NodeId;
use netsim::profile::{RdmaTransport, TransportConfig};
use nicsim::rx::{RingId, RxDescriptor, RxEngine, RxFaultMode, RxVerdict};
use npf_core::{BackupDriver, NpfConfig, NpfEngine, ResolveStep, RX_BUFFER_BASE};
use rdmasim::rc::RcQp;
use rdmasim::types::{PinnedGate, QpId, QpOutput, RcConfig, RecvWqe, SendOp};
use simcore::event::EventQueue;
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};
use simcore::units::{Bandwidth, ByteSize};
use tcpsim::{TcpConfig, TcpConnection, TcpOutput, TcpSegment};
use workloads::memcached::{Memaslap, Memcached, MemcachedConfig};

use crate::spans::{SpanId, SpanLog};
use crate::stats::quiet;

/// Batches timed per kernel; the quiet one is reported, as for the
/// windows the costs are compared with.
const BATCHES: usize = 5;

/// What a kernel needs to know about the workload it explains.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Pending events the queue holds in steady state.
    pub queue_depth: u64,
    /// Cancelled ÷ scheduled events.
    pub cancel_ratio: f64,
    /// Keys each memcached instance holds.
    pub kv_keys: u64,
    pub rx_ring_entries: u64,
    pub npf: NpfConfig,
    /// Pages one NPF resolves.
    pub pages_per_npf: u64,
    /// Mean RC message length.
    pub message_bytes: u64,
    pub transport: RdmaTransport,
    /// Nodes on the InfiniBand star.
    pub fabric_nodes: u32,
}

/// Host nanoseconds per unit of every kernel, keyed by the per-layer
/// metric that reports it.
#[derive(Debug, Clone, Default)]
pub struct KernelCosts(Vec<(&'static str, f64)>);

impl KernelCosts {
    /// Cost of kernel `name`; panics on a name [`KERNELS`] lacks.
    pub fn ns(&self, name: &str) -> f64 {
        let found = self.0.iter().find(|(k, _)| *k == name);
        found.unwrap_or_else(|| panic!("no kernel named {name}")).1
    }
}

/// Times `batch` (which performs `units` units of work) [`BATCHES`]
/// times after one warm-up call; returns the quiet ns per unit.
fn per_unit(units: u64, mut batch: impl FnMut()) -> f64 {
    batch();
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let clock = Instant::now();
            batch();
            clock.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    quiet(&samples)
}

/// Like [`per_unit`] for kernels that consume their input: `setup`
/// builds fresh state outside the timed region of every batch.
fn per_unit_fresh<S>(
    units: u64,
    mut setup: impl FnMut() -> S,
    mut batch: impl FnMut(&mut S),
) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut state = setup();
            let clock = Instant::now();
            batch(&mut state);
            clock.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    quiet(&samples)
}

/// Hold model: the queue stays at the workload's depth while every
/// iteration pops one event and schedules its successor; a share of the
/// schedules equal to the workload's cancel ratio is cancelled again, as
/// re-armed TCP timers are.
fn queue_ns_per_event(shape: &Shape) -> f64 {
    const EVENTS: u64 = 200_000;
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = SimRng::new(11);
    for i in 0..shape.queue_depth.max(1) {
        q.schedule_in(SimDuration::from_nanos(rng.below(100_000)), i);
    }
    // Cancels per surviving schedule so that cancelled/scheduled matches.
    let cancels_per_event = shape.cancel_ratio / (1.0 - shape.cancel_ratio).max(0.01);
    let mut owed = 0.0;
    per_unit(EVENTS, || {
        for _ in 0..EVENTS {
            let (_, e) = q.pop().expect("hold model keeps the queue non-empty");
            q.schedule_in(SimDuration::from_nanos(1 + rng.below(100_000)), e);
            owed += cancels_per_event;
            while owed >= 1.0 {
                owed -= 1.0;
                let token = q.schedule_in(SimDuration::from_micros(200_000), e);
                black_box(q.cancel(token));
            }
        }
    })
}

fn tcp_segments(outs: Vec<TcpOutput>, wire: &mut Vec<TcpSegment>) {
    wire.extend(outs.into_iter().filter_map(|o| match o {
        TcpOutput::Send(s) => Some(s),
        _ => None,
    }));
}

/// Delivers segments between the two ends until the wire is empty.
fn tcp_settle(client: &mut TcpConnection, server: &mut TcpConnection, wire: &mut Vec<TcpSegment>) {
    while !wire.is_empty() {
        let mut next = Vec::new();
        for seg in wire.drain(..) {
            let outs = if seg.dst_port == server.local_port() {
                server.on_segment(SimTime::ZERO, seg, false)
            } else {
                client.on_segment(SimTime::ZERO, seg, false)
            };
            tcp_segments(outs, &mut next);
        }
        *wire = next;
    }
}

fn tcp_pair() -> (TcpConnection, TcpConnection, Vec<TcpSegment>) {
    let mut client = TcpConnection::new(TcpConfig::linux(), 40_000, 11_211);
    let mut server = TcpConnection::new(TcpConfig::lwip(), 11_211, 40_000);
    server.listen();
    let mut wire = Vec::new();
    tcp_segments(client.connect(SimTime::ZERO), &mut wire);
    tcp_settle(&mut client, &mut server, &mut wire);
    (client, server, wire)
}

/// One memcached GET between two in-memory stacks: a 40-byte request,
/// the value plus header back, and the ACKs both provoke.
fn tcp_ns_per_op(_: &Shape) -> f64 {
    const OPS: u64 = 20_000;
    const REQUEST: u64 = 40;
    const RESPONSE: u64 = 1024 + 48;
    let (mut client, mut server, mut wire) = tcp_pair();
    per_unit(OPS, || {
        for _ in 0..OPS {
            tcp_segments(client.write(SimTime::ZERO, REQUEST), &mut wire);
            tcp_settle(&mut client, &mut server, &mut wire);
            black_box(server.read(REQUEST));
            tcp_segments(server.write(SimTime::ZERO, RESPONSE), &mut wire);
            tcp_settle(&mut client, &mut server, &mut wire);
            black_box(client.read(RESPONSE));
        }
    })
}

fn tcp_handshake_ns_per_conn(_: &Shape) -> f64 {
    const CONNS: u64 = 5_000;
    per_unit(CONNS, || {
        for _ in 0..CONNS {
            black_box(tcp_pair());
        }
    })
}

fn rx_ring(entries: u64) -> RxEngine<u32> {
    let mut rx = RxEngine::new(RxFaultMode::BackupRing { capacity: 512 });
    rx.create_ring(RingId(0), entries, entries * 2);
    for i in 0..entries {
        rx.post_descriptor(RingId(0), slot_descriptor(i, entries));
    }
    rx
}

fn slot_descriptor(index: u64, entries: u64) -> RxDescriptor {
    RxDescriptor {
        addr: VirtAddr(RX_BUFFER_BASE + (index % entries) * PAGE_SIZE),
        capacity: PAGE_SIZE,
    }
}

/// Store into a posted, present buffer; the IOuser consumes and reposts.
fn rx_ns_per_pkt(shape: &Shape) -> f64 {
    const PACKETS: u64 = 200_000;
    let entries = shape.rx_ring_entries;
    let mut rx = rx_ring(entries);
    let mut next = entries;
    per_unit(PACKETS, || {
        for i in 0..PACKETS {
            black_box(rx.recv(RingId(0), i as u32, 1500, true));
            black_box(rx.consume(RingId(0)));
            rx.post_descriptor(RingId(0), slot_descriptor(next, entries));
            next += 1;
        }
    })
}

/// The nicsim half of an rNPF: park in the backup ring, pop, place the
/// resolved packet, clear the bitmap bit; then consume and repost.
fn backup_ns_per_pkt(shape: &Shape) -> f64 {
    const PACKETS: u64 = 100_000;
    let entries = shape.rx_ring_entries;
    let mut rx = rx_ring(entries);
    let mut next = entries;
    per_unit(PACKETS, || {
        for i in 0..PACKETS {
            if let RxVerdict::Backup {
                bit_index,
                target_index,
                ..
            } = rx.recv(RingId(0), i as u32, 1500, false)
            {
                let e = rx.pop_backup().expect("just parked");
                rx.place_resolved(RingId(0), target_index, e.payload, e.len);
                rx.resolve_rnpfs(RingId(0), bit_index);
            }
            black_box(rx.consume(RingId(0)));
            rx.post_descriptor(RingId(0), slot_descriptor(next, entries));
            next += 1;
        }
    })
}

fn eth_link() -> LinkConfig {
    LinkConfig {
        bandwidth: Bandwidth::gbps(12),
        propagation: SimDuration::from_micros(1),
        queue_capacity: 8 << 20,
        ecn_threshold: None,
        loss_probability: 0.0,
    }
}

/// `Link::send` at the Ethernet testbed's link settings, offered at
/// line rate so the queue neither grows nor idles.
fn link_ns_per_send(_: &Shape) -> f64 {
    const SENDS: u64 = 500_000;
    let cfg = eth_link();
    let mut link = Link::new(cfg, SimRng::new(3));
    let gap = cfg.bandwidth.transfer_time(1500);
    let mut now = SimTime::ZERO;
    per_unit(SENDS, || {
        for _ in 0..SENDS {
            black_box(link.send(now, 1500));
            now += gap;
        }
    })
}

/// `Fabric::send` across the star switch, senders taking turns into
/// the last node (the incast pattern; with one sender, a stream).
fn fabric_ns_per_pkt(shape: &Shape) -> f64 {
    const PACKETS: u64 = 500_000;
    let bandwidth = Bandwidth::gbps(56);
    let mut link = LinkConfig::datacenter(bandwidth);
    link.queue_capacity = u64::MAX / 4;
    let nodes = shape.fabric_nodes.max(2);
    let mut fabric = Fabric::star(
        link,
        nodes,
        SimDuration::from_nanos(200),
        &mut SimRng::new(5),
    );
    let gap = bandwidth.transfer_time(4096 + 64);
    let mut now = SimTime::ZERO;
    per_unit(PACKETS, || {
        for i in 0..PACKETS {
            let from = NodeId((i % u64::from(nodes - 1)) as u32);
            black_box(fabric.send(now, from, NodeId(nodes - 1), 4096 + 64));
            now += gap;
        }
    })
}

/// Pages the translation kernels cycle over.
const MAPPED_PAGES: u64 = 4096;

fn iommu_with_mappings(shape: &Shape) -> (Iommu, iommu::DomainId, Vpn) {
    let mut unit = Iommu::new(shape.npf.iotlb_entries);
    let domain = unit.create_domain(TableMode::PageFaultCapable);
    let base = Vpn(RX_BUFFER_BASE / PAGE_SIZE);
    for i in 0..MAPPED_PAGES {
        unit.map(domain, Vpn(base.0 + i), FrameId(i), true);
    }
    (unit, domain, base)
}

/// `Iommu::probe_range` over the one buffer page a received packet
/// lands in: the call `NpfEngine::dma_ready` makes on every packet.
fn probe_ns_per_call(shape: &Shape) -> f64 {
    let (unit, domain, base) = iommu_with_mappings(shape);
    per_unit(MAPPED_PAGES * 16, || {
        for i in 0..MAPPED_PAGES * 16 {
            let range = PageRange::new(Vpn(base.0 + i % MAPPED_PAGES), 1);
            black_box(unit.probe_range(domain, range, true));
        }
    })
}

/// `Iommu::map` of a page with no mapping yet (an NPF completing).
fn map_ns_per_page(shape: &Shape) -> f64 {
    per_unit_fresh(
        MAPPED_PAGES,
        || {
            let mut unit = Iommu::new(shape.npf.iotlb_entries);
            let domain = unit.create_domain(TableMode::PageFaultCapable);
            (unit, domain)
        },
        |(unit, domain)| {
            for i in 0..MAPPED_PAGES {
                unit.map(
                    *domain,
                    Vpn(RX_BUFFER_BASE / PAGE_SIZE + i),
                    FrameId(i),
                    true,
                );
            }
        },
    )
}

/// `Iommu::invalidate` of a mapped page (reclaim took its frame).
fn invalidate_ns_per_page(shape: &Shape) -> f64 {
    per_unit_fresh(
        MAPPED_PAGES,
        || iommu_with_mappings(shape),
        |(unit, domain, base)| {
            for i in 0..MAPPED_PAGES {
                black_box(unit.invalidate(*domain, Vpn(base.0 + i)));
            }
        },
    )
}

/// Pages the memory kernels touch.
const TOUCHED_PAGES: u64 = 65_536;

/// A manager with `frames` of memory and one anonymous region of
/// [`TOUCHED_PAGES`].
fn memory(frames: u64) -> (MemoryManager, memsim::types::SpaceId, Vpn) {
    let mut mm = MemoryManager::new(MemConfig {
        total_memory: ByteSize::bytes_exact(frames * PAGE_SIZE),
        ..MemConfig::default()
    });
    let space = mm.create_space();
    let bytes = ByteSize::bytes_exact(TOUCHED_PAGES * PAGE_SIZE);
    let region = mm
        .mmap(space, bytes, Backing::Anonymous)
        .expect("mmap of the kernel region");
    (mm, space, region.start)
}

fn touch_all(mm: &mut MemoryManager, space: memsim::types::SpaceId, start: Vpn, write: bool) {
    for i in 0..TOUCHED_PAGES {
        black_box(mm.touch(space, Vpn(start.0 + i), write).is_ok());
    }
}

/// Touching a resident page (a memcached value already in memory).
fn touch_ns_per_page(_: &Shape) -> f64 {
    let (mut mm, space, start) = memory(TOUCHED_PAGES * 2);
    touch_all(&mut mm, space, start, true);
    per_unit(TOUCHED_PAGES, || touch_all(&mut mm, space, start, false))
}

/// First touch of an anonymous page with memory to spare: a minor fault.
fn fault_in_ns_per_page(_: &Shape) -> f64 {
    per_unit_fresh(
        TOUCHED_PAGES,
        || memory(TOUCHED_PAGES * 2),
        |(mm, space, start)| touch_all(mm, *space, *start, true),
    )
}

/// Touching a swapped-out page when a quarter of the region fits in
/// memory: every touch is a major fault that evicts and writes out
/// another page.
fn evict_ns_per_page(_: &Shape) -> f64 {
    let (mut mm, space, start) = memory(TOUCHED_PAGES / 4);
    per_unit(TOUCHED_PAGES, || touch_all(&mut mm, space, start, true))
}

/// An engine with one channel over a fresh anonymous region of `pages`.
fn npf_engine(config: NpfConfig, pages: u64) -> (NpfEngine, iommu::DomainId, Vpn) {
    let mm = MemoryManager::new(MemConfig {
        total_memory: ByteSize::bytes_exact(pages * 2 * PAGE_SIZE),
        ..MemConfig::default()
    });
    let mut engine = NpfEngine::new(config, mm, SimRng::new(1));
    let space = engine.memory_mut().create_space();
    let region = engine
        .memory_mut()
        .mmap(
            space,
            ByteSize::bytes_exact(pages * PAGE_SIZE),
            Backing::Anonymous,
        )
        .expect("mmap of the kernel region");
    let domain = engine.create_channel(space);
    (engine, domain, region.start)
}

/// `dma_ready` on a resident, mapped buffer page: what every received
/// packet pays.
fn dma_ready_ns_per_call(shape: &Shape) -> f64 {
    let (mut engine, domain, start) = npf_engine(shape.npf, MAPPED_PAGES);
    engine
        .pin_and_map(domain, PageRange::new(start, MAPPED_PAGES))
        .expect("fits");
    per_unit(MAPPED_PAGES * 16, || {
        for i in 0..MAPPED_PAGES * 16 {
            let addr = Vpn(start.0 + i % MAPPED_PAGES).base();
            black_box(engine.dma_ready(domain, addr, 1500, true));
        }
    })
}

/// `begin_fault` to `complete_fault` on cold pages, at the workload's
/// pages per fault, arbiter policy and backend.
fn fault_ns_per_npf(shape: &Shape) -> f64 {
    const FAULTS: u64 = 8_192;
    let pages = shape.pages_per_npf.max(1);
    per_unit_fresh(
        FAULTS,
        || npf_engine(shape.npf, FAULTS * pages),
        |(engine, domain, start)| {
            for i in 0..FAULTS {
                let addr = Vpn(start.0 + i * pages).base();
                let id = engine
                    .begin_fault(SimTime::ZERO, *domain, addr, pages * PAGE_SIZE, true, None)
                    .expect("memory to spare")
                    .id;
                black_box(engine.complete_fault(id).id);
            }
        },
    )
}

/// The backup driver's cycle for one parked packet whose buffer is
/// already resident and mapped (the fault itself is
/// [`fault_ns_per_npf`]): interrupt handler, resolver step, merge.
fn backup_drain_ns_per_pkt(shape: &Shape) -> f64 {
    const PACKETS: u64 = 100_000;
    let entries = shape.rx_ring_entries;
    let mm = MemoryManager::new(MemConfig::default());
    let mut engine = NpfEngine::new(shape.npf, mm, SimRng::new(1));
    let space = engine.memory_mut().create_space();
    let buffers = PageRange::new(Vpn(RX_BUFFER_BASE / PAGE_SIZE), entries);
    engine
        .memory_mut()
        .mmap_fixed(space, buffers, Backing::Anonymous)
        .expect("mmap of the ring buffers");
    let domain = engine.create_channel(space);
    engine.pin_and_map(domain, buffers).expect("fits");
    let mut rx = rx_ring(entries);
    let mut driver: BackupDriver<u32> = BackupDriver::new();
    driver.bind_ring(RingId(0), domain, entries);
    let mut next = entries;
    per_unit(PACKETS, || {
        for i in 0..PACKETS {
            black_box(rx.recv(RingId(0), i as u32, 1500, false));
            black_box(driver.on_backup_interrupt(&engine, &mut rx));
            let step = driver.resolve_step(SimTime::ZERO, &mut engine, &mut rx, RingId(0));
            debug_assert!(matches!(step, Ok(ResolveStep::Resolved { .. })));
            black_box(step.is_ok());
            black_box(rx.consume(RingId(0)));
            rx.post_descriptor(RingId(0), slot_descriptor(next, entries));
            next += 1;
        }
    })
}

/// One SEND of the workload's message size over a loopback queue pair
/// at the workload's transport: data packets out, ACKs back.
fn rc_ns_per_msg(shape: &Shape) -> f64 {
    const MESSAGES: u64 = 2_000;
    let transport = TransportConfig::default().with_transport(shape.transport);
    let cfg = RcConfig {
        transport: transport.transport,
        bdp_packets: transport.bdp_packets,
        ..RcConfig::default()
    };
    let len = shape.message_bytes.max(1);
    let mut a = RcQp::new(cfg, QpId(1), QpId(2), NodeId(1));
    let mut b = RcQp::new(cfg, QpId(2), QpId(1), NodeId(0));
    let packets = |outs: Vec<QpOutput>| {
        outs.into_iter().filter_map(|o| match o {
            QpOutput::Send { packet, .. } => Some(packet),
            _ => None,
        })
    };
    let mut wr = 0u64;
    per_unit(MESSAGES, || {
        for _ in 0..MESSAGES {
            wr += 1;
            b.post_recv(RecvWqe {
                wr_id: wr,
                addr: VirtAddr(0x10_0000),
                capacity: len,
            });
            let op = SendOp::Send {
                local: VirtAddr(0x80_0000),
                len,
            };
            let mut to_b: Vec<_> =
                packets(a.post_send(SimTime::ZERO, wr, op, &mut PinnedGate)).collect();
            // The window may release the message in several bursts.
            while !to_b.is_empty() {
                let mut to_a = Vec::new();
                for p in to_b.drain(..) {
                    to_a.extend(packets(b.on_packet(SimTime::ZERO, p, &mut PinnedGate)));
                }
                for p in to_a {
                    to_b.extend(packets(a.on_packet(SimTime::ZERO, p, &mut PinnedGate)));
                }
            }
        }
    })
}

/// memaslap's 90/10 mix against a preloaded cache of the workload's
/// key count (capped: the cost is per lookup, not per key).
fn kv_ns_per_op(shape: &Shape) -> f64 {
    const OPS: u64 = 200_000;
    let keys = shape.kv_keys.clamp(1, 500_000);
    let config = MemcachedConfig::default();
    let mut app = Memcached::new(config);
    app.reserve_keys(keys);
    for key in 0..keys {
        app.process(workloads::memcached::KvOp::Set { key });
    }
    let mut client = Memaslap::new(keys, config.value_size, SimRng::new(9));
    per_unit(OPS, || {
        for _ in 0..OPS {
            let (op, _) = client.next_op();
            black_box(app.process(op));
        }
    })
}

/// Host nanoseconds per unit at the given shape.
type Kernel = fn(&Shape) -> f64;

/// Every kernel, named after the per-layer metric that reports it.
pub const KERNELS: [(&str, Kernel); 18] = [
    ("simcore.queue_ns_per_event", queue_ns_per_event),
    ("tcpsim.ns_per_op", tcp_ns_per_op),
    ("tcpsim.handshake_ns_per_conn", tcp_handshake_ns_per_conn),
    ("nicsim.rx_ns_per_pkt", rx_ns_per_pkt),
    ("nicsim.backup_ns_per_pkt", backup_ns_per_pkt),
    ("netsim.link_ns_per_send", link_ns_per_send),
    ("netsim.fabric_ns_per_pkt", fabric_ns_per_pkt),
    ("iommu.probe_ns_per_call", probe_ns_per_call),
    ("iommu.map_ns_per_page", map_ns_per_page),
    ("iommu.invalidate_ns_per_page", invalidate_ns_per_page),
    ("memsim.touch_ns_per_page", touch_ns_per_page),
    ("memsim.fault_in_ns_per_page", fault_in_ns_per_page),
    ("memsim.evict_ns_per_page", evict_ns_per_page),
    ("npf-core.dma_ready_ns_per_call", dma_ready_ns_per_call),
    ("npf-core.fault_ns_per_npf", fault_ns_per_npf),
    ("npf-core.backup_drain_ns_per_pkt", backup_drain_ns_per_pkt),
    ("rdmasim.ns_per_msg", rc_ns_per_msg),
    ("workloads.kv_ns_per_op", kv_ns_per_op),
];

/// Runs every kernel, one `layer.<crate>.<kernel>` span each.
pub fn measure(shape: &Shape, log: &mut SpanLog, parent: SpanId) -> KernelCosts {
    let costs = KERNELS.iter().map(|&(name, kernel)| {
        let span = log.begin(format!("layer.{name}"), Some(parent));
        let ns = kernel(shape);
        log.end(span, Vec::new());
        (name, ns)
    });
    KernelCosts(costs.collect())
}
