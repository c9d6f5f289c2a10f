//! The IOprovider side of the backup ring (§5 "Driver").
//!
//! The backup ring's interrupt handler drains NIC-provided entries into
//! a per-IOuser software queue `q` and wakes a resolver thread `T`.
//! `T` resolves each packet's rNPF (faulting the IOuser buffer in,
//! updating the IOMMU), copies the packet into the IOuser ring, and
//! notifies the NIC (`resolve_rNPFs`). When the IOuser ring has no room
//! (the IOuser cannot post buffers because it has not been told about
//! new packets), `T` asks the NIC for a tail interrupt and waits.
//!
//! All IOusers stay **unaware**: they observe only their own ring, with
//! packets arriving in order.

use std::collections::VecDeque;

use memsim::manager::MemError;
use memsim::types::VirtAddr;
use nicsim::rx::{BackupEntry, RingId, RxEngine};
use simcore::journal;
use simcore::stats::{CounterId, Counters};
use simcore::time::{SimDuration, SimTime};
use simcore::trace::{self, ArgValue};

use iommu::DomainId;

use crate::cost::COST;
use crate::npf::NpfEngine;

/// One step outcome of the resolver thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveStep {
    /// A packet was merged back. `notify_iouser` reports whether the
    /// ring head advanced (deliver an IOuser interrupt). `cost` is the
    /// CPU+device time consumed; `ready_at` is when the merge completes
    /// (fault resolution may dominate).
    Resolved {
        /// Ring the packet went to.
        ring: RingId,
        /// Whether the IOuser should be interrupted.
        notify_iouser: bool,
        /// When the work finishes.
        ready_at: SimTime,
    },
    /// The target IOuser ring has no descriptor for the packet yet; the
    /// driver armed a tail interrupt and parked the packet.
    WaitingForRing(RingId),
    /// Nothing queued.
    Idle,
}

/// What the driver keeps per IOuser ring.
#[derive(Debug)]
struct RingState<P> {
    /// The ring's software queue (`q` in the paper).
    queue: VecDeque<BackupEntry<P>>,
    /// The resolver is parked awaiting a tail interrupt.
    parked: bool,
    /// The ring's IOMMU domain and the number of buffer slots it cycles
    /// through (slot address reconstruction); `None` until
    /// [`BackupDriver::bind_ring`].
    bound: Option<(DomainId, u64)>,
}

impl<P> Default for RingState<P> {
    fn default() -> Self {
        RingState {
            queue: VecDeque::new(),
            parked: false,
            bound: None,
        }
    }
}

/// The backup-ring driver.
#[derive(Debug)]
pub struct BackupDriver<P> {
    /// Per-ring state, indexed by the dense ring id.
    rings: Vec<RingState<P>>,
    counters: Counters,
    drained: CounterId,
    parked: CounterId,
    merged: CounterId,
}

impl<P: Clone> Default for BackupDriver<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Clone> BackupDriver<P> {
    /// Creates an idle driver.
    #[must_use]
    pub fn new() -> Self {
        let mut counters = Counters::new();
        BackupDriver {
            rings: Vec::new(),
            drained: counters.register("drained"),
            parked: counters.register("parked"),
            merged: counters.register("merged"),
            counters,
        }
    }

    /// The state of `ring`, growing the dense table to cover it.
    fn ring_mut(&mut self, ring: RingId) -> &mut RingState<P> {
        let idx = ring.0 as usize;
        if idx >= self.rings.len() {
            self.rings.resize_with(idx + 1, RingState::default);
        }
        &mut self.rings[idx]
    }

    /// Statistics: `drained`, `merged`, `parked`.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Associates a ring with its IOMMU domain and its buffer-slot
    /// count (channel setup). Ring buffers follow the testbed
    /// convention: a page-per-slot array at [`crate::RX_BUFFER_BASE`],
    /// reused modulo `slots`.
    pub fn bind_ring(&mut self, ring: RingId, domain: DomainId, slots: u64) {
        self.ring_mut(ring).bound = Some((domain, slots.max(1)));
    }

    /// Total packets parked in software queues.
    #[must_use]
    pub fn queued_packets(&self) -> usize {
        self.rings.iter().map(|r| r.queue.len()).sum()
    }

    /// Backup-ring interrupt handler: drains the NIC's backup entries
    /// into per-IOuser queues. Returns the rings that now have work and
    /// the handler's CPU cost.
    ///
    /// The engine argument is unread (the cost is priced from
    /// [`COST`]); it stays only because the frozen `benchmark/` calls
    /// this signature.
    pub fn on_backup_interrupt(
        &mut self,
        _engine: &NpfEngine,
        rx: &mut RxEngine<P>,
    ) -> (Vec<RingId>, SimDuration) {
        let mut woken = Vec::new();
        let mut drained = 0u64;
        while let Some(entry) = rx.pop_backup() {
            let ring = entry.ring;
            let state = self.ring_mut(ring);
            state.queue.push_back(entry);
            if !woken.contains(&ring) {
                woken.push(ring);
            }
            drained += 1;
        }
        self.counters.add_id(self.drained, drained);
        trace::with(|t| {
            t.instant(
                t.clock(),
                "backup_driver",
                "backup_interrupt",
                vec![("drained", ArgValue::U64(drained))],
            );
            t.counter(
                t.clock(),
                "backup_driver",
                "queue_depth",
                self.queued_packets() as f64,
            );
            t.metrics_mut()
                .counter_add("backup_driver.drained", drained);
        });
        let cost = COST.interrupt_dispatch + COST.backup_resolver_per_packet * drained.max(1);
        (woken, cost)
    }

    /// One resolver-thread step for `ring`: take the head packet of its
    /// queue, resolve the fault, merge the packet back.
    ///
    /// # Errors
    ///
    /// Propagates memory errors from fault resolution.
    pub fn resolve_step(
        &mut self,
        now: SimTime,
        engine: &mut NpfEngine,
        rx: &mut RxEngine<P>,
        ring: RingId,
    ) -> Result<ResolveStep, MemError> {
        let Some(state) = self.rings.get_mut(ring.0 as usize) else {
            return Ok(ResolveStep::Idle);
        };
        let Some(entry) = state.queue.front() else {
            return Ok(ResolveStep::Idle);
        };
        let (domain, slots) = state.bound.expect("ring bound to a domain");

        // Find where the packet must land. The descriptor may not be
        // posted yet: park and request a tail interrupt.
        let target_index = entry.target_index;
        if target_index >= rx.tail(ring) {
            rx.request_tail_interrupt(ring);
            state.parked = true;
            self.counters.bump_id(self.parked);
            trace::with(|t| {
                t.instant(
                    now,
                    "backup_driver",
                    "parked",
                    vec![
                        ("ring", ArgValue::U64(u64::from(ring.0))),
                        ("target_index", ArgValue::U64(target_index)),
                    ],
                );
                t.metrics_mut().counter_add("backup_driver.parked", 1);
            });
            return Ok(ResolveStep::WaitingForRing(ring));
        }

        let entry = state.queue.pop_front().expect("checked front");
        // Resolve the rNPF: make the buffer pages resident and mapped.
        // In the real hardware the buffer address comes from the
        // descriptor; the testbeds' ring buffers are a contiguous
        // page-per-slot array starting at RX_BUFFER_BASE in every IOuser
        // space, reused modulo the ring's slot count, so fault the
        // page(s) the packet touches there.
        let buf_addr = VirtAddr(crate::RX_BUFFER_BASE + (target_index % slots) * memsim::PAGE_SIZE);
        let mut ready_at = now;
        let mut cost = COST.backup_resolver_per_packet;
        if !engine.dma_ready(domain, buf_addr, entry.len.max(1), true) {
            if let Some(fid) = engine.pending_fault_covering(domain, buf_addr, entry.len.max(1)) {
                // Another packet already started this fault; wait for it.
                let rec = engine.pending_fault(fid).expect("pending");
                ready_at = ready_at.max(rec.ready_at);
                // The mapping installs when that fault completes; the
                // testbed orders completion before this merge by time.
            } else {
                let rec =
                    engine.begin_fault(now, domain, buf_addr, entry.len.max(1), true, None)?;
                let id = rec.id;
                ready_at = ready_at.max(rec.ready_at);
                engine.complete_fault(id);
            }
        }
        // Copy the packet into the IOuser buffer.
        cost += COST.memcpy(entry.len);
        let placed = rx.place_resolved(ring, target_index, entry.payload.clone(), entry.len);
        assert!(placed, "descriptor checked above");
        let notify = rx.resolve_rnpfs(ring, entry.bit_index);
        self.counters.bump_id(self.merged);
        journal::with(|j| j.mark_at(ready_at + cost, journal::MarkKind::ReplayDrain, entry.len));
        trace::with(|t| {
            let args = vec![
                ("ring", ArgValue::U64(u64::from(ring.0))),
                ("len", ArgValue::U64(entry.len)),
                ("notify_iouser", ArgValue::Bool(notify)),
            ];
            let span = (ready_at + cost).saturating_since(now);
            t.complete_span(now, span, "backup_driver", "merge_back", None, args);
            let depth = self.queued_packets() as f64;
            t.counter(now, "backup_driver", "queue_depth", depth);
            t.metrics_mut().counter_add("backup_driver.merged", 1);
        });
        Ok(ResolveStep::Resolved {
            ring,
            notify_iouser: notify,
            ready_at: ready_at + cost,
        })
    }

    /// The IOuser posted descriptors (tail interrupt fired): unpark the
    /// ring's resolver. Returns `true` when it was parked.
    pub fn on_tail_interrupt(&mut self, ring: RingId) -> bool {
        self.rings
            .get_mut(ring.0 as usize)
            .is_some_and(|r| std::mem::take(&mut r.parked))
    }

    /// `true` when `ring` still has queued packets.
    #[must_use]
    pub fn has_work(&self, ring: RingId) -> bool {
        self.rings
            .get(ring.0 as usize)
            .is_some_and(|r| !r.queue.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::npf::{NpfConfig, NpfEngine};
    use memsim::manager::{MemConfig, MemoryManager};
    use memsim::space::Backing;
    use memsim::types::PageRange;
    use nicsim::rx::{RxDescriptor, RxFaultMode, RxVerdict};
    use simcore::rng::SimRng;
    use simcore::units::ByteSize;

    const R: RingId = RingId(0);

    fn setup() -> (
        NpfEngine,
        RxEngine<&'static str>,
        BackupDriver<&'static str>,
    ) {
        let mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::mib(64),
            ..MemConfig::default()
        });
        let mut engine = NpfEngine::new(NpfConfig::default(), mm, SimRng::new(3));
        let space = engine.memory_mut().create_space();
        // Map the testbed's RX buffer region in the IOuser space.
        let base_vpn = memsim::types::VirtAddr(crate::RX_BUFFER_BASE).vpn();
        let range = PageRange::new(base_vpn, 4096);
        engine
            .memory_mut()
            .mmap_fixed(space, range, Backing::Anonymous)
            .expect("fixed RX buffer mapping");
        let domain = engine.create_channel(space);
        let mut rx = RxEngine::new(RxFaultMode::BackupRing { capacity: 256 });
        rx.create_ring(R, 64, 128);
        let mut driver = BackupDriver::new();
        driver.bind_ring(R, domain, 64);
        (engine, rx, driver)
    }

    fn post(rx: &mut RxEngine<&'static str>, n: u64, start: u64) {
        for i in 0..n {
            rx.post_descriptor(
                R,
                RxDescriptor {
                    addr: VirtAddr(crate::RX_BUFFER_BASE + ((start + i) % 4096) * 4096),
                    capacity: 2048,
                },
            );
        }
    }

    #[test]
    fn faulting_packet_merges_back_in_order() {
        let (mut engine, mut rx, mut driver) = setup();
        post(&mut rx, 4, 0);
        // Cold buffers: the first packet faults into the backup ring.
        let v = rx.recv(R, "p0", 1000, false);
        assert!(matches!(v, RxVerdict::Backup { .. }));
        // Subsequent packet stores fine (pretend present) but stays
        // unannounced.
        rx.recv(R, "p1", 900, true);
        assert_eq!(rx.readable_packets(R), 0);

        let (woken, cost) = driver.on_backup_interrupt(&engine, &mut rx);
        assert_eq!(woken, vec![R]);
        assert!(cost > SimDuration::ZERO);

        let step = driver
            .resolve_step(SimTime::ZERO, &mut engine, &mut rx, R)
            .expect("step");
        let ResolveStep::Resolved {
            ring,
            notify_iouser,
            ready_at,
        } = step
        else {
            panic!("expected resolution, got {step:?}");
        };
        assert_eq!(ring, R);
        assert!(notify_iouser, "head advanced past both packets");
        assert!(ready_at > SimTime::from_micros(100), "fault dominates");
        assert_eq!(rx.readable_packets(R), 2);
        assert_eq!(rx.consume(R), Some(("p0", 1000)));
        assert_eq!(rx.consume(R), Some(("p1", 900)));
    }

    #[test]
    fn missing_descriptor_parks_until_tail_interrupt() {
        let (mut engine, mut rx, mut driver) = setup();
        // No descriptors posted at all: packet goes to backup with a
        // future target.
        let v = rx.recv(R, "p0", 500, true);
        assert!(matches!(v, RxVerdict::Backup { .. }));
        driver.on_backup_interrupt(&engine, &mut rx);
        let step = driver
            .resolve_step(SimTime::ZERO, &mut engine, &mut rx, R)
            .expect("step");
        assert_eq!(step, ResolveStep::WaitingForRing(R));
        assert!(driver.has_work(R));
        // IOuser posts; the tail interrupt unparks the resolver.
        let fired = rx.post_descriptor(
            R,
            RxDescriptor {
                addr: VirtAddr(crate::RX_BUFFER_BASE),
                capacity: 2048,
            },
        );
        assert!(fired);
        assert!(driver.on_tail_interrupt(R));
        let step = driver
            .resolve_step(SimTime::from_micros(10), &mut engine, &mut rx, R)
            .expect("step");
        assert!(matches!(step, ResolveStep::Resolved { .. }));
        assert_eq!(rx.consume(R), Some(("p0", 500)));
    }

    #[test]
    fn idle_ring_reports_idle() {
        let (mut engine, mut rx, mut driver) = setup();
        let step = driver
            .resolve_step(SimTime::ZERO, &mut engine, &mut rx, R)
            .expect("step");
        assert_eq!(step, ResolveStep::Idle);
    }
}
