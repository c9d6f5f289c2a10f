//! The speculation policy of the NPF pipeline: a per-channel stride
//! detector that predicts the next window a fault stream will touch,
//! and the accounting of how many speculatively mapped pages DMA went
//! on to use.
//!
//! The prefetcher only *predicts* ([`StridePrefetcher::observe`]); the
//! engine raises the speculative fault through the same pipeline as a
//! demand fault and reports back what it mapped
//! ([`StridePrefetcher::note_mapped`]), what DMA probed
//! ([`StridePrefetcher::note_probe`]) and what reclaim revoked
//! ([`StridePrefetcher::forget`]).

use std::cell::{Cell, RefCell};
use std::collections::HashSet;

use iommu::DomainId;
use memsim::types::{PageRange, Vpn};
use memsim::FrameId;
use simcore::stats::{CounterId, Counters};
use simcore::time::SimTime;
use simcore::trace;

use crate::dense_slot;

/// Per-channel stride detector state.
#[derive(Debug, Clone, Copy, Default)]
struct StrideStream {
    /// Whether `last_start` holds a real observation yet.
    primed: bool,
    /// Start page of the previous demand fault on this channel.
    last_start: u64,
    /// Last observed start-to-start stride in pages.
    stride: i64,
    /// Consecutive faults that repeated `stride`.
    streak: u32,
}

/// Strides this large stop looking like a stream and are not prefetched.
const MAX_PREFETCH_STRIDE: i64 = 64;

/// Stride prefetcher: one detector per channel plus prefetch-accuracy
/// accounting.
#[derive(Debug)]
pub(crate) struct StridePrefetcher {
    /// Window size in pages ([`crate::npf::NpfConfig::prefetch_depth`];
    /// 0 disables).
    depth: u32,
    /// Detector state per dense domain id.
    streams: Vec<StrideStream>,
    /// Outbox: `(id, ready_at)` of the speculative faults the engine
    /// raised since the testbed last drained it to schedule their
    /// completion events.
    pub(crate) spawned: Vec<(u64, SimTime)>,
    /// Pages mapped by completed speculative faults and not yet touched
    /// by DMA, keyed `(domain, vpn)`. Interior mutability because hit
    /// detection happens inside the read-only `dma_ready` probe; only
    /// membership is ever queried, so iteration order cannot leak.
    mapped: RefCell<HashSet<(u32, u64)>>,
    /// Hits observed by `note_probe` awaiting transfer into the
    /// counters.
    hits_pending: Cell<u64>,
    hits_id: CounterId,
}

impl StridePrefetcher {
    /// A prefetcher of `depth`-page windows, registering its hit
    /// counter in `counters` — the set `sync_hits` must be handed.
    pub(crate) fn new(depth: u32, counters: &mut Counters) -> Self {
        StridePrefetcher {
            depth,
            streams: Vec::new(),
            spawned: Vec::new(),
            mapped: RefCell::new(HashSet::new()),
            hits_pending: Cell::new(0),
            hits_id: counters.register("prefetch_hits"),
        }
    }

    /// Trains `domain`'s detector on a demand fault over `range` and,
    /// once a stream is established, predicts the next window to
    /// pre-fault.
    pub(crate) fn observe(&mut self, domain: DomainId, range: PageRange) -> Option<PageRange> {
        if self.depth == 0 {
            return None;
        }
        let s = dense_slot(&mut self.streams, domain);
        let stride = range.start.0 as i64 - s.last_start as i64;
        // A trained stream keeps its streak when the observed stride is
        // a multiple of the base stride: our own prefetches absorb
        // intermediate windows, so the next *demand* fault lands several
        // strides ahead. That gap is continuation, not a new pattern.
        let continuation = s.primed
            && stride > 0
            && stride <= MAX_PREFETCH_STRIDE
            && (stride == s.stride || (s.streak >= 2 && s.stride > 0 && stride % s.stride == 0));
        if continuation {
            s.streak += 1;
        } else {
            s.stride = stride;
            s.streak = 0;
        }
        s.last_start = range.start.0;
        s.primed = true;
        if s.streak < 2 {
            return None;
        }
        // Predicted next window: one stride ahead, but never inside the
        // range the demand fault just resolved.
        let stride = s.stride as u64;
        let first = (range.start.0 + stride).max(range.start.0 + range.pages);
        Some(PageRange::new(Vpn(first), u64::from(self.depth)))
    }

    /// A completed speculative fault mapped `pages` for `domain`.
    pub(crate) fn note_mapped(&mut self, domain: DomainId, pages: &[(Vpn, FrameId)]) {
        let set = self.mapped.get_mut();
        for &(vpn, _) in pages {
            set.insert((domain.0, vpn.0));
        }
    }

    /// A DMA probe of `range` succeeded: every page of it a speculative
    /// fault mapped is a hit, counted once (the page leaves the set).
    /// `&self` because probes are read-only to the simulation; costs
    /// one emptiness test when nothing was ever prefetched.
    pub(crate) fn note_probe(&self, domain: DomainId, range: PageRange) {
        let mut set = self.mapped.borrow_mut();
        if set.is_empty() {
            return;
        }
        let mut hits = 0;
        for vpn in range.iter() {
            if set.remove(&(domain.0, vpn.0)) {
                hits += 1;
            }
        }
        if hits > 0 {
            self.hits_pending.set(self.hits_pending.get() + hits);
        }
    }

    /// A revoked page can no longer be a prefetch hit.
    pub(crate) fn forget(&mut self, domain: DomainId, vpn: Vpn) {
        self.mapped.get_mut().remove(&(domain.0, vpn.0));
    }

    /// Moves the hits observed by the read-only probe into `counters`
    /// (called on the engine's mutating paths, so its counters are up
    /// to date whenever the simulation can observe them).
    pub(crate) fn sync_hits(&mut self, counters: &mut Counters) {
        let hits = self.hits_pending.take();
        if hits > 0 {
            counters.add_id(self.hits_id, hits);
            trace::with(|t| {
                t.metrics_mut().counter_add("npf.prefetch_hits", hits);
            });
        }
    }
}

#[cfg(test)]
/// What a speculative fault may *not* do that a demand fault must: the
/// three places where the shared pipeline branches on its origin, and
/// the journal shape that follows from skipping admission.
mod tests {
    use iommu::DomainId;
    use memsim::manager::{MemConfig, MemoryManager};
    use memsim::space::Backing;
    use memsim::types::{PageRange, SpaceId, Vpn};
    use simcore::instruments::Instruments;
    use simcore::journal::{FaultJournal, JournalRecorder, Phase};
    use simcore::rng::SimRng;
    use simcore::time::{SimDuration, SimTime};
    use simcore::units::ByteSize;

    use crate::npf::{NpfConfig, NpfEngine};

    const PAGE: u64 = 4096;

    /// An engine prefetching `depth`-page windows over one channel whose
    /// VMA is pages `0..vma_pages`, on a host of `frames` frames.
    fn engine(depth: u32, vma_pages: u64, frames: u64) -> (NpfEngine, SpaceId, DomainId) {
        let mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::bytes_exact(frames * PAGE),
            ..MemConfig::default()
        });
        let config = NpfConfig::default().with_prefetch_depth(depth);
        let mut e = NpfEngine::new(config, mm, SimRng::new(1));
        let space = e.memory_mut().create_space();
        e.memory_mut()
            .mmap_fixed(space, PageRange::new(Vpn(0), vma_pages), Backing::Anonymous)
            .expect("mmap");
        let domain = e.create_channel(space);
        (e, space, domain)
    }

    /// Four 4-page write faults at pages 0, 4, 8, 12, each completed
    /// before the next: the fourth confirms the stride, so it is the
    /// one that speculates — on the window starting at page 16.
    /// `before_each` runs ahead of every fault. Returns the time of the
    /// fourth fault and the speculative faults it spawned.
    fn train(
        e: &mut NpfEngine,
        d: DomainId,
        mut before_each: impl FnMut(&mut NpfEngine, PageRange),
    ) -> (SimTime, Vec<(u64, SimTime)>) {
        let mut now = SimTime::ZERO;
        for i in 0..4u64 {
            assert!(e.drain_spawned_prefetches().is_empty(), "speculated early");
            now += SimDuration::from_millis(1);
            let range = PageRange::new(Vpn(i * 4), 4);
            before_each(e, range);
            let rec = e
                .begin_fault(now, d, range.start.base(), 4 * PAGE, true, None)
                .expect("speculation must never fail the demand fault")
                .clone();
            e.complete_fault(rec.id);
        }
        (now, e.drain_spawned_prefetches())
    }

    #[test]
    fn window_past_the_vma_maps_the_covered_prefix() {
        // The VMA ends at page 24; the predicted window is 16..32.
        let (mut e, _s, d) = engine(16, 24, 1024);
        let (_, spawned) = train(&mut e, d, |_, _| {});
        let [(id, _)] = spawned[..] else {
            panic!("one speculative fault, got {spawned:?}");
        };
        assert_eq!(e.counters().get("prefetch_pages"), 8);
        let rec = e.complete_fault(id);
        assert!(rec.speculative);
        assert_eq!(rec.range, PageRange::new(Vpn(16), 16), "nominal window");
        assert!(e.dma_ready(d, Vpn(16).base(), 8 * PAGE, true));
        assert!(!e.dma_ready(d, Vpn(24).base(), 1, true));
    }

    /// Pins every page a demand fault is about to touch, so that by the
    /// fourth fault nothing is reclaimable and the only frames
    /// speculation can use are the ones the host has beyond those 16.
    fn pin_ahead(space: SpaceId) -> impl FnMut(&mut NpfEngine, PageRange) {
        move |e, range| {
            e.memory_mut().pin_range(space, range).expect("pin");
        }
    }

    #[test]
    fn speculation_on_a_full_host_keeps_what_it_got() {
        // The first three pages of the window 16..24 are resident (and
        // pinned, so page 19 cannot evict them); the host has no frame
        // for the fourth.
        let (mut e, s, d) = engine(8, 64, 16 + 3);
        e.memory_mut()
            .pin_range(s, PageRange::new(Vpn(16), 3))
            .expect("pin");
        let (_, spawned) = train(&mut e, d, pin_ahead(s));
        let [(id, _)] = spawned[..] else {
            panic!("one speculative fault, got {spawned:?}");
        };
        assert_eq!(e.counters().get("prefetch_pages"), 3);
        e.complete_fault(id);
        assert!(e.dma_ready(d, Vpn(16).base(), 3 * PAGE, true));
        assert!(!e.dma_ready(d, Vpn(19).base(), 1, true));
    }

    #[test]
    fn speculation_that_gets_nothing_raises_no_fault() {
        let (mut e, s, d) = engine(8, 64, 16);
        let (_, spawned) = train(&mut e, d, pin_ahead(s));
        assert!(spawned.is_empty());
        assert_eq!(e.pending_count(), 0);
        assert_eq!(e.counters().get("prefetch_issued"), 0);
        assert_eq!(e.counters().get("npf_events"), 4);
    }

    #[test]
    fn speculative_journal_chain_is_the_plan_slices_alone() {
        let (mut e, _s, d) = engine(8, 64, 1024);
        let journaling = Instruments {
            journal: Some(JournalRecorder::new()),
            ..Instruments::default()
        };
        assert!(journaling.install().is_empty());
        let (now, spawned) = train(&mut e, d, |_, _| {});
        let recorder = Instruments::take().journal.expect("installed above");
        let [(_, ready_at)] = spawned[..] else {
            panic!("one speculative fault, got {spawned:?}");
        };
        // Raised after the fourth demand fault, so journalled last.
        let [.., demand, spec] = recorder.faults() else {
            panic!("four demand faults and a speculative one");
        };
        assert_eq!((spec.begun, spec.ready_at), (now, ready_at));
        assert_eq!(spec.phases[0].phase, Phase::Prefetch);
        let waits = [
            Phase::QueueWait,
            Phase::ArbWait,
            Phase::BounceWait,
            Phase::ChaosExtra,
        ];
        for wait in waits {
            let holds = |f: &FaultJournal| f.phases.iter().any(|p| p.phase == wait);
            assert!(
                holds(demand),
                "a demand chain records {wait:?}, even at zero width"
            );
            assert!(!holds(spec), "a speculative chain has no {wait:?} slice");
        }
        let mut at = now;
        for slice in &spec.phases {
            assert_eq!(slice.start, at, "slices tile without gaps");
            at += slice.duration;
        }
        assert_eq!(at, ready_at);
    }
}
