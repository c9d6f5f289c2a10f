//! Differential test of [`NpfEngine`]'s per-domain pending-fault index
//! against the linear scan it replaced.
//!
//! `pending_fault_covering` used to walk every tenant's pending faults
//! in id order and return the first one of the right domain that
//! overlaps; it now walks that domain's own list. The reference keeps
//! every pending `(id, domain, range)` in one id-ordered vector and
//! scans it the old way. Interleaved demand faults (overlapping ones
//! included), stride streams that make the engine spawn speculative
//! pre-faults, and completions in arbitrary order, across four
//! domains, must leave both with the same answer to every probe —
//! "lowest covering id" — after every step.

use iommu::DomainId;
use memsim::manager::{MemConfig, MemoryManager};
use memsim::space::Backing;
use memsim::types::{PageRange, Vpn};
use npf_core::{NpfConfig, NpfEngine};
use proptest::prelude::*;
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};
use simcore::units::ByteSize;

const DOMAINS: usize = 4;
const PAGES: u64 = 256;
const PAGE: u64 = memsim::PAGE_SIZE;

/// The pending faults, in id order, scanned linearly.
#[derive(Default)]
struct Model {
    pending: Vec<(u64, DomainId, PageRange)>,
}

impl Model {
    fn add(&mut self, id: u64, domain: DomainId, range: PageRange) {
        let at = self.pending.partition_point(|&(other, _, _)| other < id);
        self.pending.insert(at, (id, domain, range));
    }

    fn covering(&self, domain: DomainId, range: PageRange) -> Option<u64> {
        self.pending
            .iter()
            .find(|&&(_, d, r)| d == domain && r.overlaps(range))
            .map(|&(id, _, _)| id)
    }
}

/// Raises a demand fault and records it, and any speculative fault the
/// engine spawned behind it, in the model.
fn begin(
    engine: &mut NpfEngine,
    model: &mut Model,
    now: SimTime,
    domain: DomainId,
    range: PageRange,
) {
    let rec = engine
        .begin_fault(
            now,
            domain,
            range.start.base(),
            range.pages * PAGE,
            true,
            None,
        )
        .expect("the range is mapped and memory is plentiful");
    model.add(rec.id, rec.domain, rec.range);
    for (id, _) in engine.drain_spawned_prefetches() {
        let spawned = engine
            .pending_fault(id)
            .expect("a spawned fault is pending");
        assert!(spawned.speculative);
        model.add(id, spawned.domain, spawned.range);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn per_domain_index_matches_linear_scan(
        ops in proptest::collection::vec((0u8..16, any::<u64>(), any::<u64>()), 1..200),
    ) {
        let mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::mib(64),
            ..MemConfig::default()
        });
        let config = NpfConfig::default().with_prefetch_depth(4);
        let mut engine = NpfEngine::new(config, mm, SimRng::new(1));
        let mut channels = Vec::new();
        for _ in 0..DOMAINS {
            let space = engine.memory_mut().create_space();
            let range = engine
                .memory_mut()
                .mmap(space, ByteSize::bytes_exact(PAGES * PAGE), Backing::Anonymous)
                .expect("mmap");
            channels.push((engine.create_channel(space), range.start));
        }
        let mut model = Model::default();
        // One sequential stream per domain, for the stride detector.
        let mut cursors = [0u64; DOMAINS];
        let mut now = SimTime::ZERO;
        // Train every channel's stream first, so speculative faults are
        // in the mix from the start.
        for _ in 0..4 {
            for (which, &(domain, base)) in channels.iter().enumerate() {
                let first = cursors[which];
                cursors[which] = first + 2;
                begin(&mut engine, &mut model, now, domain, PageRange::new(Vpn(base.0 + first), 1));
            }
        }
        prop_assert!(model.pending.len() > 4 * DOMAINS, "no speculative fault was spawned");
        for (op, a, b) in ops {
            now += SimDuration::from_micros(a % 50);
            let which = (a % DOMAINS as u64) as usize;
            let (domain, base) = channels[which];
            match op {
                // A demand fault anywhere in the channel's buffer,
                // overlapping earlier ones or not.
                0..=4 => {
                    let first = b % PAGES;
                    let pages = (1 + (b >> 8) % 4).min(PAGES - first);
                    begin(&mut engine, &mut model, now, domain, PageRange::new(Vpn(base.0 + first), pages));
                }
                // The channel's stream advances by a fixed stride: after
                // three of these the engine pre-faults ahead of it.
                5..=8 => {
                    let first = cursors[which] % (PAGES - 8);
                    cursors[which] = first + 2;
                    begin(&mut engine, &mut model, now, domain, PageRange::new(Vpn(base.0 + first), 1));
                }
                // Some pending fault completes: oldest, newest or any.
                9..=13 if !model.pending.is_empty() => {
                    let at = match b % 3 {
                        0 => 0,
                        1 => model.pending.len() - 1,
                        _ => (b >> 2) as usize % model.pending.len(),
                    };
                    let (id, domain, range) = model.pending.remove(at);
                    let done = engine.complete_fault(id);
                    prop_assert_eq!((done.id, done.domain, done.range), (id, domain, range));
                }
                _ => {}
            }
            prop_assert_eq!(engine.pending_count(), model.pending.len());
            // Probe every domain: single pages across the buffer and a
            // wider range, so hits, misses and multi-fault overlaps all
            // occur.
            for &(domain, base) in &channels {
                for probe in [b % PAGES, (b >> 16) % PAGES, cursors[which] % PAGES] {
                    let vpn = Vpn(base.0 + probe);
                    prop_assert_eq!(
                        engine.pending_fault_covering(domain, vpn.base(), PAGE),
                        model.covering(domain, PageRange::new(vpn, 1))
                    );
                }
                let wide = PageRange::new(Vpn(base.0 + (b >> 24) % (PAGES - 16)), 16);
                prop_assert_eq!(
                    engine.pending_fault_covering(domain, wide.start.base(), 16 * PAGE),
                    model.covering(domain, wide)
                );
            }
        }
        // Drain: every fault unlinks, and nothing covers anything.
        for (id, _, _) in model.pending.drain(..) {
            engine.complete_fault(id);
        }
        prop_assert_eq!(engine.pending_count(), 0);
        for &(domain, base) in &channels {
            prop_assert_eq!(engine.pending_fault_covering(domain, base.base(), PAGES * PAGE), None);
        }
    }
}
