//! Differential property tests for the translation fast-path data
//! structures: each optimized structure is driven op-for-op against a
//! straightforward map-based reference model, and every observable —
//! return values, counters, contents, and **eviction order** — must
//! match exactly.
//!
//! * [`memsim::dense::PageMap`] vs `BTreeMap` (including the
//!   direct/sparse boundary at 8 GiB of VA),
//! * [`memsim::lru::LruTracker`] (tick stamps until the first order
//!   query, intrusive slab lists after) vs a `VecDeque`-ordered
//!   reference,
//! * huge-page [`iommu::IoPageTable`] (2 MiB folds, promote/demote) vs
//!   a flat 4 KiB-only `BTreeMap` reference,
//! * a huge-enabled [`iommu::Iommu`] vs a 4 KiB-only unit: DMA verdicts
//!   (read and write `probe_range`, and the PTE each page translates
//!   through) must be identical — folding only changes table shape.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use proptest::prelude::*;

use iommu::pagetable::HUGE_PAGES;
use iommu::{IoPageTable, IoPte, Iommu, TableMode};
use memsim::dense::PageMap;
use memsim::lru::LruTracker;
use memsim::types::{FrameId, PageRange, SpaceId, Vpn};

// ---------------------------------------------------------------------
// PageMap vs BTreeMap
// ---------------------------------------------------------------------

/// The direct region covers VPNs below `DIRECT_CHUNKS << LEAF_BITS`
/// (2^21). Bases are chosen so ops land well inside the direct region,
/// straddle the direct/sparse boundary, and live deep in the sparse
/// fallback.
fn page_map_vpn(region: u8, offset: u64) -> Vpn {
    let base = match region % 3 {
        0 => 0,
        1 => (1u64 << 21) - 300,
        _ => 1u64 << 30,
    };
    Vpn(base + offset)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every op on a `PageMap` observes exactly what a `BTreeMap`
    /// observes, and the final iteration orders agree element-for-element.
    #[test]
    fn page_map_matches_btreemap(
        ops in proptest::collection::vec(
            (0u8..5, 0u8..3, 0u64..600, any::<u64>()),
            1..400,
        ),
    ) {
        let mut fast: PageMap<u64> = PageMap::new();
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        for &(op, region, offset, val) in &ops {
            let vpn = page_map_vpn(region, offset);
            match op {
                0 => {
                    prop_assert_eq!(fast.insert(vpn, val), reference.insert(vpn.0, val));
                }
                1 => {
                    prop_assert_eq!(fast.remove(vpn), reference.remove(&vpn.0));
                }
                2 => {
                    prop_assert_eq!(fast.get(vpn).copied(), reference.get(&vpn.0).copied());
                    prop_assert_eq!(fast.contains(vpn), reference.contains_key(&vpn.0));
                }
                3 => {
                    // A batched window scan sees exactly the reference
                    // contents, present and absent, in ascending order.
                    let pages = 1 + (val % 64);
                    let mut seen = Vec::new();
                    fast.scan_range(PageRange::new(vpn, pages), |v, t| {
                        seen.push((v.0, t.copied()));
                    });
                    let expect: Vec<(u64, Option<u64>)> = (vpn.0..vpn.0 + pages)
                        .map(|v| (v, reference.get(&v).copied()))
                        .collect();
                    prop_assert_eq!(seen, expect);
                }
                _ => {
                    let fast_v = *fast.get_mut_or_insert_with(vpn, || val);
                    let ref_v = *reference.entry(vpn.0).or_insert(val);
                    prop_assert_eq!(fast_v, ref_v);
                }
            }
            prop_assert_eq!(fast.len(), reference.len());
        }
        let fast_all: Vec<(u64, u64)> = fast.iter().map(|(v, &t)| (v.0, t)).collect();
        let ref_all: Vec<(u64, u64)> = reference.iter().map(|(&v, &t)| (v, t)).collect();
        prop_assert_eq!(fast_all, ref_all, "iteration order or contents diverged");
    }
}

// ---------------------------------------------------------------------
// LruTracker vs a VecDeque-ordered reference
// ---------------------------------------------------------------------

/// Reference model: recency as literal deque order (oldest first),
/// ticks assigned from the same monotone counter the tracker uses.
#[derive(Default)]
struct RefLru {
    entries: VecDeque<((u32, u64), u64)>,
    tick: u64,
}

impl RefLru {
    fn touch(&mut self, key: (u32, u64)) {
        self.entries.retain(|&(k, _)| k != key);
        self.tick += 1;
        self.entries.push_back((key, self.tick));
    }

    fn remove(&mut self, key: (u32, u64)) -> bool {
        let before = self.entries.len();
        self.entries.retain(|&(k, _)| k != key);
        self.entries.len() != before
    }

    fn pop_oldest(&mut self) -> Option<(u32, u64)> {
        self.entries.pop_front().map(|(k, _)| k)
    }

    fn pop_oldest_in(&mut self, space: u32) -> Option<u64> {
        let i = self.entries.iter().position(|&((s, _), _)| s == space)?;
        self.entries.remove(i).map(|((_, v), _)| v)
    }

    fn oldest_tick(&self) -> Option<u64> {
        self.entries.front().map(|&(_, t)| t)
    }

    fn oldest_tick_in(&self, space: u32) -> Option<u64> {
        self.entries
            .iter()
            .find(|&&((s, _), _)| s == space)
            .map(|&(_, t)| t)
    }

    fn len_in(&self, space: u32) -> usize {
        self.entries
            .iter()
            .filter(|&&((s, _), _)| s == space)
            .count()
    }
}

const LRU_SPACES: u32 = 3;

/// One step of the tracker differential: kinds 0–2 (touch, remove,
/// contains) never ask for an order, kinds 3–6 (the two pops and the
/// two `oldest_tick` queries) do.
fn lru_step(
    fast: &mut LruTracker,
    reference: &mut RefLru,
    (op, s, v): (u8, u32, u64),
) -> Result<(), TestCaseError> {
    let space = SpaceId(s);
    let vpn = Vpn(v);
    match op {
        0 => {
            fast.touch(space, vpn);
            reference.touch((s, v));
        }
        1 => prop_assert_eq!(fast.remove(space, vpn), reference.remove((s, v))),
        2 => {}
        3 => {
            let got = fast.pop_oldest().map(|(sp, vp)| (sp.0, vp.0));
            prop_assert_eq!(
                got,
                reference.pop_oldest(),
                "global eviction order diverged"
            );
        }
        4 => {
            let got = fast.pop_oldest_in(space).map(|vp| vp.0);
            prop_assert_eq!(
                got,
                reference.pop_oldest_in(s),
                "per-space eviction order diverged"
            );
        }
        5 => prop_assert_eq!(fast.oldest_tick(), reference.oldest_tick()),
        _ => prop_assert_eq!(fast.oldest_tick_in(space), reference.oldest_tick_in(s)),
    }
    // What never orders the tracker is compared after every step.
    prop_assert_eq!(
        fast.contains(space, vpn),
        reference.entries.iter().any(|&(k, _)| k == (s, v))
    );
    prop_assert_eq!(fast.len(), reference.entries.len());
    for sp in 0..LRU_SPACES {
        prop_assert_eq!(fast.len_in(SpaceId(sp)), reference.len_in(sp));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tracker pops pages in exactly the reference order, globally
    /// and per space, with identical tick reporting — whichever state it
    /// is in. `unordered` holds only touches, removes and membership
    /// checks, so the tracker stays stamped through a prefix of random
    /// length, with pages in several spaces, removed pages and
    /// re-touched pages in flight; the first order-dependent kind in
    /// `mixed` then crosses the one-way transition at an arbitrary
    /// point, and the rest runs listed (where a re-touch relinks its
    /// node in place).
    ///
    /// Broken on purpose, this fails: a transition that skips a page
    /// whose stamp was cleared and written again (the page is missing
    /// from `len` and from the drain), one that threads the stamps in
    /// `(space, vpn)` order instead of tick order (the first pop or
    /// `oldest_tick` after the prefix disagrees), and an in-place relink
    /// that forgets the per-space list (`pop_oldest_in` disagrees).
    #[test]
    fn lru_tracker_matches_reference(
        unordered in proptest::collection::vec(
            (0u8..3, 0u32..LRU_SPACES, 0u64..48),
            0..300,
        ),
        mixed in proptest::collection::vec(
            (0u8..7, 0u32..LRU_SPACES, 0u64..48),
            1..400,
        ),
    ) {
        let mut fast = LruTracker::new();
        let mut reference = RefLru::default();
        for &step in unordered.iter().chain(&mixed) {
            lru_step(&mut fast, &mut reference, step)?;
        }
        // Drain fully: the complete eviction sequence must agree.
        loop {
            let got = fast.pop_oldest().map(|(sp, vp)| (sp.0, vp.0));
            let want = reference.pop_oldest();
            prop_assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
    }
}

/// The transition with nothing left to order: every page touched is
/// removed again before the first pop. The pop finds nothing, and the
/// tracker — listed from here on — still takes touches.
#[test]
fn lru_tracker_orders_an_emptied_tracker() {
    let mut fast = LruTracker::new();
    let pages: Vec<(SpaceId, Vpn)> = (0..LRU_SPACES)
        .flat_map(|s| (0..700).map(move |v| (SpaceId(s), Vpn(v * 3))))
        .collect();
    for &(s, v) in &pages {
        fast.touch(s, v);
    }
    for &(s, v) in &pages {
        assert!(fast.remove(s, v));
    }
    assert!(fast.is_empty());
    assert_eq!(fast.pop_oldest(), None);
    assert_eq!(fast.pop_oldest_in(SpaceId(1)), None);
    assert_eq!(fast.oldest_tick(), None);

    fast.touch(SpaceId(2), Vpn(9));
    fast.touch(SpaceId(0), Vpn(9));
    fast.touch(SpaceId(2), Vpn(9));
    assert_eq!(fast.len(), 2);
    assert_eq!(fast.len_in(SpaceId(2)), 1);
    assert_eq!(fast.pop_oldest(), Some((SpaceId(0), Vpn(9))));
    assert_eq!(fast.pop_oldest(), Some((SpaceId(2), Vpn(9))));
    assert_eq!(fast.pop_oldest(), None);
}

// ---------------------------------------------------------------------
// Huge-page IoPageTable vs a 4 KiB-only flat reference
// ---------------------------------------------------------------------

/// Chunks the huge-table universe spans: enough to fold several 2 MiB
/// leaves while unmaps split them back.
const HP_CHUNKS: u64 = 3;

/// Contiguous-frame scheme: `vpn`'s "natural" frame. A chunk mapped
/// entirely through this scheme (uniform writability) is fold-eligible.
fn natural_frame(vpn: u64) -> u64 {
    10_000 + vpn
}

/// Scattered-frame scheme: breaks contiguity, so a chunk holding any of
/// these can never fold.
fn scattered_frame(vpn: u64) -> u64 {
    100_000 + vpn * 3
}

/// `true` when the reference says `chunk` satisfies the fold invariant:
/// all 512 siblings present, frames contiguous from the aligned base,
/// uniform writability.
fn ref_chunk_eligible(entries: &BTreeMap<u64, (u64, bool)>, chunk: u64) -> bool {
    let base = chunk * HUGE_PAGES;
    let Some(&(f0, w0)) = entries.get(&base) else {
        return false;
    };
    (1..HUGE_PAGES).all(|i| entries.get(&(base + i)) == Some(&(f0 + i, w0)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A huge-enabled page table is observably a plain 4 KiB table: maps,
    /// unmaps, per-page entries, and probes all match a flat `BTreeMap`
    /// reference exactly, while folding stays an internal transform.
    /// Additionally the fold state itself is pinned: a chunk is folded
    /// *iff* the reference says it is fold-eligible, and
    /// `promotions - demotions` always equals the live fold count.
    #[test]
    fn huge_page_table_matches_flat_reference(
        ops in proptest::collection::vec(
            (0u8..6, 0u64..HP_CHUNKS, 0u64..HUGE_PAGES, 1u64..96, any::<bool>(), any::<bool>()),
            1..160,
        ),
    ) {
        let universe = HP_CHUNKS * HUGE_PAGES;
        let mut fast = IoPageTable::new(iommu::DomainId(0));
        fast.set_huge_pages(true);
        let mut reference: BTreeMap<u64, (u64, bool)> = BTreeMap::new();
        for &(op, chunk, offset, len, flag, contiguous) in &ops {
            let v = chunk * HUGE_PAGES + offset;
            match op {
                0 => {
                    // Single-page map, either frame scheme.
                    let frame = if contiguous { natural_frame(v) } else { scattered_frame(v) };
                    fast.map(Vpn(v), FrameId(frame), flag);
                    reference.insert(v, (frame, flag));
                }
                1 => {
                    // A contiguous run — partial chunk fills that later
                    // maps may complete into a fold.
                    let end = (v + len).min(universe);
                    for p in v..end {
                        fast.map(Vpn(p), FrameId(natural_frame(p)), flag);
                        reference.insert(p, (natural_frame(p), flag));
                    }
                }
                2 => {
                    // Map the whole chunk fold-eligibly: this must always
                    // leave it folded (promotion is deterministic).
                    let base = chunk * HUGE_PAGES;
                    for p in base..base + HUGE_PAGES {
                        fast.map(Vpn(p), FrameId(natural_frame(p)), flag);
                        reference.insert(p, (natural_frame(p), flag));
                    }
                    prop_assert!(fast.is_huge(Vpn(base)), "eligible chunk {} did not fold", chunk);
                }
                3 => {
                    prop_assert_eq!(fast.unmap(Vpn(v)), reference.remove(&v).is_some());
                }
                4 => {
                    let end = (v + len).min(universe);
                    let range = PageRange::new(Vpn(v), end - v);
                    let want = (v..end).filter(|p| reference.remove(p).is_some()).count() as u64;
                    prop_assert_eq!(fast.unmap_range(range), want);
                }
                _ => {
                    // The entry a DMA to `v` would find.
                    let want = reference.get(&v).map(|&(f, w)| IoPte {
                        frame: FrameId(f),
                        writable: w,
                    });
                    prop_assert_eq!(fast.pte(Vpn(v)), want);
                    // Probes are side-effect-free and must agree too.
                    let end = (v + len).min(universe);
                    let range = PageRange::new(Vpn(v), end - v);
                    let want_probe = (v..end).all(|p| {
                        reference.get(&p).is_some_and(|&(_, w)| !flag || w)
                    });
                    prop_assert_eq!(fast.probe_range(range, flag), want_probe);
                }
            }
            prop_assert_eq!(fast.present_pages(), reference.len());
            // Fold state == reference eligibility, chunk by chunk, and the
            // promote/demote counters account for every live fold.
            let mut folded = 0u64;
            for c in 0..HP_CHUNKS {
                let eligible = ref_chunk_eligible(&reference, c);
                prop_assert_eq!(
                    fast.is_huge(Vpn(c * HUGE_PAGES)),
                    eligible,
                    "fold state diverged at chunk {}", c
                );
                folded += u64::from(eligible);
            }
            prop_assert_eq!(fast.promotions() - fast.demotions(), folded);
        }
        // Full synthesized-PTE sweep: folded chunks must serve per-page
        // translations identical to the flat reference.
        for v in 0..universe {
            let got = fast.pte(Vpn(v)).map(|p| (p.frame.0, p.writable));
            prop_assert_eq!(got, reference.get(&v).copied(), "PTE sweep diverged at vpn {}", v);
        }
    }
}

// ---------------------------------------------------------------------
// Huge-enabled Iommu vs a 4 KiB-only unit: identical DMA verdicts
// ---------------------------------------------------------------------

/// What the device sees for one page: whether a read and a write DMA
/// would proceed, and the PTE the page translates through.
fn dma_verdict(unit: &Iommu, domain: iommu::DomainId, vpn: u64) -> (bool, bool, Option<IoPte>) {
    let one = PageRange::new(Vpn(vpn), 1);
    (
        unit.probe_range(domain, one, false),
        unit.probe_range(domain, one, true),
        unit.table(domain).pte(Vpn(vpn)),
    )
}

const UNIT_CHUNKS: u64 = 2;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Folding is translation-transparent end to end: a huge-enabled
    /// IOMMU returns exactly the DMA verdicts of a 4 KiB-only unit under
    /// any interleaving of maps, batched maps, invalidations, and
    /// probes. Only the fold counters may differ.
    #[test]
    fn huge_iommu_matches_plain_iommu_verdicts(
        ops in proptest::collection::vec(
            (0u8..5, 0u64..UNIT_CHUNKS, 0u64..HUGE_PAGES, 1u64..600, any::<bool>(), any::<bool>()),
            1..120,
        ),
    ) {
        let universe = UNIT_CHUNKS * HUGE_PAGES;
        let mut huge = Iommu::new(256);
        huge.set_huge_pages(true);
        let mut plain = Iommu::new(256);
        let dh = huge.create_domain(TableMode::PageFaultCapable);
        let dp = plain.create_domain(TableMode::PageFaultCapable);
        for &(op, chunk, offset, len, flag, contiguous) in &ops {
            let v = chunk * HUGE_PAGES + offset;
            match op {
                0 => {
                    let frame = if contiguous { natural_frame(v) } else { scattered_frame(v) };
                    huge.map(dh, Vpn(v), FrameId(frame), flag);
                    plain.map(dp, Vpn(v), FrameId(frame), flag);
                }
                1 => {
                    // Batched contiguous map — the fold-triggering path.
                    let end = (v + len).min(universe);
                    let mappings: Vec<(Vpn, FrameId)> =
                        (v..end).map(|p| (Vpn(p), FrameId(natural_frame(p)))).collect();
                    huge.map_batch(dh, &mappings, flag);
                    plain.map_batch(dp, &mappings, flag);
                }
                2 => {
                    prop_assert_eq!(huge.invalidate(dh, Vpn(v)), plain.invalidate(dp, Vpn(v)));
                }
                3 => {
                    let end = (v + len).min(universe);
                    let range = PageRange::new(Vpn(v), end - v);
                    prop_assert_eq!(huge.invalidate_range(dh, range), plain.invalidate_range(dp, range));
                }
                _ => {
                    let end = (v + len).min(universe);
                    let range = PageRange::new(Vpn(v), end - v);
                    prop_assert_eq!(
                        huge.probe_range(dh, range, flag),
                        plain.probe_range(dp, range, flag)
                    );
                }
            }
            // Per-page sweep of the op's chunk: presence, permissions
            // and frames must agree page-for-page right away.
            let base = chunk * HUGE_PAGES;
            for p in base..base + HUGE_PAGES {
                prop_assert_eq!(
                    dma_verdict(&huge, dh, p),
                    dma_verdict(&plain, dp, p),
                    "DMA verdict diverged at vpn {}", p
                );
            }
        }
        // Closing sweep over the whole universe, plus the fold ledger:
        // promotions minus demotions is the live fold count.
        let (promos, demos) = huge.huge_stats();
        prop_assert!(promos >= demos);
        for p in 0..universe {
            prop_assert_eq!(dma_verdict(&huge, dh, p), dma_verdict(&plain, dp, p));
        }
        let (p2, d2) = plain.huge_stats();
        prop_assert_eq!((p2, d2), (0, 0), "huge-disabled unit must never fold");
    }
}
