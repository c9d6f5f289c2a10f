//! The IOMMU proper: translation domains and their I/O page tables.
//!
//! This is the functional equivalent of the Connect-IB's on-NIC IOMMU
//! (the paper uses it in place of ATS/PRI, §4 "Basic NPF Support"), and
//! also stands in for a platform IOMMU for the Ethernet prototype.
//!
//! The device translates one way: [`Iommu::probe_range`] reads the page
//! table, and the table is the only translation state. What the paper's
//! figures depend on is that a PTE may be non-present and that an
//! invalidation has a price (Fig. 2 a–d, Fig. 3b); the price lives in
//! `npf_core::cost`, not here. There is no translation cache and no
//! page-request queue: `npf_core::NpfEngine::dma_ready` probes, and on a
//! miss the engine itself raises the NPF with the complete fault set.

use memsim::types::{FrameId, PageRange, Vpn};
use simcore::chaos::invariant;
use simcore::journal;
use simcore::trace;

use crate::pagetable::{DomainId, IoPageTable, TableMode, HUGE_PAGES};

/// The I/O memory management unit.
#[derive(Debug)]
pub struct Iommu {
    /// Indexed by `DomainId.0`; ids are handed out densely below.
    tables: Vec<IoPageTable>,
    /// Invariant-note namespace: distinguishes this unit's domain and
    /// frame ids from other nodes' units inside one global checker.
    chaos_ns: u64,
    /// 2 MiB PTE folding, applied to every table present and future.
    huge_enabled: bool,
}

// Residue of the deleted translation cache, kept only because the frozen
// `benchmark/` still names it: the ignored `Iommu::new` argument,
// `Iommu::tlb()` with its always-zero `TlbStats`, and the inert
// `npf_core::NpfConfig::iotlb_entries` field. All three go in the
// `benchmark/` refresh (ROADMAP "One current description").
/// Lookup tallies of a translation cache the unit no longer has.
#[derive(Debug, Clone, Copy)]
pub struct TlbStats;

impl TlbStats {
    /// Always 0: no bed ever looked a translation up.
    #[must_use]
    pub fn hits(&self) -> u64 {
        0
    }

    /// Always 0: no bed ever looked a translation up.
    #[must_use]
    pub fn misses(&self) -> u64 {
        0
    }
}

impl Iommu {
    /// Creates an IOMMU with no domains. The argument is ignored.
    #[must_use]
    pub fn new(_tlb_entries: usize) -> Self {
        Iommu {
            tables: Vec::new(),
            chaos_ns: 0,
            huge_enabled: false,
        }
    }

    /// Always-zero lookup tallies.
    #[must_use]
    pub fn tlb(&self) -> TlbStats {
        TlbStats
    }
}

impl Iommu {
    /// Enables (or disables) 2 MiB huge-page folding on every domain,
    /// present and future. Disabling splits existing folds.
    pub fn set_huge_pages(&mut self, enabled: bool) {
        self.huge_enabled = enabled;
        for t in &mut self.tables {
            t.set_huge_pages(enabled);
        }
    }

    /// `(promotions, demotions)` summed over every live domain.
    #[must_use]
    pub fn huge_stats(&self) -> (u64, u64) {
        self.tables
            .iter()
            .fold((0, 0), |(p, d), t| (p + t.promotions(), d + t.demotions()))
    }

    /// Sets the invariant-note namespace (see `invariant::fresh_namespace`).
    pub fn set_chaos_namespace(&mut self, ns: u64) {
        self.chaos_ns = ns;
    }

    /// Creates a new translation domain. The argument is always
    /// `TableMode::PageFaultCapable`.
    pub fn create_domain(&mut self, _mode: TableMode) -> DomainId {
        let id = DomainId(u32::try_from(self.tables.len()).expect("domain ids fit in u32"));
        let mut table = IoPageTable::new(id);
        table.set_huge_pages(self.huge_enabled);
        self.tables.push(table);
        id
    }

    /// The page table of `domain`.
    ///
    /// # Panics
    ///
    /// Panics for unknown domains (a wiring bug, not a runtime error).
    #[must_use]
    pub fn table(&self, domain: DomainId) -> &IoPageTable {
        self.tables
            .get(domain.0 as usize)
            .expect("unknown IOMMU domain")
    }

    fn table_mut(&mut self, domain: DomainId) -> &mut IoPageTable {
        self.tables
            .get_mut(domain.0 as usize)
            .expect("unknown IOMMU domain")
    }

    /// Whether a DMA to every page of `range` would succeed, in one
    /// pass over the table and without side effects: the
    /// `is_descriptor_present` check of Figure 6 and the only way the
    /// device translates.
    #[must_use]
    pub fn probe_range(&self, domain: DomainId, range: PageRange, write: bool) -> bool {
        self.tables
            .get(domain.0 as usize)
            .is_some_and(|t| t.probe_range(range, write))
    }

    /// Installs a mapping (driver resolving a fault, Figure 2 step 4).
    pub fn map(&mut self, domain: DomainId, vpn: Vpn, frame: FrameId, writable: bool) {
        let chaos_ns = self.chaos_ns;
        install(self.table_mut(domain), chaos_ns, vpn, frame, writable);
    }

    /// Installs a run of mappings. Used by the batched resolution path.
    pub fn map_batch(&mut self, domain: DomainId, mappings: &[(Vpn, FrameId)], writable: bool) {
        let chaos_ns = self.chaos_ns;
        let table = self.table_mut(domain);
        for &(vpn, frame) in mappings {
            install(table, chaos_ns, vpn, frame, writable);
        }
    }

    /// Invalidates one page: removes the PTE. Returns `true` when the
    /// page was mapped (the paper's invalidation flow short-circuits
    /// when it was not, Figure 3b).
    pub fn invalidate(&mut self, domain: DomainId, vpn: Vpn) -> bool {
        let key = (self.chaos_ns << 32) | u64::from(domain.0);
        invariant::with(|c| c.note_frame_unmapped(key, vpn.0));
        let table = self.table_mut(domain);
        let demotions_before = table.demotions();
        let was_mapped = table.unmap(vpn);
        if table.demotions() > demotions_before {
            let chunk = vpn.0 & !(HUGE_PAGES - 1);
            journal::with(|j| j.mark(journal::MarkKind::HugeDemote, chunk));
        }
        trace::with(|t| {
            let m = t.metrics_mut();
            m.counter_add("iommu.invalidations", 1);
            if was_mapped {
                m.counter_add("iommu.invalidations_mapped", 1);
            }
        });
        was_mapped
    }

    /// Invalidates a range, returning how many pages were actually
    /// mapped.
    pub fn invalidate_range(&mut self, domain: DomainId, range: PageRange) -> u64 {
        let key = (self.chaos_ns << 32) | u64::from(domain.0);
        invariant::with(|c| {
            for vpn in range.iter() {
                c.note_frame_unmapped(key, vpn.0);
            }
        });
        let table = self.table_mut(domain);
        let demotions_before = table.demotions();
        let mapped = table.unmap_range(range);
        if table.demotions() > demotions_before {
            let chunk = range.start.0 & !(HUGE_PAGES - 1);
            journal::with(|j| j.mark(journal::MarkKind::HugeDemote, chunk));
        }
        trace::with(|t| {
            let m = t.metrics_mut();
            m.counter_add("iommu.invalidations", range.pages);
            m.counter_add("iommu.invalidations_mapped", mapped);
        });
        mapped
    }
}

/// Installs one PTE, journalling the fold when the map completes a
/// 2 MiB chunk. The mark follows `IoPageTable::promotions`, so an
/// identical re-map of a page in an already folded chunk marks nothing.
fn install(table: &mut IoPageTable, chaos_ns: u64, vpn: Vpn, frame: FrameId, writable: bool) {
    let key = (chaos_ns << 32) | u64::from(table.domain().0);
    invariant::with(|c| c.note_frame_mapped(key, vpn.0, (chaos_ns << 40) | frame.0));
    let promotions_before = table.promotions();
    table.map(vpn, frame, writable);
    if table.promotions() > promotions_before {
        let chunk = vpn.0 & !(HUGE_PAGES - 1);
        journal::with(|j| j.mark(journal::MarkKind::HugePromote, chunk));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagetable::IoPte;
    use simcore::instruments::Instruments;
    use simcore::journal::MarkKind;

    fn odp_iommu() -> (Iommu, DomainId) {
        let mut mmu = Iommu::new(64);
        let d = mmu.create_domain(TableMode::PageFaultCapable);
        (mmu, d)
    }

    fn probe(mmu: &Iommu, d: DomainId, vpn: u64, write: bool) -> bool {
        mmu.probe_range(d, PageRange::new(Vpn(vpn), 1), write)
    }

    fn pte(frame: u64, writable: bool) -> Option<IoPte> {
        Some(IoPte {
            frame: FrameId(frame),
            writable,
        })
    }

    /// What the device sees for one page: `(read ok, write ok, PTE)`.
    fn verdict(mmu: &Iommu, d: DomainId, vpn: u64) -> (bool, bool, Option<IoPte>) {
        (
            probe(mmu, d, vpn, false),
            probe(mmu, d, vpn, true),
            mmu.table(d).pte(Vpn(vpn)),
        )
    }

    fn chunk(base: u64, frame0: u64) -> Vec<(Vpn, FrameId)> {
        (0..HUGE_PAGES)
            .map(|i| (Vpn(base + i), FrameId(frame0 + i)))
            .collect()
    }

    #[test]
    fn invalidate_removes_the_translation() {
        let (mut mmu, d) = odp_iommu();
        mmu.map(d, Vpn(1), FrameId(10), true);
        assert!(probe(&mmu, d, 1, true));
        assert!(mmu.invalidate(d, Vpn(1)));
        assert_eq!(verdict(&mmu, d, 1), (false, false, None));
    }

    #[test]
    fn invalidate_unmapped_is_cheap_noop() {
        let (mut mmu, d) = odp_iommu();
        assert!(!mmu.invalidate(d, Vpn(77)));
    }

    #[test]
    fn probe_range_reports_presence_and_permission() {
        let (mut mmu, d) = odp_iommu();
        assert!(!probe(&mmu, d, 1, false));
        mmu.map(d, Vpn(1), FrameId(1), false);
        assert!(probe(&mmu, d, 1, false));
        assert!(!probe(&mmu, d, 1, true), "read-only blocks writes");
        assert!(!mmu.probe_range(d, PageRange::new(Vpn(0), 2), false));
    }

    #[test]
    fn map_batch_installs_all() {
        let (mut mmu, d) = odp_iommu();
        let mappings: Vec<(Vpn, FrameId)> = (0..8).map(|i| (Vpn(i), FrameId(100 + i))).collect();
        mmu.map_batch(d, &mappings, true);
        assert!(mmu.probe_range(d, PageRange::new(Vpn(0), 8), true));
    }

    #[test]
    fn domains_translate_independently() {
        let mut mmu = Iommu::new(16);
        let d0 = mmu.create_domain(TableMode::PageFaultCapable);
        let d1 = mmu.create_domain(TableMode::PageFaultCapable);
        mmu.map(d0, Vpn(1), FrameId(1), true);
        assert_eq!(verdict(&mmu, d0, 1), (true, true, pte(1, true)));
        assert_eq!(verdict(&mmu, d1, 1), (false, false, None));
    }

    #[test]
    fn huge_mode_folds_batches_and_survives_partial_invalidation() {
        let mut mmu = Iommu::new(64);
        mmu.set_huge_pages(true);
        let d = mmu.create_domain(TableMode::PageFaultCapable);
        mmu.map_batch(d, &chunk(512, 9000), true);
        assert_eq!(mmu.table(d).huge_ptes(), 1, "batch folded the chunk");
        assert_eq!(mmu.huge_stats(), (1, 0));
        // A DMA anywhere in the chunk translates through the fold.
        assert_eq!(verdict(&mmu, d, 700), (true, true, pte(9188, true)));
        assert!(mmu.probe_range(d, PageRange::new(Vpn(512), 64), true));
        // Partial invalidation demotes the fold and unmaps only its page.
        assert!(mmu.invalidate(d, Vpn(600)));
        assert_eq!(mmu.table(d).huge_ptes(), 0);
        assert_eq!(mmu.huge_stats(), (1, 1));
        assert_eq!(verdict(&mmu, d, 600), (false, false, None));
        assert_eq!(verdict(&mmu, d, 601), (true, true, pte(9089, true)));
    }

    #[test]
    fn huge_mode_is_translation_equivalent_to_small_pages() {
        // The differential property in miniature: same op sequence, one
        // unit folding, one not — every verdict must agree.
        let run = |huge: bool| {
            let mut mmu = Iommu::new(64);
            mmu.set_huge_pages(huge);
            let d = mmu.create_domain(TableMode::PageFaultCapable);
            mmu.map_batch(d, &chunk(512, 9000), true);
            let mut out = Vec::new();
            for vpn in [512u64, 700, 1023, 1024] {
                out.push(verdict(&mmu, d, vpn));
            }
            mmu.invalidate(d, Vpn(700));
            for vpn in [700u64, 701, 512] {
                out.push(verdict(&mmu, d, vpn));
            }
            let head = mmu.probe_range(d, PageRange::new(Vpn(512), 8), true);
            let hole = mmu.probe_range(d, PageRange::new(Vpn(696), 8), false);
            (out, head, hole)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn remap_replaces_the_translation() {
        let (mut mmu, d) = odp_iommu();
        mmu.map(d, Vpn(1), FrameId(10), true);
        mmu.map(d, Vpn(1), FrameId(20), true); // re-map in place
        assert_eq!(verdict(&mmu, d, 1), (true, true, pte(20, true)));
    }

    #[test]
    fn remap_to_readonly_blocks_writes() {
        let (mut mmu, d) = odp_iommu();
        mmu.map(d, Vpn(1), FrameId(10), true);
        mmu.map(d, Vpn(1), FrameId(10), false); // downgrade permissions
        assert_eq!(verdict(&mmu, d, 1), (true, false, pte(10, false)));
    }

    /// Regression: the `huge_promote` journal mark follows the table's
    /// promotion counter. It used to be emitted whenever a folded chunk
    /// was missing from the translation cache's 8-entry superpage store,
    /// so after 9 folds an identical re-map of a page in the first
    /// (evicted) chunk marked a tenth promotion that never happened.
    #[test]
    fn huge_promote_marks_follow_the_promotion_counter() {
        Instruments {
            journal: Some(journal::JournalRecorder::new()),
            ..Instruments::default()
        }
        .install();
        let mut mmu = Iommu::new(64);
        mmu.set_huge_pages(true);
        let d = mmu.create_domain(TableMode::PageFaultCapable);
        for c in 0..9 {
            mmu.map_batch(d, &chunk(c * HUGE_PAGES, 100_000 * (c + 1)), true);
        }
        mmu.map(d, Vpn(7), FrameId(100_007), true); // identical: stays folded
        let marks = Instruments::take()
            .journal
            .expect("installed above")
            .marks()
            .iter()
            .filter(|m| m.kind == MarkKind::HugePromote)
            .count();
        assert_eq!(mmu.huge_stats().0, 9);
        assert_eq!(marks, 9, "one mark per fold, none for the re-map");
    }

    /// Regression: the unit cached the metric ids of the first recorder
    /// it saw, so under a later recorder an invalidation added to
    /// whichever counter held those indices there.
    #[test]
    fn invalidation_counters_follow_the_installed_recorder() {
        let (mut mmu, d) = odp_iommu();
        let recording = |t: trace::TraceRecorder| Instruments {
            trace: Some(t),
            ..Instruments::default()
        };
        recording(trace::TraceRecorder::new(16)).install();
        mmu.invalidate(d, Vpn(1));
        let mut b = trace::TraceRecorder::new(16);
        b.metrics_mut().counter_add("tenant0.ops", 5);
        recording(b).install();
        mmu.invalidate(d, Vpn(1));
        let b = Instruments::take().trace.expect("installed above");
        assert_eq!(b.metrics().counter("tenant0.ops"), 5);
        assert_eq!(b.metrics().counter("iommu.invalidations"), 1);
    }
}
