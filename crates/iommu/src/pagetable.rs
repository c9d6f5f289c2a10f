//! I/O page tables.
//!
//! Each direct-I/O channel (IOchannel) gets a translation **domain** with
//! its own I/O page table mapping I/O virtual addresses (IOVAs — in this
//! reproduction, the IOuser's virtual page numbers) to physical frames.
//!
//! The paper's key hardware change (§4) is allowing **non-present** PTEs:
//! the baseline Connect-IB required every PTE to be valid, which forces
//! pinning; the modified firmware tolerates invalid entries and reports
//! faults instead. Every table here is of the second kind: a DMA probes
//! it with [`IoPageTable::probe_range`], and a hole or a write through a
//! read-only entry is a page fault the NPF engine raises. Pinned
//! registration needs no second table mode — a pinned buffer is simply
//! one whose entries are all present.

use memsim::dense::{PageMap, LEAF_LEN};
use memsim::types::{FrameId, PageRange, Vpn};

/// Pages covered by one huge (2 MiB) PTE.
pub const HUGE_PAGES: u64 = LEAF_LEN as u64;

const HUGE_MASK: u64 = HUGE_PAGES - 1;

/// Identifier of a translation domain (one per IOchannel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DomainId(pub u32);

impl std::fmt::Display for DomainId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dom{}", self.0)
    }
}

/// Whether the table tolerates non-present entries: always, as the
/// paper's modified firmware does. The one-variant type is kept because
/// the benchmark passes `TableMode::PageFaultCapable` to
/// [`crate::Iommu::create_domain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableMode {
    /// Entries may be invalid; a miss is a recoverable page fault.
    PageFaultCapable,
}

/// One I/O page table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoPte {
    /// Backing frame.
    pub frame: FrameId,
    /// Whether DMA writes are permitted.
    pub writable: bool,
}

/// An I/O page table for one domain.
///
/// Entries live in a dense, direct-indexed [`PageMap`]: a walk is two
/// array indexes in the common case, and [`IoPageTable::probe_range`]
/// resolves each leaf chunk once for a whole scatter-gather range.
#[derive(Debug, Clone)]
pub struct IoPageTable {
    domain: DomainId,
    entries: PageMap<IoPte>,
    /// When set, 512 present 4 KiB siblings with contiguous frames and
    /// uniform permissions fold into one 2 MiB PTE (and split back on
    /// any partial unmap). Translations are byte-for-byte identical to
    /// the 4 KiB-only table; only the PTE *shape* changes.
    huge_enabled: bool,
    promotions: u64,
    demotions: u64,
}

impl IoPageTable {
    /// Creates an empty table for `domain`.
    #[must_use]
    pub fn new(domain: DomainId) -> Self {
        IoPageTable {
            domain,
            entries: PageMap::new(),
            huge_enabled: false,
            promotions: 0,
            demotions: 0,
        }
    }

    /// The owning domain.
    #[must_use]
    pub fn domain(&self) -> DomainId {
        self.domain
    }

    /// Number of present entries (huge PTEs count all 512 pages).
    #[must_use]
    pub fn present_pages(&self) -> usize {
        self.entries.len() + self.entries.huge_len() * LEAF_LEN
    }

    /// Enables (or disables) 2 MiB PTE folding. Disabling splits every
    /// existing huge PTE back to 4 KiB entries.
    pub fn set_huge_pages(&mut self, enabled: bool) {
        self.huge_enabled = enabled;
        if !enabled {
            let bases: Vec<Vpn> = self.entries.iter_huge().map(|(v, _)| v).collect();
            for base in bases {
                self.split_huge(base);
            }
        }
    }

    /// Number of huge PTEs currently installed.
    #[must_use]
    pub fn huge_ptes(&self) -> usize {
        self.entries.huge_len()
    }

    /// Folds performed (512 siblings → one huge PTE).
    #[must_use]
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Splits performed (huge PTE → 512 siblings).
    #[must_use]
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    /// `true` when `vpn` is covered by a huge PTE.
    #[must_use]
    pub fn is_huge(&self, vpn: Vpn) -> bool {
        self.entries.is_huge(vpn)
    }

    /// The per-page PTE synthesized from a huge PTE covering `vpn`.
    fn synth_huge(huge: &IoPte, vpn: Vpn) -> IoPte {
        IoPte {
            frame: FrameId(huge.frame.0 + (vpn.0 & HUGE_MASK)),
            writable: huge.writable,
        }
    }

    /// Folds `vpn`'s chunk into a huge PTE when eligible: all 512
    /// siblings present, frames contiguous from the aligned base, and
    /// uniform writability. Returns `true` on promotion.
    pub fn try_promote(&mut self, vpn: Vpn) -> bool {
        if !self.huge_enabled
            || self.entries.is_huge(vpn)
            || self.entries.chunk_population(vpn) != LEAF_LEN
        {
            return false;
        }
        let base = PageMap::<IoPte>::chunk_base(vpn);
        let mut eligible = true;
        let mut anchor: Option<IoPte> = None;
        self.entries
            .scan_range(PageRange::new(base, HUGE_PAGES), |v, pte| {
                let Some(pte) = pte else {
                    eligible = false;
                    return;
                };
                match anchor {
                    None => anchor = Some(*pte),
                    Some(a) => {
                        eligible = eligible
                            && pte.writable == a.writable
                            && pte.frame.0 == a.frame.0 + (v.0 - base.0);
                    }
                }
            });
        let Some(anchor) = anchor else { return false };
        if !eligible {
            return false;
        }
        self.entries.take_chunk(base);
        self.entries.insert_huge(base, anchor);
        self.promotions += 1;
        true
    }

    /// Splits the huge PTE covering `vpn` back into 512 4 KiB entries.
    /// Returns `true` when a huge PTE was present.
    pub fn split_huge(&mut self, vpn: Vpn) -> bool {
        let Some(huge) = self.entries.remove_huge(vpn) else {
            return false;
        };
        let base = PageMap::<IoPte>::chunk_base(vpn);
        for i in 0..HUGE_PAGES {
            let v = Vpn(base.0 + i);
            self.entries.insert(v, Self::synth_huge(&huge, v));
        }
        self.demotions += 1;
        true
    }

    /// Installs (or updates) the entry for `vpn`. With huge pages
    /// enabled, a map that completes an eligible chunk folds it; a map
    /// that contradicts a covering huge PTE splits it first.
    pub fn map(&mut self, vpn: Vpn, frame: FrameId, writable: bool) {
        if let Some(huge) = self.entries.huge(vpn) {
            if Self::synth_huge(huge, vpn) == (IoPte { frame, writable }) {
                return; // re-map of an identical translation: keep the fold
            }
            self.split_huge(vpn);
        }
        self.entries.insert(vpn, IoPte { frame, writable });
        self.try_promote(vpn);
    }

    /// Removes the entry for `vpn`. Returns `true` when it was present —
    /// the paper notes invalidations of never-mapped pages cost nothing
    /// extra (§4, Figure 3b). A partial unmap of a huge PTE demotes it
    /// (split back to 4 KiB) first.
    pub fn unmap(&mut self, vpn: Vpn) -> bool {
        if self.entries.is_huge(vpn) {
            self.split_huge(vpn);
        }
        self.entries.remove(vpn).is_some()
    }

    /// Removes every entry in `range`, returning how many were present.
    pub fn unmap_range(&mut self, range: PageRange) -> u64 {
        range.iter().filter(|&vpn| self.unmap(vpn)).count() as u64
    }

    /// The PTE for `vpn`, if present (synthesized per-page from a huge
    /// PTE when the chunk is folded).
    #[must_use]
    pub fn pte(&self, vpn: Vpn) -> Option<IoPte> {
        self.entries
            .get(vpn)
            .copied()
            .or_else(|| self.entries.huge(vpn).map(|h| Self::synth_huge(h, vpn)))
    }

    /// Whether every page of `range` is present (and writable, when
    /// `write`) — the side-effect free probe behind
    /// `is_descriptor_present` checks.
    #[must_use]
    pub fn probe_range(&self, range: PageRange, write: bool) -> bool {
        let mut ok = true;
        let entries = &self.entries;
        entries.scan_range(range, |vpn, pte| {
            let writable = match pte {
                Some(p) => Some(p.writable),
                None => entries.huge(vpn).map(|h| h.writable),
            };
            ok = ok
                && match writable {
                    Some(w) => !write || w,
                    None => false,
                };
        });
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> IoPageTable {
        IoPageTable::new(DomainId(1))
    }

    fn pte(frame: u64, writable: bool) -> Option<IoPte> {
        Some(IoPte {
            frame: FrameId(frame),
            writable,
        })
    }

    fn one(vpn: u64) -> PageRange {
        PageRange::new(Vpn(vpn), 1)
    }

    #[test]
    fn present_entries_translate() {
        let mut t = table();
        t.map(Vpn(5), FrameId(42), true);
        assert_eq!(t.pte(Vpn(5)), pte(42, true));
        assert!(t.probe_range(one(5), true));
        assert_eq!(t.present_pages(), 1);
    }

    #[test]
    fn missing_entry_faults_in_odp_mode() {
        let t = table();
        assert_eq!(t.pte(Vpn(5)), None);
        assert!(!t.probe_range(one(5), false));
    }

    #[test]
    fn write_through_readonly_errors() {
        let mut t = table();
        t.map(Vpn(1), FrameId(1), false);
        assert!(!t.probe_range(one(1), true));
        assert!(t.probe_range(one(1), false));
        assert_eq!(t.pte(Vpn(1)), pte(1, false));
    }

    #[test]
    fn unmap_reports_presence() {
        let mut t = table();
        t.map(Vpn(1), FrameId(1), true);
        assert!(t.unmap(Vpn(1)));
        assert!(!t.unmap(Vpn(1)), "second unmap finds nothing");
        assert_eq!(t.pte(Vpn(1)), None);
    }

    #[test]
    fn probe_range_is_side_effect_free() {
        let mut t = table();
        t.map(Vpn(0), FrameId(0), true);
        t.map(Vpn(1), FrameId(1), false);
        assert!(t.probe_range(PageRange::new(Vpn(0), 2), false));
        assert!(!t.probe_range(PageRange::new(Vpn(0), 2), true), "read-only");
        assert!(!t.probe_range(PageRange::new(Vpn(0), 3), false), "hole");
        assert_eq!(t.present_pages(), 2);
    }

    fn fill_chunk(t: &mut IoPageTable, base: u64, frame0: u64) {
        for i in 0..HUGE_PAGES {
            t.map(Vpn(base + i), FrameId(frame0 + i), true);
        }
    }

    #[test]
    fn contiguous_full_chunk_promotes() {
        let mut t = table();
        t.set_huge_pages(true);
        fill_chunk(&mut t, 512, 7000);
        assert_eq!(t.huge_ptes(), 1);
        assert_eq!(t.promotions(), 1);
        assert!(t.is_huge(Vpn(700)));
        assert_eq!(t.present_pages(), HUGE_PAGES as usize);
        // Translations agree with the 4 KiB model.
        assert_eq!(t.pte(Vpn(700)), pte(7188, true));
        assert_eq!(t.pte(Vpn(1023)).expect("mapped").frame, FrameId(7511));
    }

    #[test]
    fn non_contiguous_chunk_stays_small() {
        let mut t = table();
        t.set_huge_pages(true);
        for i in 0..HUGE_PAGES {
            // One discontinuity in the middle of the frame run.
            let f = if i < 100 { 7000 + i } else { 9000 + i };
            t.map(Vpn(512 + i), FrameId(f), true);
        }
        assert_eq!(t.huge_ptes(), 0);
        assert_eq!(t.promotions(), 0);
    }

    #[test]
    fn partial_unmap_demotes() {
        let mut t = table();
        t.set_huge_pages(true);
        fill_chunk(&mut t, 512, 7000);
        assert_eq!(t.huge_ptes(), 1);
        assert!(t.unmap(Vpn(600)));
        assert_eq!(t.huge_ptes(), 0);
        assert_eq!(t.demotions(), 1);
        assert_eq!(t.pte(Vpn(600)), None);
        assert_eq!(t.pte(Vpn(601)), pte(7089, true));
        assert_eq!(t.present_pages(), HUGE_PAGES as usize - 1);
    }

    #[test]
    fn identical_remap_keeps_fold_and_conflicting_remap_splits() {
        let mut t = table();
        t.set_huge_pages(true);
        fill_chunk(&mut t, 512, 7000);
        t.map(Vpn(700), FrameId(7188), true); // identical: stays folded
        assert_eq!(t.huge_ptes(), 1);
        t.map(Vpn(700), FrameId(1), true); // conflicting: splits
        assert_eq!(t.huge_ptes(), 0);
        assert_eq!(t.demotions(), 1);
        assert_eq!(t.pte(Vpn(700)), pte(1, true));
    }

    #[test]
    fn disabling_huge_pages_splits_existing_folds() {
        let mut t = table();
        t.set_huge_pages(true);
        fill_chunk(&mut t, 512, 7000);
        assert_eq!(t.huge_ptes(), 1);
        t.set_huge_pages(false);
        assert_eq!(t.huge_ptes(), 0);
        assert_eq!(t.present_pages(), HUGE_PAGES as usize);
        assert_eq!(t.pte(Vpn(900)), pte(7388, true));
    }

    #[test]
    fn huge_ptes_and_probe_agree_with_small_pages() {
        let mut small = table();
        let mut huge = table();
        huge.set_huge_pages(true);
        for i in 0..HUGE_PAGES {
            small.map(Vpn(512 + i), FrameId(7000 + i), true);
            huge.map(Vpn(512 + i), FrameId(7000 + i), true);
        }
        assert_eq!(huge.huge_ptes(), 1);
        for v in PageRange::new(Vpn(500), 540).iter() {
            assert_eq!(huge.pte(v), small.pte(v), "folded PTE of {v:?}");
        }
        assert!(huge.probe_range(PageRange::new(Vpn(512), HUGE_PAGES), true));
        assert!(!huge.probe_range(PageRange::new(Vpn(511), 2), false));
    }

    #[test]
    fn unmap_range_counts_present() {
        let mut t = table();
        t.map(Vpn(1), FrameId(1), true);
        t.map(Vpn(3), FrameId(3), true);
        let n = t.unmap_range(PageRange::new(Vpn(0), 8));
        assert_eq!(n, 2);
        assert_eq!(t.present_pages(), 0);
    }
}
