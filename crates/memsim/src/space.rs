//! Address spaces: memory areas (VMAs) and page table entries.

use std::cell::Cell;
use std::collections::BTreeMap;

use crate::dense::PageMap;
use crate::types::{FrameId, PageRange, SpaceId, Vpn};

/// What backs a virtual memory area: always anonymous memory, zero-filled
/// on first touch (delayed allocation) and swapped out under pressure.
/// The one-variant type is kept because the benchmark passes
/// `Backing::Anonymous` to [`crate::MemoryManager::mmap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backing {
    /// Anonymous memory.
    Anonymous,
}

/// Residency state of one virtual page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Mapped by a VMA but never touched: first access is a minor fault
    /// with zero-fill.
    Untouched,
    /// Backed by a physical frame.
    Resident(FrameId),
    /// Anonymous page written out to a swap slot: access is a major fault.
    SwappedOut {
        /// Swap slot holding the page.
        slot: u64,
    },
    /// Clean page whose frame was reclaimed: its content was all zeros,
    /// so a re-access is again a minor zero-fill.
    Dropped,
}

/// A page table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Residency state.
    pub state: PageState,
    /// Pinned pages are excluded from reclaim (mlock / DMA registration).
    /// Counts nested pins.
    pub pin_count: u32,
    /// Set on write access; dirty pages must be swapped out on eviction
    /// rather than dropped.
    pub dirty: bool,
}

impl Pte {
    fn untouched() -> Self {
        Pte {
            state: PageState::Untouched,
            pin_count: 0,
            dirty: false,
        }
    }

    /// The backing frame if resident.
    #[must_use]
    pub fn frame(&self) -> Option<FrameId> {
        match self.state {
            PageState::Resident(f) => Some(f),
            _ => None,
        }
    }

    /// `true` when the page may not be reclaimed.
    #[must_use]
    pub fn is_pinned(&self) -> bool {
        self.pin_count > 0
    }
}

/// A virtual address space (one IOuser: a process or a VM).
///
/// Tracks VMAs and per-page residency. Fault resolution policy lives in
/// [`crate::manager::MemoryManager`]; this type only answers structural
/// questions (is this page mapped? is it resident?).
#[derive(Debug)]
pub struct AddressSpace {
    id: SpaceId,
    /// The virtual memory areas: contiguous mapped ranges, keyed by
    /// their first page.
    vmas: BTreeMap<u64, PageRange>,
    ptes: PageMap<Pte>,
    /// Last VMA a lookup resolved: page accesses cluster, so most
    /// lookups skip the `vmas` tree walk entirely.
    vma_cache: Cell<Option<PageRange>>,
    next_free_vpn: u64,
    resident_pages: u64,
    pinned_pages: u64,
}

/// Errors from address-space structural operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceError {
    /// The page is not covered by any VMA.
    NotMapped(Vpn),
    /// A requested mapping overlaps an existing VMA.
    Overlap,
}

impl std::fmt::Display for SpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpaceError::NotMapped(vpn) => write!(f, "page {vpn} is not mapped"),
            SpaceError::Overlap => write!(f, "mapping overlaps an existing area"),
        }
    }
}

impl std::error::Error for SpaceError {}

impl AddressSpace {
    /// Creates an empty address space.
    #[must_use]
    pub fn new(id: SpaceId) -> Self {
        AddressSpace {
            id,
            vmas: BTreeMap::new(),
            ptes: PageMap::new(),
            vma_cache: Cell::new(None),
            next_free_vpn: 0x10, // skip the first pages, like real systems
            resident_pages: 0,
            pinned_pages: 0,
        }
    }

    /// The space identifier.
    #[must_use]
    pub fn id(&self) -> SpaceId {
        self.id
    }

    /// Number of resident (frame-backed) pages.
    #[must_use]
    pub fn resident_pages(&self) -> u64 {
        self.resident_pages
    }

    /// Number of pinned pages.
    #[must_use]
    pub fn pinned_pages(&self) -> u64 {
        self.pinned_pages
    }

    /// Maps `pages` anonymous pages at the next free region, returning
    /// the range. This is the `mmap(NULL, ...)` form.
    pub fn mmap(&mut self, pages: u64) -> PageRange {
        let start = Vpn(self.next_free_vpn);
        let range = PageRange::new(start, pages);
        // Leave a one-page guard gap, as real mmap tends to.
        self.next_free_vpn += pages + 1;
        self.vmas.insert(range.start.0, range);
        range
    }

    /// Maps `range` anonymously at a fixed location.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::Overlap`] when the range intersects an
    /// existing VMA.
    pub fn mmap_fixed(&mut self, range: PageRange) -> Result<(), SpaceError> {
        for vma in self.vmas.values() {
            if vma.overlaps(range) {
                return Err(SpaceError::Overlap);
            }
        }
        self.next_free_vpn = self.next_free_vpn.max(range.end().0 + 1);
        self.vmas.insert(range.start.0, range);
        Ok(())
    }

    /// Removes the VMA covering exactly `range`, returning the frames of
    /// its resident pages so the caller can free them.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::NotMapped`] when no VMA starts at
    /// `range.start` with the same length.
    pub fn munmap(&mut self, range: PageRange) -> Result<Vec<(Vpn, FrameId)>, SpaceError> {
        match self.vmas.get(&range.start.0) {
            Some(vma) if *vma == range => {}
            _ => return Err(SpaceError::NotMapped(range.start)),
        }
        self.vmas.remove(&range.start.0);
        self.vma_cache.set(None);
        let mut freed = Vec::new();
        for vpn in range.iter() {
            if let Some(pte) = self.ptes.remove(vpn) {
                if let PageState::Resident(f) = pte.state {
                    self.resident_pages -= 1;
                    if pte.is_pinned() {
                        self.pinned_pages -= 1;
                    }
                    freed.push((vpn, f));
                }
            }
        }
        Ok(freed)
    }

    /// The VMA covering `vpn`, if any, served from the one-entry VMA
    /// cache on the fast path.
    #[inline]
    fn vma_covering(&self, vpn: Vpn) -> Option<PageRange> {
        if let Some(vma) = self.vma_cache.get() {
            if vma.contains(vpn) {
                return Some(vma);
            }
        }
        let (_, &vma) = self.vmas.range(..=vpn.0).next_back()?;
        if !vma.contains(vpn) {
            return None;
        }
        self.vma_cache.set(Some(vma));
        Some(vma)
    }

    /// The PTE for `vpn`. Pages inside a VMA that were never touched
    /// report an [`PageState::Untouched`] entry.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::NotMapped`] for addresses outside every VMA.
    pub fn pte(&self, vpn: Vpn) -> Result<Pte, SpaceError> {
        if self.vma_covering(vpn).is_none() {
            return Err(SpaceError::NotMapped(vpn));
        }
        Ok(self.ptes.get(vpn).copied().unwrap_or_else(Pte::untouched))
    }

    /// Calls `f(vpn, pte)` for every page of `range` in ascending order,
    /// resolving the covering VMA once per run and each PTE leaf chunk
    /// once per [`crate::dense::LEAF_LEN`] pages — the batched
    /// scatter-gather walk (§4.3) over host page tables.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::NotMapped`] at the first page no VMA covers
    /// (pages before it have already been reported to `f`).
    pub fn for_each_pte<F: FnMut(Vpn, Pte)>(
        &self,
        range: PageRange,
        mut f: F,
    ) -> Result<(), SpaceError> {
        let mut vpn = range.start;
        let end = range.end();
        while vpn < end {
            let Some(vma) = self.vma_covering(vpn) else {
                return Err(SpaceError::NotMapped(vpn));
            };
            let run_end = Vpn(end.0.min(vma.end().0));
            self.ptes
                .scan_range(PageRange::new(vpn, run_end.0 - vpn.0), |v, pte| {
                    f(v, pte.copied().unwrap_or_else(Pte::untouched));
                });
            vpn = run_end;
        }
        Ok(())
    }

    /// The frame backing `vpn`, if the page is resident.
    #[must_use]
    pub fn frame_of(&self, vpn: Vpn) -> Option<FrameId> {
        self.ptes.get(vpn).and_then(Pte::frame)
    }

    /// `true` when `vpn` is resident.
    #[must_use]
    pub fn is_resident(&self, vpn: Vpn) -> bool {
        self.frame_of(vpn).is_some()
    }

    /// Installs `frame` for `vpn` (fault resolution). Marks dirty on
    /// write access.
    ///
    /// # Panics
    ///
    /// Panics if the page is already resident; the manager must not
    /// double-install.
    pub fn install(&mut self, vpn: Vpn, frame: FrameId, write: bool) {
        let pte = self.ptes.get_mut_or_insert_with(vpn, Pte::untouched);
        assert!(
            pte.frame().is_none(),
            "page {vpn} already resident in {}",
            self.id
        );
        pte.state = PageState::Resident(frame);
        pte.dirty = write;
        self.resident_pages += 1;
        if pte.is_pinned() {
            self.pinned_pages += 1;
        }
    }

    /// Fast-path CPU access to a resident page: one dense lookup that
    /// marks dirty on writes and reports whether the page is pinned, so
    /// the caller can do LRU work without re-walking. Returns `None`
    /// when the page is not resident (fault path).
    pub fn touch_resident(&mut self, vpn: Vpn, write: bool) -> Option<bool> {
        let pte = self.ptes.get_mut(vpn)?;
        pte.frame()?;
        if write {
            pte.dirty = true;
        }
        Some(pte.is_pinned())
    }

    /// Evicts a resident page, transitioning it to `SwappedOut` (with
    /// `slot`) or, for a clean page, `Dropped`. Returns the freed frame
    /// and whether the page was dirty.
    ///
    /// # Panics
    ///
    /// Panics if the page is not resident or is pinned.
    pub fn evict(&mut self, vpn: Vpn, swap_slot: Option<u64>) -> (FrameId, bool) {
        let pte = self.ptes.get_mut(vpn).expect("evicting untracked page");
        let frame = pte.frame().expect("evicting non-resident page");
        assert!(!pte.is_pinned(), "evicting pinned page {vpn}");
        let dirty = pte.dirty;
        pte.state = match swap_slot {
            Some(slot) => PageState::SwappedOut { slot },
            None => PageState::Dropped,
        };
        pte.dirty = false;
        self.resident_pages -= 1;
        (frame, dirty)
    }

    /// Increments the pin count of a *resident* page. Returns `true` when
    /// the page transitioned from unpinned to pinned.
    ///
    /// # Panics
    ///
    /// Panics if the page is not resident (pin after fault-in only).
    pub fn pin(&mut self, vpn: Vpn) -> bool {
        let pte = self.ptes.get_mut(vpn).expect("pin of unmapped page");
        assert!(pte.frame().is_some(), "pin of non-resident page {vpn}");
        pte.pin_count += 1;
        if pte.pin_count == 1 {
            self.pinned_pages += 1;
            true
        } else {
            false
        }
    }

    /// Decrements the pin count. Returns `true` when the page became
    /// unpinned (and should re-enter LRU tracking).
    ///
    /// # Panics
    ///
    /// Panics if the page was not pinned.
    pub fn unpin(&mut self, vpn: Vpn) -> bool {
        let pte = self.ptes.get_mut(vpn).expect("unpin of unmapped page");
        assert!(pte.pin_count > 0, "unpin of unpinned page {vpn}");
        pte.pin_count -= 1;
        if pte.pin_count == 0 {
            self.pinned_pages -= 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        AddressSpace::new(SpaceId(0))
    }

    #[test]
    fn mmap_assigns_disjoint_ranges() {
        let mut s = space();
        let a = s.mmap(10);
        let b = s.mmap(5);
        assert!(!a.overlaps(b));
        assert_eq!(s.vmas.values().map(|v| v.pages).sum::<u64>(), 15);
    }

    #[test]
    fn mmap_fixed_rejects_overlap() {
        let mut s = space();
        let a = s.mmap(10);
        let overlapping = PageRange::new(a.start, 1);
        assert_eq!(s.mmap_fixed(overlapping), Err(SpaceError::Overlap));
    }

    #[test]
    fn untouched_pages_report_untouched() {
        let mut s = space();
        let r = s.mmap(4);
        let pte = s.pte(r.start).expect("mapped");
        assert_eq!(pte.state, PageState::Untouched);
        assert!(!s.is_resident(r.start));
    }

    #[test]
    fn unmapped_pages_error() {
        let s = space();
        assert!(matches!(s.pte(Vpn(0xdead)), Err(SpaceError::NotMapped(_))));
    }

    #[test]
    fn install_and_evict_roundtrip() {
        let mut s = space();
        let r = s.mmap(1);
        s.install(r.start, FrameId(7), true);
        assert_eq!(s.frame_of(r.start), Some(FrameId(7)));
        assert_eq!(s.resident_pages(), 1);
        let (frame, dirty) = s.evict(r.start, Some(3));
        assert_eq!(frame, FrameId(7));
        assert!(dirty, "written page must evict dirty");
        assert_eq!(
            s.pte(r.start).expect("mapped").state,
            PageState::SwappedOut { slot: 3 }
        );
        assert_eq!(s.resident_pages(), 0);
    }

    #[test]
    fn pin_counts_nest() {
        let mut s = space();
        let r = s.mmap(1);
        s.install(r.start, FrameId(0), false);
        assert!(s.pin(r.start));
        assert!(!s.pin(r.start), "second pin is not a transition");
        assert_eq!(s.pinned_pages(), 1);
        assert!(!s.unpin(r.start));
        assert!(s.unpin(r.start), "last unpin is the transition");
        assert_eq!(s.pinned_pages(), 0);
    }

    #[test]
    #[should_panic(expected = "evicting pinned page")]
    fn evicting_pinned_page_panics() {
        let mut s = space();
        let r = s.mmap(1);
        s.install(r.start, FrameId(0), false);
        s.pin(r.start);
        s.evict(r.start, None);
    }

    #[test]
    fn munmap_returns_frames() {
        let mut s = space();
        let r = s.mmap(3);
        s.install(r.start, FrameId(1), false);
        s.install(r.start.next(), FrameId(2), false);
        let freed = s.munmap(r).expect("munmap");
        assert_eq!(freed.len(), 2);
        assert!(s.pte(r.start).is_err(), "pages gone after munmap");
        // Wrong range errors.
        assert!(s.munmap(r).is_err());
    }
}
