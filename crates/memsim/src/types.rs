//! Addresses, page numbers, and identifiers.
//!
//! The simulator uses 4 KiB pages throughout, matching the paper's testbed.
//! Virtual addresses are per-address-space; physical frames are host-wide.

use std::fmt;

/// Size of a page in bytes (4 KiB, as in the paper's x86 testbed).
pub const PAGE_SIZE: u64 = 4096;

/// Number of bits in a page offset.
pub const PAGE_SHIFT: u32 = 12;

/// A virtual address within some address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// The virtual page number containing this address.
    #[must_use]
    pub const fn vpn(self) -> Vpn {
        Vpn(self.0 >> PAGE_SHIFT)
    }

    /// Adds a byte offset.
    #[must_use]
    pub const fn add(self, bytes: u64) -> VirtAddr {
        VirtAddr(self.0 + bytes)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "va:{:#x}", self.0)
    }
}

/// A virtual page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(pub u64);

impl Vpn {
    /// The first address of the page.
    #[must_use]
    pub const fn base(self) -> VirtAddr {
        VirtAddr(self.0 << PAGE_SHIFT)
    }

    /// The next page number.
    #[must_use]
    pub const fn next(self) -> Vpn {
        Vpn(self.0 + 1)
    }

    /// Iterates `count` consecutive page numbers starting here.
    pub fn span(self, count: u64) -> impl Iterator<Item = Vpn> {
        (self.0..self.0 + count).map(Vpn)
    }
}

impl fmt::Display for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpn:{:#x}", self.0)
    }
}

/// A physical frame number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FrameId(pub u64);

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pfn:{:#x}", self.0)
    }
}

/// Identifier of an address space (a process or VM — an *IOuser* in the
/// paper's terminology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpaceId(pub u32);

impl fmt::Display for SpaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "as{}", self.0)
    }
}

/// Identifier of a simulated file (for page-cache backed mappings and the
/// storage workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FileId(pub u32);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file{}", self.0)
    }
}

/// A contiguous range of virtual pages `[start, start + pages)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageRange {
    /// First page of the range.
    pub start: Vpn,
    /// Number of pages.
    pub pages: u64,
}

impl PageRange {
    /// Creates a range of `pages` pages starting at `start`.
    #[must_use]
    pub const fn new(start: Vpn, pages: u64) -> Self {
        PageRange { start, pages }
    }

    /// A range covering `bytes` bytes starting at `addr` (page-aligned
    /// expansion: partial pages at either end count as whole pages).
    #[must_use]
    pub fn covering(addr: VirtAddr, bytes: u64) -> Self {
        if bytes == 0 {
            return PageRange::new(addr.vpn(), 0);
        }
        let first = addr.vpn();
        let last = VirtAddr(addr.0 + bytes - 1).vpn();
        PageRange::new(first, last.0 - first.0 + 1)
    }

    /// One page past the end of the range.
    #[must_use]
    pub const fn end(self) -> Vpn {
        Vpn(self.start.0 + self.pages)
    }

    /// `true` when `vpn` lies inside the range.
    #[must_use]
    pub const fn contains(self, vpn: Vpn) -> bool {
        vpn.0 >= self.start.0 && vpn.0 < self.start.0 + self.pages
    }

    /// `true` when the range is empty.
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.pages == 0
    }

    /// Iterates the page numbers of the range.
    pub fn iter(self) -> impl Iterator<Item = Vpn> {
        self.start.span(self.pages)
    }

    /// `true` when the two ranges share at least one page.
    #[must_use]
    pub const fn overlaps(self, other: PageRange) -> bool {
        self.start.0 < other.start.0 + other.pages && other.start.0 < self.start.0 + self.pages
    }
}

impl fmt::Display for PageRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}..+{}]", self.start, self.pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_page_split() {
        let a = VirtAddr(0x12345);
        assert_eq!(a.vpn(), Vpn(0x12));
        assert_eq!(Vpn(0x12).base(), VirtAddr(0x12000));
    }

    #[test]
    fn range_covering_partial_pages() {
        // One byte in the middle of a page covers exactly one page.
        let r = PageRange::covering(VirtAddr(0x1800), 1);
        assert_eq!(r, PageRange::new(Vpn(1), 1));
        // A 4 KiB span straddling a boundary covers two pages.
        let r = PageRange::covering(VirtAddr(0x1800), 4096);
        assert_eq!(r, PageRange::new(Vpn(1), 2));
        // Zero bytes covers zero pages.
        assert!(PageRange::covering(VirtAddr(0x1800), 0).is_empty());
    }

    #[test]
    fn range_contains_and_end() {
        let r = PageRange::new(Vpn(10), 4);
        assert!(r.contains(Vpn(10)));
        assert!(r.contains(Vpn(13)));
        assert!(!r.contains(Vpn(14)));
        assert_eq!(r.end(), Vpn(14));
        assert_eq!(r.iter().count(), 4);
    }

    #[test]
    fn range_overlap() {
        let a = PageRange::new(Vpn(0), 4);
        let b = PageRange::new(Vpn(3), 4);
        let c = PageRange::new(Vpn(4), 4);
        assert!(a.overlaps(b));
        assert!(!a.overlaps(c));
        assert!(b.overlaps(c));
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(SpaceId(3).to_string(), "as3");
        assert_eq!(VirtAddr(0x1000).to_string(), "va:0x1000");
        assert!(PageRange::new(Vpn(1), 2).to_string().contains("+2"));
    }
}
