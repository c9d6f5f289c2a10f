//! A paged, direct-indexed map from virtual page numbers to entries.
//!
//! The translation fast path stores page-table state in fixed-size leaf
//! chunks held in a slab. The chunk directory is a plain vector indexed
//! by `vpn >> LEAF_BITS` for the dense low region every address space
//! actually uses (mmap allocates upward from a small base; the testbeds'
//! fixed I/O buffers sit a few thousand chunks up), with a hash-map
//! fallback (unseeded FxHash: it is only probed, never iterated
//! unsorted) for sparse outlier chunks beyond [`DIRECT_CHUNKS`]. A
//! lookup in the common case is two array indexes — no hashing, no tree
//! walk — and a range scan resolves each leaf once per [`LEAF_LEN`]
//! pages instead of once per page.
//!
//! Iteration order is ascending VPN (direct chunks in index order, then
//! sparse chunks sorted), so every observable traversal is deterministic
//! by construction — unlike the hashed storage this replaced.

use std::collections::BTreeMap;

use simcore::fxhash::FxHashMap;

use crate::types::{PageRange, Vpn};

/// log2 of the number of entries per leaf chunk.
pub const LEAF_BITS: u32 = 9;

/// Entries per leaf chunk (one 4 KiB-page-table's worth, as in a real
/// x86 page-table level).
pub const LEAF_LEN: usize = 1 << LEAF_BITS;

const LEAF_MASK: u64 = (LEAF_LEN as u64) - 1;

/// Chunk ids below this are direct-indexed; at 512 pages per chunk this
/// covers VPNs below 2^21 (8 GiB of virtual address space), which holds
/// every region the simulator allocates. Anything above falls back to
/// the sparse map so a stray huge VPN cannot balloon the directory.
const DIRECT_CHUNKS: u64 = 1 << 12;

#[derive(Debug, Clone)]
struct Leaf<T> {
    /// Occupied slots in this leaf; the leaf is recycled at zero.
    used: u32,
    slots: Box<[Option<T>]>,
}

impl<T> Leaf<T> {
    fn empty() -> Self {
        Leaf {
            used: 0,
            slots: (0..LEAF_LEN).map(|_| None).collect(),
        }
    }
}

/// A map from [`Vpn`] to `T` backed by slab-allocated leaf chunks.
///
/// Besides the 4 KiB entries, a chunk can hold one *huge* (2 MiB) leaf
/// entry covering all [`LEAF_LEN`] of its pages — the structural
/// analogue of a superpage PTE. Huge entries live beside the 4 KiB
/// entries (they never alias: callers fold the 512 base entries into one
/// huge entry and split back on demotion) and are kept in a `BTreeMap`
/// so every traversal stays deterministic. [`PageMap::len`] counts only
/// 4 KiB entries; huge entries are counted by [`PageMap::huge_len`].
#[derive(Debug, Clone)]
pub struct PageMap<T> {
    leaves: Vec<Leaf<T>>,
    free: Vec<u32>,
    /// Direct directory: chunk id → slab slot + 1 (0 = absent).
    direct: Vec<u32>,
    /// Fallback directory for chunks at or beyond [`DIRECT_CHUNKS`].
    sparse: FxHashMap<u64, u32>,
    /// Huge (2 MiB) leaf entries, keyed by chunk id.
    huge: BTreeMap<u64, T>,
    len: usize,
}

impl<T> Default for PageMap<T> {
    fn default() -> Self {
        PageMap::new()
    }
}

impl<T> PageMap<T> {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        PageMap {
            leaves: Vec::new(),
            free: Vec::new(),
            direct: Vec::new(),
            sparse: FxHashMap::default(),
            huge: BTreeMap::new(),
            len: 0,
        }
    }

    /// Number of entries present.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn slot_of(&self, chunk: u64) -> Option<u32> {
        if chunk < DIRECT_CHUNKS {
            match self.direct.get(chunk as usize) {
                Some(&s) if s != 0 => Some(s - 1),
                _ => None,
            }
        } else {
            self.sparse.get(&chunk).copied()
        }
    }

    fn slot_of_or_create(&mut self, chunk: u64) -> u32 {
        if let Some(s) = self.slot_of(chunk) {
            return s;
        }
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.leaves.push(Leaf::empty());
                u32::try_from(self.leaves.len() - 1).expect("leaf slab fits in u32")
            }
        };
        if chunk < DIRECT_CHUNKS {
            let idx = usize::try_from(chunk).expect("chunk fits usize");
            if self.direct.len() <= idx {
                self.direct.resize(idx + 1, 0);
            }
            self.direct[idx] = slot + 1;
        } else {
            self.sparse.insert(chunk, slot);
        }
        slot
    }

    fn clear_dir(&mut self, chunk: u64) {
        if chunk < DIRECT_CHUNKS {
            self.direct[chunk as usize] = 0;
        } else {
            self.sparse.remove(&chunk);
        }
    }

    /// The entry for `vpn`, if present.
    #[inline]
    #[must_use]
    pub fn get(&self, vpn: Vpn) -> Option<&T> {
        let slot = self.slot_of(vpn.0 >> LEAF_BITS)?;
        self.leaves[slot as usize].slots[(vpn.0 & LEAF_MASK) as usize].as_ref()
    }

    /// Mutable access to the entry for `vpn`, if present.
    #[inline]
    pub fn get_mut(&mut self, vpn: Vpn) -> Option<&mut T> {
        let slot = self.slot_of(vpn.0 >> LEAF_BITS)?;
        self.leaves[slot as usize].slots[(vpn.0 & LEAF_MASK) as usize].as_mut()
    }

    /// `true` when `vpn` has an entry.
    #[inline]
    #[must_use]
    pub fn contains(&self, vpn: Vpn) -> bool {
        self.get(vpn).is_some()
    }

    /// Inserts an entry, returning the previous one if any.
    pub fn insert(&mut self, vpn: Vpn, value: T) -> Option<T> {
        let slot = self.slot_of_or_create(vpn.0 >> LEAF_BITS);
        let leaf = &mut self.leaves[slot as usize];
        let prev = leaf.slots[(vpn.0 & LEAF_MASK) as usize].replace(value);
        if prev.is_none() {
            leaf.used += 1;
            self.len += 1;
        }
        prev
    }

    /// The entry for `vpn`, inserting `default()` first if absent.
    pub fn get_mut_or_insert_with(&mut self, vpn: Vpn, default: impl FnOnce() -> T) -> &mut T {
        let slot = self.slot_of_or_create(vpn.0 >> LEAF_BITS);
        let leaf = &mut self.leaves[slot as usize];
        let entry = &mut leaf.slots[(vpn.0 & LEAF_MASK) as usize];
        if entry.is_none() {
            *entry = Some(default());
            leaf.used += 1;
            self.len += 1;
        }
        entry.as_mut().expect("just filled")
    }

    /// Removes and returns the entry for `vpn`.
    pub fn remove(&mut self, vpn: Vpn) -> Option<T> {
        let chunk = vpn.0 >> LEAF_BITS;
        let slot = self.slot_of(chunk)?;
        let leaf = &mut self.leaves[slot as usize];
        let prev = leaf.slots[(vpn.0 & LEAF_MASK) as usize].take();
        if prev.is_some() {
            leaf.used -= 1;
            self.len -= 1;
            if leaf.used == 0 {
                // Recycle the leaf (slots are all `None` again) so a
                // churning workload does not leak chunks.
                self.clear_dir(chunk);
                self.free.push(slot);
            }
        }
        prev
    }

    /// Calls `f(vpn, entry)` for every page of `range` in ascending
    /// order, resolving each leaf chunk once per run instead of once per
    /// page — the structural half of the batched §4.3 walk.
    pub fn scan_range<F: FnMut(Vpn, Option<&T>)>(&self, range: PageRange, mut f: F) {
        let mut vpn = range.start.0;
        let end = range.end().0;
        while vpn < end {
            let chunk = vpn >> LEAF_BITS;
            let run_end = end.min((chunk + 1) << LEAF_BITS);
            match self.slot_of(chunk) {
                Some(slot) => {
                    let leaf = &self.leaves[slot as usize];
                    for v in vpn..run_end {
                        f(Vpn(v), leaf.slots[(v & LEAF_MASK) as usize].as_ref());
                    }
                }
                None => {
                    for v in vpn..run_end {
                        f(Vpn(v), None);
                    }
                }
            }
            vpn = run_end;
        }
    }

    // ------------------------------------------------------------------
    // Huge (2 MiB) leaf entries.
    // ------------------------------------------------------------------

    /// The base VPN of the 2 MiB chunk containing `vpn`.
    #[inline]
    #[must_use]
    pub fn chunk_base(vpn: Vpn) -> Vpn {
        Vpn(vpn.0 & !LEAF_MASK)
    }

    /// Number of 4 KiB entries present in `vpn`'s chunk (0–[`LEAF_LEN`]).
    #[must_use]
    pub fn chunk_population(&self, vpn: Vpn) -> usize {
        self.slot_of(vpn.0 >> LEAF_BITS)
            .map_or(0, |s| self.leaves[s as usize].used as usize)
    }

    /// The huge entry covering `vpn`, if its chunk is huge-mapped.
    #[inline]
    #[must_use]
    pub fn huge(&self, vpn: Vpn) -> Option<&T> {
        self.huge.get(&(vpn.0 >> LEAF_BITS))
    }

    /// `true` when `vpn`'s chunk holds a huge entry.
    #[inline]
    #[must_use]
    pub fn is_huge(&self, vpn: Vpn) -> bool {
        self.huge.contains_key(&(vpn.0 >> LEAF_BITS))
    }

    /// Number of huge entries present.
    #[must_use]
    pub fn huge_len(&self) -> usize {
        self.huge.len()
    }

    /// Installs a huge entry covering `base`'s chunk, returning the
    /// previous one if any.
    ///
    /// # Panics
    ///
    /// Panics when `base` is not 2 MiB-aligned.
    pub fn insert_huge(&mut self, base: Vpn, value: T) -> Option<T> {
        assert_eq!(base.0 & LEAF_MASK, 0, "huge entry base must be aligned");
        self.huge.insert(base.0 >> LEAF_BITS, value)
    }

    /// Removes and returns the huge entry covering `vpn`, if any.
    pub fn remove_huge(&mut self, vpn: Vpn) -> Option<T> {
        self.huge.remove(&(vpn.0 >> LEAF_BITS))
    }

    /// Drains every 4 KiB entry of `vpn`'s chunk, returning them in
    /// ascending VPN order (the promotion fold's input).
    pub fn take_chunk(&mut self, vpn: Vpn) -> Vec<(Vpn, T)> {
        let chunk = vpn.0 >> LEAF_BITS;
        let Some(slot) = self.slot_of(chunk) else {
            return Vec::new();
        };
        let leaf = &mut self.leaves[slot as usize];
        let mut out = Vec::with_capacity(leaf.used as usize);
        for (i, e) in leaf.slots.iter_mut().enumerate() {
            if let Some(v) = e.take() {
                out.push((Vpn((chunk << LEAF_BITS) | i as u64), v));
            }
        }
        self.len -= out.len();
        leaf.used = 0;
        self.clear_dir(chunk);
        self.free.push(slot);
        out
    }

    /// Iterates the huge entries in ascending base-VPN order.
    pub fn iter_huge(&self) -> impl Iterator<Item = (Vpn, &T)> + '_ {
        self.huge.iter().map(|(&c, v)| (Vpn(c << LEAF_BITS), v))
    }

    /// Iterates all entries in ascending VPN order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, &T)> + '_ {
        let mut chunks: Vec<(u64, u32)> = self
            .direct
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != 0)
            .map(|(c, &s)| (c as u64, s - 1))
            .collect();
        let mut outliers: Vec<(u64, u32)> = self.sparse.iter().map(|(&c, &s)| (c, s)).collect();
        outliers.sort_unstable();
        chunks.extend(outliers);
        chunks.into_iter().flat_map(move |(chunk, slot)| {
            self.leaves[slot as usize]
                .slots
                .iter()
                .enumerate()
                .filter_map(move |(i, t)| {
                    t.as_ref()
                        .map(|v| (Vpn((chunk << LEAF_BITS) | i as u64), v))
                })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: PageMap<u64> = PageMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(Vpn(5), 50), None);
        assert_eq!(m.insert(Vpn(5), 51), Some(50));
        assert_eq!(m.get(Vpn(5)), Some(&51));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(Vpn(5)), Some(51));
        assert_eq!(m.remove(Vpn(5)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn sparse_outliers_use_fallback() {
        let mut m: PageMap<u64> = PageMap::new();
        let far = Vpn(1 << 40); // chunk far beyond DIRECT_CHUNKS
        m.insert(far, 1);
        m.insert(Vpn(3), 2);
        assert_eq!(m.get(far), Some(&1));
        assert_eq!(m.get(Vpn(3)), Some(&2));
        assert_eq!(m.len(), 2);
        // Iteration stays ascending across the direct/sparse boundary.
        let keys: Vec<u64> = m.iter().map(|(v, _)| v.0).collect();
        assert_eq!(keys, vec![3, 1 << 40]);
        assert_eq!(m.remove(far), Some(1));
        assert!(!m.contains(far));
    }

    #[test]
    fn straddling_the_direct_boundary_iterates_in_key_order() {
        let boundary = DIRECT_CHUNKS << LEAF_BITS;
        let mut m: PageMap<u64> = PageMap::new();
        // Inserted far-first, so ascending output is not insertion order.
        let keys = [
            u64::MAX,
            (1 << 40) + 1,
            boundary + 2 * LEAF_LEN as u64,
            boundary + 1,
            boundary,
            boundary - 1,
            boundary - LEAF_LEN as u64,
            7,
        ];
        for &k in &keys {
            m.insert(Vpn(k), !k);
        }
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        let seen: Vec<u64> = m.iter().map(|(v, _)| v.0).collect();
        assert_eq!(seen, sorted);

        // Empty one sparse chunk: its leaf is recycled and its directory
        // entry goes, the neighbours on both sides stay.
        let slabs = m.leaves.len();
        assert_eq!(m.remove(Vpn(boundary)), Some(!boundary));
        assert_eq!(m.remove(Vpn(boundary + 1)), Some(!(boundary + 1)));
        assert_eq!(m.chunk_population(Vpn(boundary)), 0);
        assert!(!m.sparse.contains_key(&DIRECT_CHUNKS));
        assert_eq!(m.get(Vpn(boundary - 1)), Some(&!(boundary - 1)));
        assert_eq!(m.len(), keys.len() - 2);
        // Re-inserting brings the chunk back on the recycled leaf.
        assert_eq!(m.insert(Vpn(boundary + 1), 5), None);
        assert_eq!(m.leaves.len(), slabs, "leaf slab reused");
        assert_eq!(m.get(Vpn(boundary + 1)), Some(&5));
        assert_eq!(m.get(Vpn(boundary)), None);
        let seen: Vec<u64> = m.iter().map(|(v, _)| v.0).collect();
        sorted.retain(|&k| k != boundary);
        assert_eq!(seen, sorted);
    }

    #[test]
    fn leaves_recycle_when_emptied() {
        let mut m: PageMap<u64> = PageMap::new();
        for i in 0..LEAF_LEN as u64 {
            m.insert(Vpn(i), i);
        }
        for i in 0..LEAF_LEN as u64 {
            m.remove(Vpn(i));
        }
        let slabs_before = m.leaves.len();
        // A fresh chunk elsewhere must reuse the recycled leaf.
        m.insert(Vpn(10_000), 1);
        assert_eq!(m.leaves.len(), slabs_before, "leaf slab reused");
        assert_eq!(m.get(Vpn(10_000)), Some(&1));
    }

    #[test]
    fn iteration_is_vpn_sorted() {
        let mut m: PageMap<u64> = PageMap::new();
        for &v in &[900, 3, 512, 511, 4096, 0x4000_0000] {
            m.insert(Vpn(v), v);
        }
        let keys: Vec<u64> = m.iter().map(|(v, _)| v.0).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 6);
    }

    #[test]
    fn scan_range_crosses_leaves_and_holes() {
        let mut m: PageMap<u64> = PageMap::new();
        m.insert(Vpn(510), 510);
        m.insert(Vpn(513), 513);
        let mut seen = Vec::new();
        m.scan_range(PageRange::new(Vpn(509), 6), |vpn, e| {
            seen.push((vpn.0, e.copied()));
        });
        assert_eq!(
            seen,
            vec![
                (509, None),
                (510, Some(510)),
                (511, None),
                (512, None),
                (513, Some(513)),
                (514, None),
            ]
        );
        // A scan over an entirely absent chunk reports every page absent.
        let mut holes = 0;
        m.scan_range(PageRange::new(Vpn(5000), 700), |_, e| {
            assert!(e.is_none());
            holes += 1;
        });
        assert_eq!(holes, 700);
    }

    #[test]
    fn huge_entries_fold_and_split() {
        let mut m: PageMap<u64> = PageMap::new();
        for i in 0..LEAF_LEN as u64 {
            m.insert(Vpn(512 + i), 1000 + i);
        }
        assert_eq!(m.chunk_population(Vpn(700)), LEAF_LEN);
        let drained = m.take_chunk(Vpn(700));
        assert_eq!(drained.len(), LEAF_LEN);
        assert_eq!(drained[0], (Vpn(512), 1000));
        assert!(m.is_empty());
        assert_eq!(m.insert_huge(Vpn(512), 42), None);
        assert!(m.is_huge(Vpn(900)));
        assert!(!m.is_huge(Vpn(1024)));
        assert_eq!(m.huge(Vpn(700)), Some(&42));
        assert_eq!(m.huge_len(), 1);
        assert_eq!(PageMap::<u64>::chunk_base(Vpn(700)), Vpn(512));
        // Split: remove the huge entry; 4 KiB entries come back in.
        assert_eq!(m.remove_huge(Vpn(600)), Some(42));
        assert!(!m.is_huge(Vpn(600)));
        assert_eq!(m.huge_len(), 0);
    }

    #[test]
    #[should_panic(expected = "huge entry base must be aligned")]
    fn unaligned_huge_base_panics() {
        let mut m: PageMap<u64> = PageMap::new();
        m.insert_huge(Vpn(513), 1);
    }

    #[test]
    fn get_mut_or_insert_with_fills_once() {
        let mut m: PageMap<u64> = PageMap::new();
        *m.get_mut_or_insert_with(Vpn(7), || 1) += 10;
        *m.get_mut_or_insert_with(Vpn(7), || 99) += 10;
        assert_eq!(m.get(Vpn(7)), Some(&21));
        assert_eq!(m.len(), 1);
    }
}
