//! Page cache over simulated files.
//!
//! Caches `(file, page)` blocks in physical frames. The storage workload
//! (Figure 8) is driven by page-cache economics: the more frames the cache
//! may use, the fewer reads reach the disk.

use std::collections::HashMap;

use crate::types::{FileId, FrameId};

use simcore::time::SimDuration;

/// Key of one cached page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Backing file.
    pub file: FileId,
    /// Page index within the file.
    pub page: u64,
}

/// Outcome of a cached read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedRead {
    /// `true` when the page was already cached.
    pub hit: bool,
    /// Time charged for the access (disk time on a miss, negligible on a
    /// hit — the CPU copy is charged by the caller).
    pub cost: SimDuration,
}

/// An LRU page cache backed by the shared frame pool.
///
/// The cache does not own a `FrameAllocator`; the
/// [`crate::manager::MemoryManager`] hands frames in and reclaims them,
/// so file cache and anonymous memory compete for the same physical
/// memory, as in Linux.
#[derive(Debug, Default)]
pub struct PageCache {
    map: HashMap<CacheKey, FrameId>,
    lru: crate::lru::LruTracker,
    // LruTracker keys on (SpaceId, Vpn); the cache reuses it by packing
    // the file id into the space id and the page into the vpn.
    hits: u64,
    misses: u64,
}

fn lru_key(key: CacheKey) -> (crate::types::SpaceId, crate::types::Vpn) {
    (
        crate::types::SpaceId(key.file.0),
        crate::types::Vpn(key.page),
    )
}

impl PageCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        PageCache::default()
    }

    /// Number of cached pages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Cache hits since creation.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses since creation.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit ratio in `[0, 1]`; zero before any access.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Looks up a page, promoting it in LRU order on a hit. `tick` is
    /// the shared recency clock value of this access.
    pub fn lookup(&mut self, key: CacheKey, tick: u64) -> Option<FrameId> {
        let frame = self.map.get(&key).copied();
        if let Some(_f) = frame {
            let (s, v) = lru_key(key);
            self.lru.touch_tick(s, v, tick);
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        frame
    }

    /// Checks residency without affecting statistics or LRU order.
    #[must_use]
    pub fn contains(&self, key: CacheKey) -> bool {
        self.map.contains_key(&key)
    }

    /// Inserts a page read from disk into `frame` at recency `tick`.
    ///
    /// # Panics
    ///
    /// Panics if the key is already cached (the manager must look up
    /// before inserting).
    pub fn insert(&mut self, key: CacheKey, frame: FrameId, tick: u64) {
        let prev = self.map.insert(key, frame);
        assert!(prev.is_none(), "page already cached");
        let (s, v) = lru_key(key);
        self.lru.touch_tick(s, v, tick);
    }

    /// The recency tick of the oldest cached page, if any.
    pub fn oldest_tick(&mut self) -> Option<u64> {
        self.lru.oldest_tick()
    }

    /// Evicts the least-recently-used page, returning its frame.
    pub fn evict_oldest(&mut self) -> Option<FrameId> {
        let (s, v) = self.lru.pop_oldest()?;
        let key = CacheKey {
            file: FileId(s.0),
            page: v.0,
        };
        Some(self.map.remove(&key).expect("lru/map out of sync"))
    }

    /// Removes a specific page, returning its frame if it was cached.
    pub fn remove(&mut self, key: CacheKey) -> Option<FrameId> {
        let frame = self.map.remove(&key)?;
        let (s, v) = lru_key(key);
        self.lru.remove(s, v);
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(page: u64) -> CacheKey {
        CacheKey {
            file: FileId(1),
            page,
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut c = PageCache::new();
        assert_eq!(c.lookup(key(5), 1), None);
        c.insert(key(5), FrameId(9), 2);
        assert_eq!(c.lookup(key(5), 3), Some(FrameId(9)));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn evicts_lru_first() {
        let mut c = PageCache::new();
        c.insert(key(1), FrameId(1), 1);
        c.insert(key(2), FrameId(2), 2);
        c.lookup(key(1), 3); // promote 1
        assert_eq!(c.oldest_tick(), Some(2));
        assert_eq!(c.evict_oldest(), Some(FrameId(2)));
        assert_eq!(c.evict_oldest(), Some(FrameId(1)));
        assert_eq!(c.evict_oldest(), None);
    }

    #[test]
    fn files_do_not_collide() {
        let mut c = PageCache::new();
        c.insert(
            CacheKey {
                file: FileId(1),
                page: 7,
            },
            FrameId(1),
            1,
        );
        c.insert(
            CacheKey {
                file: FileId(2),
                page: 7,
            },
            FrameId(2),
            2,
        );
        assert_eq!(c.len(), 2);
        assert_eq!(
            c.remove(CacheKey {
                file: FileId(2),
                page: 7
            }),
            Some(FrameId(2))
        );
        assert_eq!(c.len(), 1);
    }
}
