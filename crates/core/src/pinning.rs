//! Registration strategies: the pinning landscape of §2.2.
//!
//! The paper positions NPFs against three zero-copy alternatives plus
//! copying (Table 3):
//!
//! * **static pinning** — pin everything up front; simple, kills the
//!   canonical memory optimizations (the beds' pinned buffers model it,
//!   so it is no [`Strategy`] here),
//! * **fine-grained pinning** — pin/map around every DMA; safe and
//!   memory-friendly but slow and it complicates the programming model,
//! * **coarse-grained pinning (pin-down cache)** — a bounded cache of
//!   pinned regions with eviction; fast when it hits, complex, and the
//!   cached memory is unusable by the OS,
//! * **copying** — bounce through a small pre-registered buffer,
//!   paying CPU bandwidth per byte,
//! * **ODP/NPF** — register instantly; page faults resolve on demand.
//!
//! [`Registrar`] prices the other four against the shared [`NpfEngine`],
//! so every experiment compares them on identical memory state.

use memsim::lru::LruTracker;
use memsim::manager::MemError;
use memsim::types::{PageRange, SpaceId, VirtAddr, Vpn};
use simcore::time::SimDuration;
use simcore::units::ByteSize;

use iommu::DomainId;

use crate::cost::COST;
use crate::npf::NpfEngine;

/// The strategy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Pin and map immediately before each transfer; unpin after.
    FineGrained,
    /// Keep a bounded cache of pinned ranges with LRU eviction.
    PinDownCache {
        /// Upper bound on pinned bytes.
        capacity: ByteSize,
    },
    /// On-demand paging: no pinning; NPFs resolve access.
    Odp,
    /// Copy through a pinned bounce buffer.
    Copy,
}

/// Statistics of a registrar.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegistrarStats {
    /// Transfers prepared.
    pub transfers: u64,
    /// Pin-down-cache hits.
    pub cache_hits: u64,
    /// Pin-down-cache misses (pin performed).
    pub cache_misses: u64,
    /// Cache evictions (unpins to make room).
    pub cache_evictions: u64,
    /// Bytes copied (Copy strategy).
    pub bytes_copied: u64,
    /// Pages currently pinned by this registrar.
    pub pinned_pages: u64,
}

/// The pin-down cache tracks one domain's pages; the [`LruTracker`]
/// key space is unused.
const CACHE_SPACE: SpaceId = SpaceId(0);

/// Applies one [`Strategy`] against the NPF engine.
#[derive(Debug)]
pub struct Registrar {
    strategy: Strategy,
    domain: DomainId,
    /// Pin-down cache of pinned pages: O(1) touch and LRU eviction.
    cache: LruTracker,
    stats: RegistrarStats,
}

impl Registrar {
    /// Creates a registrar applying `strategy` to DMAs of `domain`.
    #[must_use]
    pub fn new(strategy: Strategy, domain: DomainId) -> Self {
        Registrar {
            strategy,
            domain,
            cache: LruTracker::new(),
            stats: RegistrarStats::default(),
        }
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> RegistrarStats {
        self.stats
    }

    /// Pre-transfer work for `addr..addr+len`. Returns the cost charged
    /// before the DMA may start.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn prepare_transfer(
        &mut self,
        engine: &mut NpfEngine,
        addr: VirtAddr,
        len: u64,
    ) -> Result<SimDuration, MemError> {
        self.stats.transfers += 1;
        let range = PageRange::covering(addr, len.max(1));
        match self.strategy {
            Strategy::Odp => Ok(SimDuration::ZERO),
            Strategy::FineGrained => {
                let cost = engine.pin_and_map(self.domain, range)?;
                self.stats.pinned_pages += range.pages;
                Ok(cost)
            }
            Strategy::PinDownCache { capacity } => {
                let capacity_pages = capacity.bytes() / memsim::PAGE_SIZE;
                let mut cost = COST.pindown_lookup;
                // Which pages miss?
                let missing: Vec<Vpn> = range
                    .iter()
                    .filter(|&v| !self.cache.contains(CACHE_SPACE, v))
                    .collect();
                if missing.is_empty() {
                    self.stats.cache_hits += 1;
                    for vpn in range.iter() {
                        self.cache.touch(CACHE_SPACE, vpn);
                    }
                    return Ok(cost);
                }
                self.stats.cache_misses += 1;
                // Refresh the hit pages first, so eviction reaches a page
                // of this transfer only once every other page is gone.
                for vpn in range.iter() {
                    if self.cache.contains(CACHE_SPACE, vpn) {
                        self.cache.touch(CACHE_SPACE, vpn);
                    }
                }
                // Evict LRU pages until the new ones fit, but never one
                // the transfer is about to use: a range larger than the
                // cache overfills it instead.
                while self.cache.len() as u64 + missing.len() as u64 > capacity_pages {
                    let Some((_, victim)) = self.cache.pop_oldest() else {
                        break;
                    };
                    if range.contains(victim) {
                        self.cache.touch(CACHE_SPACE, victim);
                        break;
                    }
                    cost += engine.unpin_and_unmap(self.domain, PageRange::new(victim, 1))?;
                    self.stats.cache_evictions += 1;
                    self.stats.pinned_pages -= 1;
                }
                for vpn in missing {
                    cost += engine.pin_and_map(self.domain, PageRange::new(vpn, 1))?;
                    self.cache.touch(CACHE_SPACE, vpn);
                    self.stats.pinned_pages += 1;
                }
                // Refresh the recency of the hit pages too.
                for vpn in range.iter() {
                    self.cache.touch(CACHE_SPACE, vpn);
                }
                Ok(cost)
            }
            Strategy::Copy => {
                // Touch the source (CPU copy faults it in via the MMU,
                // not the NIC) and pay memcpy bandwidth.
                let touch =
                    engine.touch_range(engine.space_of(self.domain), addr, len.max(1), false)?;
                self.stats.bytes_copied += len;
                Ok(touch + COST.memcpy(len))
            }
        }
    }

    /// Post-transfer work (fine-grained unpinning; copy-out for
    /// receives under `Copy`). `inbound` marks receive completions.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn finish_transfer(
        &mut self,
        engine: &mut NpfEngine,
        addr: VirtAddr,
        len: u64,
        inbound: bool,
    ) -> Result<SimDuration, MemError> {
        if len == 0 {
            return Ok(SimDuration::ZERO);
        }
        let range = PageRange::covering(addr, len);
        match self.strategy {
            Strategy::FineGrained => {
                let cost = engine.unpin_and_unmap(self.domain, range)?;
                self.stats.pinned_pages = self.stats.pinned_pages.saturating_sub(range.pages);
                Ok(cost)
            }
            Strategy::Copy if inbound => {
                let touch =
                    engine.touch_range(engine.space_of(self.domain), addr, len.max(1), true)?;
                self.stats.bytes_copied += len;
                Ok(touch + COST.memcpy(len))
            }
            _ => Ok(SimDuration::ZERO),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::npf::{NpfConfig, NpfEngine};
    use memsim::manager::{MemConfig, MemoryManager};
    use memsim::space::Backing;
    use simcore::rng::SimRng;

    fn setup(strategy: Strategy) -> (NpfEngine, Registrar, PageRange) {
        let mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::mib(64),
            ..MemConfig::default()
        });
        let mut e = NpfEngine::new(NpfConfig::default(), mm, SimRng::new(1));
        let s = e.memory_mut().create_space();
        let r = e
            .memory_mut()
            .mmap(s, ByteSize::mib(8), Backing::Anonymous)
            .expect("mmap");
        let d = e.create_channel(s);
        (e, Registrar::new(strategy, d), r)
    }

    #[test]
    fn odp_registration_is_instant_and_pins_nothing() {
        let (mut e, mut reg, r) = setup(Strategy::Odp);
        let cost = reg
            .prepare_transfer(&mut e, r.start.base(), 64 * 1024)
            .expect("prepare");
        assert_eq!(cost, SimDuration::ZERO);
        assert_eq!(
            e.memory()
                .space(e.space_of(reg.domain))
                .unwrap()
                .pinned_pages(),
            0
        );
    }

    #[test]
    fn fine_grained_pays_per_transfer() {
        let (mut e, mut reg, r) = setup(Strategy::FineGrained);
        let addr = r.start.base();
        let prep = reg.prepare_transfer(&mut e, addr, 64 * 1024).expect("prep");
        assert!(prep > SimDuration::ZERO);
        assert!(e.dma_ready(reg.domain, addr, 64 * 1024, true));
        let fin = reg
            .finish_transfer(&mut e, addr, 64 * 1024, false)
            .expect("finish");
        assert!(fin > SimDuration::ZERO);
        assert!(!e.dma_ready(reg.domain, addr, 1, true), "unmapped after");
    }

    #[test]
    fn pindown_cache_hits_after_warmup() {
        let (mut e, mut reg, r) = setup(Strategy::PinDownCache {
            capacity: ByteSize::mib(4),
        });
        let addr = r.start.base();
        let cold = reg
            .prepare_transfer(&mut e, addr, 128 * 1024)
            .expect("prep");
        let warm = reg
            .prepare_transfer(&mut e, addr, 128 * 1024)
            .expect("prep");
        assert!(
            warm < cold / 10,
            "warm hit must be far cheaper: cold {cold}, warm {warm}"
        );
        assert_eq!(reg.stats().cache_hits, 1);
        assert_eq!(reg.stats().cache_misses, 1);
    }

    #[test]
    fn pindown_cache_evicts_at_capacity() {
        let (mut e, mut reg, r) = setup(Strategy::PinDownCache {
            capacity: ByteSize::kib(64), // 16 pages
        });
        // Two disjoint 64 KiB buffers thrash a 64 KiB cache.
        let a = r.start.base();
        let b = Vpn(r.start.0 + 256).base();
        reg.prepare_transfer(&mut e, a, 64 * 1024).expect("prep");
        reg.prepare_transfer(&mut e, b, 64 * 1024).expect("prep");
        assert!(reg.stats().cache_evictions >= 16);
        assert!(reg.stats().pinned_pages <= 16);
        // The evicted range no longer translates.
        assert!(!e.dma_ready(reg.domain, a, 64 * 1024, true));
    }

    /// A transfer whose hit page is the cache's oldest must not evict
    /// it: the page would be unpinned and unmapped while the transfer
    /// still counts on it, and re-entered into the cache unpinned.
    #[test]
    fn pindown_cache_never_evicts_a_page_of_the_transfer() {
        let (mut e, mut reg, r) = setup(Strategy::PinDownCache {
            capacity: ByteSize::kib(16), // 4 pages
        });
        let page = |i: u64| Vpn(r.start.0 + i).base();
        // Pages 2..6 fill the cache; page 2 is the oldest.
        reg.prepare_transfer(&mut e, page(2), 4 * 4096)
            .expect("prep");
        // Pages 0..3: page 2 hits, pages 0 and 1 miss.
        reg.prepare_transfer(&mut e, page(0), 3 * 4096)
            .expect("prep");
        assert!(e.dma_ready(reg.domain, page(0), 3 * 4096, true));
        assert_eq!(reg.stats().cache_evictions, 2, "pages 3 and 4 go");
        assert_eq!(reg.stats().pinned_pages, 4);
        let space = e.memory().space(e.space_of(reg.domain)).unwrap();
        assert_eq!(space.pinned_pages(), 4, "the stats match the host");
        assert_eq!(reg.cache.len(), 4);
    }

    #[test]
    fn copy_strategy_prices_bytes() {
        let (mut e, mut reg, r) = setup(Strategy::Copy);
        let small = reg
            .prepare_transfer(&mut e, r.start.base(), 16 * 1024)
            .expect("prep");
        // Fresh pages beyond the first transfer.
        let big = reg
            .prepare_transfer(&mut e, Vpn(r.start.0 + 512).base(), 128 * 1024)
            .expect("prep");
        assert!(big > small, "copy cost scales with bytes");
        assert_eq!(reg.stats().bytes_copied, (16 + 128) * 1024);
        // Inbound finish pays the copy-out.
        let fin = reg
            .finish_transfer(&mut e, r.start.base(), 16 * 1024, true)
            .expect("finish");
        assert!(fin > SimDuration::ZERO);
    }
}
