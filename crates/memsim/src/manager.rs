//! The host memory manager: demand paging, reclaim, pinning, cgroups.
//!
//! [`MemoryManager`] is the OS side of Figure 2's NPF flow: it owns the
//! frame pool, resolves page faults (allocating, zero-filling or
//! swapping in), serves buffered file reads through the page cache,
//! reclaims memory under pressure, and reports **invalidations** — pages it took away — so the
//! NPF driver can purge IOMMU mappings (the MMU-notifier path).
//!
//! The manager is sans-IO: every operation returns the simulated time it
//! cost; the caller (testbed event loop) advances the clock.

use std::collections::HashMap;

use simcore::journal;
use simcore::stats::{CounterId, Counters};
use simcore::time::SimDuration;
use simcore::trace::{self, ArgValue};
use simcore::units::ByteSize;

use crate::frame::FrameAllocator;
use crate::lru::LruTracker;
use crate::pagecache::{CacheKey, PageCache};
use crate::space::{AddressSpace, Backing, PageState, SpaceError};
use crate::swap::{DiskConfig, SwapDevice};
use crate::types::{FileId, FrameId, PageRange, SpaceId, Vpn, PAGE_SIZE};

/// A memory-control group: a set of address spaces sharing a resident
/// limit (the paper constrains memcached pairs with Linux cgroups, §6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CgroupId(pub u32);

/// Configuration of a slow byte-addressable memory tier (the hemem
/// idiom: DRAM in front, NVM behind, with the OS migrating pages
/// between them on fault/reclaim events). The tier's device is always
/// [`DiskConfig::nvm`].
#[derive(Debug, Clone, Copy)]
pub struct TierConfig {
    /// Capacity of the slow tier.
    pub capacity: ByteSize,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            capacity: ByteSize::gib(2),
        }
    }
}

/// High bit of a swap-slot id marks a slot in the NVM tier rather than
/// the swap device; [`PageState::SwappedOut`] carries either unchanged.
const NVM_SLOT_TAG: u64 = 1 << 63;

/// Fixed OS software cost of resolving any fault (trap + bookkeeping).
const FAULT_SW_COST: SimDuration = SimDuration::from_micros(1);

/// Extra OS software cost per page resolved (translation, zeroing); the
/// paper measures ~115 ns/page of OS work for large messages (§4).
const PER_PAGE_SW_COST: SimDuration = SimDuration::from_nanos(115);

/// Configuration of the memory subsystem. The OS's own fault costs are
/// the constants `FAULT_SW_COST` and `PER_PAGE_SW_COST`, not settings.
#[derive(Debug, Clone, Copy)]
pub struct MemConfig {
    /// Physical memory available to the host.
    pub total_memory: ByteSize,
    /// Disk model for swap and page-cache misses.
    pub disk: DiskConfig,
    /// Swap space.
    pub swap_capacity: ByteSize,
    /// Optional slow memory tier. Cold dirty pages demote to NVM before
    /// falling back to swap; re-faulting promotes them back to DRAM,
    /// charging the (much cheaper) NVM fetch as
    /// [`FaultResolution::tier_cost`].
    pub tier: Option<TierConfig>,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            total_memory: ByteSize::gib(8),
            disk: DiskConfig::hard_drive(),
            swap_capacity: ByteSize::gib(16),
            tier: None,
        }
    }
}

/// The class of a resolved fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Resolved without disk I/O (zero-fill).
    Minor,
    /// Required I/O (swap-in, or promotion from the slow tier).
    Major,
}

/// A page mapping the OS revoked; consumers with I/O mappings (the NPF
/// driver) must invalidate them before the frame is reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Invalidation {
    /// The space that lost the page.
    pub space: SpaceId,
    /// The page that went away.
    pub vpn: Vpn,
}

/// Result of resolving one fault (or touching one page).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultResolution {
    /// Minor or major.
    pub kind: FaultKind,
    /// The frame now backing the page.
    pub frame: FrameId,
    /// Total simulated cost (software + any disk I/O, including eviction
    /// writeback performed to make room).
    pub cost: SimDuration,
    /// The disk-I/O share of `cost` (swap-in / page-cache miss). NPF
    /// drivers charge this on top of their own software model rather
    /// than double-counting the CPU components.
    pub io_cost: SimDuration,
    /// The share of `io_cost` spent fetching the page from the slow
    /// memory tier (NVM promotion). NPF drivers re-label this slice of
    /// their OS span as tier-migration time in the fault journal.
    pub tier_cost: SimDuration,
    /// Pages revoked to make room.
    pub invalidations: Vec<Invalidation>,
}

/// Result of touching a page from the CPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// The fault that was resolved, or `None` when the page was resident.
    pub fault: Option<FaultResolution>,
}

impl Access {
    /// The time the access cost (zero for resident pages).
    #[must_use]
    pub fn cost(&self) -> SimDuration {
        self.fault.as_ref().map_or(SimDuration::ZERO, |f| f.cost)
    }

    /// Invalidations produced while making room.
    #[must_use]
    pub fn invalidations(&self) -> &[Invalidation] {
        self.fault.as_ref().map_or(&[], |f| &f.invalidations)
    }
}

/// Result of pinning a range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PinOutcome {
    /// Total cost: faulting in non-resident pages plus pin bookkeeping.
    pub cost: SimDuration,
    /// Number of pages that had to be faulted in.
    pub faulted_pages: u64,
    /// Invalidations produced while making room.
    pub invalidations: Vec<Invalidation>,
}

/// Errors from memory-management operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Unknown address space.
    NoSuchSpace(SpaceId),
    /// Structural error (unmapped page, overlapping mmap).
    Space(SpaceError),
    /// All memory is pinned or otherwise unreclaimable.
    OutOfMemory,
    /// The swap device is full.
    SwapFull,
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::NoSuchSpace(id) => write!(f, "no such address space {id}"),
            MemError::Space(e) => write!(f, "{e}"),
            MemError::OutOfMemory => write!(f, "out of memory: nothing reclaimable"),
            MemError::SwapFull => write!(f, "swap space exhausted"),
        }
    }
}

impl std::error::Error for MemError {}

impl From<SpaceError> for MemError {
    fn from(e: SpaceError) -> Self {
        MemError::Space(e)
    }
}

/// The host memory subsystem.
#[derive(Debug)]
pub struct MemoryManager {
    config: MemConfig,
    frames: FrameAllocator,
    /// Indexed by `SpaceId.0`; ids are handed out densely below.
    spaces: Vec<AddressSpace>,
    space_group: HashMap<SpaceId, CgroupId>,
    group_limit: HashMap<CgroupId, u64>, // pages
    group_resident: HashMap<CgroupId, u64>,
    group_members: HashMap<CgroupId, Vec<SpaceId>>,
    swap: SwapDevice,
    /// The slow memory tier, when configured: demotion target for cold
    /// dirty pages ahead of the swap device.
    nvm: Option<SwapDevice>,
    cache: PageCache,
    lru: LruTracker,
    /// Shared recency clock across mapped memory and the page cache
    /// (their relative ages decide reclaim order, as in Linux).
    clock: u64,
    counters: Counters,
    ids: MemCounterIds,
    next_space: u32,
    next_group: u32,
}

/// Ids of the counters the manager bumps, registered once in
/// [`MemoryManager::new`] so the fault and reclaim paths index instead
/// of hashing.
#[derive(Debug, Clone, Copy)]
struct MemCounterIds {
    cache_drops: CounterId,
    evictions: CounterId,
    major_faults: CounterId,
    minor_faults: CounterId,
    swap_outs: CounterId,
    tier_demotions: CounterId,
    tier_promotions: CounterId,
}

impl MemCounterIds {
    fn register(counters: &mut Counters) -> Self {
        MemCounterIds {
            cache_drops: counters.register("cache_drops"),
            evictions: counters.register("evictions"),
            major_faults: counters.register("major_faults"),
            minor_faults: counters.register("minor_faults"),
            swap_outs: counters.register("swap_outs"),
            tier_demotions: counters.register("tier_demotions"),
            tier_promotions: counters.register("tier_promotions"),
        }
    }
}

impl MemoryManager {
    fn next_tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Creates a manager over `config.total_memory` of physical memory.
    #[must_use]
    pub fn new(config: MemConfig) -> Self {
        let total_frames = config.total_memory.bytes() / PAGE_SIZE;
        let swap_slots = config.swap_capacity.bytes() / PAGE_SIZE;
        let mut counters = Counters::new();
        let ids = MemCounterIds::register(&mut counters);
        MemoryManager {
            frames: FrameAllocator::new(total_frames),
            spaces: Vec::new(),
            space_group: HashMap::new(),
            group_limit: HashMap::new(),
            group_resident: HashMap::new(),
            group_members: HashMap::new(),
            swap: SwapDevice::new(config.disk, swap_slots),
            nvm: config
                .tier
                .map(|t| SwapDevice::new(DiskConfig::nvm(), t.capacity.bytes() / PAGE_SIZE)),
            cache: PageCache::new(),
            lru: LruTracker::new(),
            clock: 0,
            counters,
            ids,
            next_space: 0,
            next_group: 0,
            config,
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Sets the invariant-note namespace of the frame allocator, so a
    /// multi-node simulation never aliases two nodes' frame ids inside
    /// one global checker.
    pub fn set_chaos_namespace(&mut self, ns: u64) {
        self.frames.set_chaos_namespace(ns);
    }

    /// Statistics counters (`minor_faults`, `major_faults`, `evictions`,
    /// `swap_outs`, `cache_drops`).
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Free physical frames.
    #[must_use]
    pub fn free_frames(&self) -> u64 {
        self.frames.free_count()
    }

    /// Total physical frames.
    #[must_use]
    pub fn total_frames(&self) -> u64 {
        self.frames.total()
    }

    /// Pages held by the page cache.
    #[must_use]
    pub fn cache_pages(&self) -> u64 {
        self.cache.len() as u64
    }

    /// Page cache hit ratio so far.
    #[must_use]
    pub fn cache_hit_ratio(&self) -> f64 {
        self.cache.hit_ratio()
    }

    /// Creates a new, unconstrained address space.
    pub fn create_space(&mut self) -> SpaceId {
        let id = SpaceId(self.next_space);
        self.next_space += 1;
        self.spaces.push(AddressSpace::new(id));
        id
    }

    /// Creates a memory cgroup with a resident-set limit.
    pub fn create_cgroup(&mut self, limit: ByteSize) -> CgroupId {
        let id = CgroupId(self.next_group);
        self.next_group += 1;
        self.group_limit.insert(id, limit.bytes() / PAGE_SIZE);
        self.group_resident.insert(id, 0);
        self.group_members.insert(id, Vec::new());
        id
    }

    /// Puts a space into a cgroup (at creation time, before it has
    /// resident pages).
    ///
    /// # Panics
    ///
    /// Panics if the space already has resident pages or the group does
    /// not exist.
    pub fn attach_to_cgroup(&mut self, space: SpaceId, group: CgroupId) {
        let s = self
            .spaces
            .get(space.0 as usize)
            .expect("attach of unknown space");
        assert_eq!(s.resident_pages(), 0, "attach must precede residency");
        assert!(self.group_limit.contains_key(&group), "unknown cgroup");
        self.space_group.insert(space, group);
        self.group_members
            .get_mut(&group)
            .expect("group exists")
            .push(space);
    }

    /// Direct read-only view of a space.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NoSuchSpace`] for unknown ids.
    pub fn space(&self, id: SpaceId) -> Result<&AddressSpace, MemError> {
        self.spaces
            .get(id.0 as usize)
            .ok_or(MemError::NoSuchSpace(id))
    }

    fn space_mut(&mut self, id: SpaceId) -> Result<&mut AddressSpace, MemError> {
        self.spaces
            .get_mut(id.0 as usize)
            .ok_or(MemError::NoSuchSpace(id))
    }

    /// Maps `size` of anonymous memory into `space`. The [`Backing`]
    /// argument is always `Backing::Anonymous`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NoSuchSpace`] for unknown ids.
    pub fn mmap(
        &mut self,
        space: SpaceId,
        size: ByteSize,
        _backing: Backing,
    ) -> Result<PageRange, MemError> {
        Ok(self.space_mut(space)?.mmap(size.pages()))
    }

    /// Maps `range` at a fixed location (the testbeds use well-known
    /// buffer addresses). The [`Backing`] argument is always
    /// `Backing::Anonymous`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NoSuchSpace`] or a structural overlap error.
    pub fn mmap_fixed(
        &mut self,
        space: SpaceId,
        range: PageRange,
        _backing: Backing,
    ) -> Result<(), MemError> {
        self.space_mut(space)?.mmap_fixed(range)?;
        Ok(())
    }

    /// Unmaps `range`, freeing its frames.
    ///
    /// # Errors
    ///
    /// Propagates structural errors from the space.
    pub fn munmap(&mut self, space: SpaceId, range: PageRange) -> Result<(), MemError> {
        let freed = self.space_mut(space)?.munmap(range)?;
        let group = self.space_group.get(&space).copied();
        for (vpn, frame) in freed {
            self.lru.remove(space, vpn);
            self.frames.free(frame);
            if let Some(g) = group {
                *self.group_resident.get_mut(&g).expect("group exists") -= 1;
            }
        }
        Ok(())
    }

    /// Touches one page from the CPU, resolving a fault if needed.
    ///
    /// # Errors
    ///
    /// Structural errors, plus [`MemError::OutOfMemory`]/[`MemError::SwapFull`]
    /// when reclaim cannot make room.
    pub fn touch(&mut self, space: SpaceId, vpn: Vpn, write: bool) -> Result<Access, MemError> {
        let s = self.space_mut(space)?;
        if let Some(pinned) = s.touch_resident(vpn, write) {
            if !pinned {
                let t = self.next_tick();
                self.lru.touch_tick(space, vpn, t);
            }
            return Ok(Access { fault: None });
        }
        let fault = self.resolve_fault(space, vpn, write)?;
        Ok(Access { fault: Some(fault) })
    }

    /// The recency tick of a resident, reclaimable page: reads the PTE
    /// and the LRU entry a [`MemoryManager::touch`] of it would update,
    /// and changes neither. `None` for an unknown space, a page that is
    /// not resident, or a pinned one (reclaim does not track it).
    #[must_use]
    pub fn recency(&self, space: SpaceId, vpn: Vpn) -> Option<u64> {
        self.spaces.get(space.0 as usize)?.frame_of(vpn)?;
        self.lru.tick_of(space, vpn)
    }

    /// Touches every page of a byte range, summing costs. Convenience
    /// for workloads that walk buffers.
    ///
    /// # Errors
    ///
    /// As for [`MemoryManager::touch`].
    pub fn touch_range(
        &mut self,
        space: SpaceId,
        range: PageRange,
        write: bool,
    ) -> Result<(SimDuration, Vec<Invalidation>), MemError> {
        let mut cost = SimDuration::ZERO;
        let mut inv = Vec::new();
        for vpn in range.iter() {
            let a = self.touch(space, vpn, write)?;
            cost += a.cost();
            inv.extend_from_slice(a.invalidations());
        }
        Ok((cost, inv))
    }

    /// Resolves a fault on `vpn`, making the page resident.
    ///
    /// This is the entry point the NPF driver uses on behalf of the NIC
    /// (step 3 of Figure 2): it performs allocation, zero-fill or
    /// swap-in, reclaiming memory if necessary.
    ///
    /// # Errors
    ///
    /// Structural errors, plus [`MemError::OutOfMemory`]/[`MemError::SwapFull`]
    /// when reclaim cannot make room.
    ///
    /// # Panics
    ///
    /// Panics if called on a page that is already resident.
    pub fn resolve_fault(
        &mut self,
        space: SpaceId,
        vpn: Vpn,
        write: bool,
    ) -> Result<FaultResolution, MemError> {
        let pte = self.space(space)?.pte(vpn)?;
        assert!(
            pte.frame().is_none(),
            "resolve_fault on resident page {vpn}"
        );

        let mut cost = FAULT_SW_COST + PER_PAGE_SW_COST;
        let mut io_cost = SimDuration::ZERO;
        let mut tier_cost = SimDuration::ZERO;
        let mut invalidations = Vec::new();

        // Respect the cgroup resident limit before taking a new frame.
        let group = self.space_group.get(&space).copied();
        if let Some(g) = group {
            let limit = self.group_limit[&g];
            while self.group_resident[&g] >= limit {
                let (inv, c) = self.evict_from_group(g)?;
                cost += c;
                invalidations.push(inv);
            }
        }

        let (frame, alloc_cost, mut alloc_inv) = self.alloc_frame()?;
        cost += alloc_cost;
        invalidations.append(&mut alloc_inv);

        // Fill the page: swap it in, or zero-fill it.
        let kind = match pte.state {
            PageState::SwappedOut { slot } => {
                if slot & NVM_SLOT_TAG != 0 {
                    // Promotion from the slow tier back into DRAM.
                    let nvm = self.nvm.as_mut().expect("tagged slot implies a tier");
                    let io = nvm.swap_in(slot & !NVM_SLOT_TAG);
                    cost += io;
                    io_cost += io;
                    tier_cost += io;
                    self.counters.bump_id(self.ids.tier_promotions);
                    journal::with(|j| j.mark(journal::MarkKind::TierMigrate, vpn.0));
                } else {
                    let io = self.swap.swap_in(slot);
                    cost += io;
                    io_cost += io;
                }
                self.counters.bump_id(self.ids.major_faults);
                FaultKind::Major
            }
            _ => {
                // Zero-fill (delayed allocation). Charged in the per-page
                // software cost.
                self.counters.bump_id(self.ids.minor_faults);
                FaultKind::Minor
            }
        };

        let s = &mut self.spaces[space.0 as usize];
        s.install(vpn, frame, write);
        let t = self.next_tick();
        self.lru.touch_tick(space, vpn, t);
        if let Some(g) = group {
            *self.group_resident.get_mut(&g).expect("group exists") += 1;
        }

        if kind == FaultKind::Major {
            journal::with(|j| j.mark(journal::MarkKind::BackingFetch, vpn.0));
        }
        trace::with(|t| {
            // Host fault handling has no simulated clock of its own
            // (costs are returned to the caller); stamp with the
            // recorder's clock.
            t.instant(
                t.clock(),
                "memsim",
                if kind == FaultKind::Major {
                    "major_fault"
                } else {
                    "minor_fault"
                },
                vec![
                    ("vpn", ArgValue::U64(vpn.0)),
                    ("write", ArgValue::Bool(write)),
                ],
            );
            let m = t.metrics_mut();
            m.counter_add(
                if kind == FaultKind::Major {
                    "memsim.major_faults"
                } else {
                    "memsim.minor_faults"
                },
                1,
            );
            m.duration_record("memsim.fault_cost", cost);
        });

        Ok(FaultResolution {
            kind,
            frame,
            cost,
            io_cost,
            tier_cost,
            invalidations,
        })
    }

    /// Allocates a frame, reclaiming if the pool is exhausted.
    fn alloc_frame(&mut self) -> Result<(FrameId, SimDuration, Vec<Invalidation>), MemError> {
        if let Some(f) = self.frames.alloc() {
            return Ok((f, SimDuration::ZERO, Vec::new()));
        }
        let mut cost = SimDuration::ZERO;
        let mut invalidations = Vec::new();
        loop {
            let (inv, c) = self.reclaim_one()?;
            cost += c;
            if let Some(i) = inv {
                invalidations.push(i);
            }
            if let Some(f) = self.frames.alloc() {
                return Ok((f, cost, invalidations));
            }
        }
    }

    /// Forcibly reclaims up to `pages` pages — the entry point for
    /// chaos-injected memory-pressure bursts and eviction storms (a
    /// noisy neighbour ballooning, kswapd panicking). Victims follow the
    /// normal unified-LRU policy; the returned invalidations MUST be
    /// run through the IOMMU invalidation flow, exactly as for reclaim
    /// triggered by allocation.
    pub fn reclaim(&mut self, pages: u64) -> Vec<Invalidation> {
        let mut invalidations = Vec::new();
        for _ in 0..pages {
            match self.reclaim_one() {
                Ok((inv, _cost)) => invalidations.extend(inv),
                Err(_) => break, // nothing reclaimable left
            }
        }
        if !invalidations.is_empty() {
            trace::with(|t| {
                let n = invalidations.len() as u64;
                t.metrics_mut().counter_add("memsim.chaos_reclaimed", n);
            });
        }
        invalidations
    }

    /// Reclaims one page: whichever of the page cache and the mapped
    /// LRU holds the globally least-recently-used page loses it (one
    /// unified LRU, as in Linux).
    fn reclaim_one(&mut self) -> Result<(Option<Invalidation>, SimDuration), MemError> {
        let cache_age = self.cache.oldest_tick();
        let mapped_age = self.lru.oldest_tick();
        let take_cache = match (cache_age, mapped_age) {
            (Some(c), Some(m)) => c < m,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return Err(MemError::OutOfMemory),
        };
        if take_cache {
            let frame = self.cache.evict_oldest().expect("age implies entry");
            self.frames.free(frame);
            self.counters.bump_id(self.ids.cache_drops);
            return Ok((None, SimDuration::ZERO));
        }
        let (space, vpn) = self.lru.pop_oldest().expect("age implies entry");
        let cost = self.evict_mapped(space, vpn)?;
        Ok((Some(Invalidation { space, vpn }), cost))
    }

    /// Evicts the LRU page of a cgroup: the least recently used page
    /// across all member spaces.
    fn evict_from_group(
        &mut self,
        group: CgroupId,
    ) -> Result<(Invalidation, SimDuration), MemError> {
        let members = self.group_members.get(&group).expect("group exists");
        let victim_space = members
            .iter()
            .filter_map(|&m| self.lru.oldest_tick_in(m).map(|t| (t, m)))
            .min()
            .map(|(_, m)| m);
        let Some(space) = victim_space else {
            return Err(MemError::OutOfMemory);
        };
        let vpn = self.lru.pop_oldest_in(space).expect("tick implies entry");
        let cost = self.evict_mapped(space, vpn)?;
        Ok((Invalidation { space, vpn }, cost))
    }

    /// Performs the eviction of one resident mapped page.
    ///
    /// Dirty-page writeback is asynchronous (kswapd writes back ahead of
    /// reclaim), so only a small CPU cost lands on the allocating path;
    /// the disk time of the write is not charged to the faulting task.
    fn evict_mapped(&mut self, space: SpaceId, vpn: Vpn) -> Result<SimDuration, MemError> {
        let s = &mut self.spaces[space.0 as usize];
        let pte = s.pte(vpn)?;
        let mut cost = SimDuration::ZERO;
        let (frame, _dirty) = if pte.dirty {
            // LRU victims are by construction the coldest mapped pages:
            // demote them to the slow tier while it has room, and fall
            // back to swap once NVM is full (the hemem policy).
            let slot =
                if let Some((nvm_slot, _io)) = self.nvm.as_mut().and_then(SwapDevice::swap_out) {
                    self.counters.bump_id(self.ids.tier_demotions);
                    journal::with(|j| j.mark(journal::MarkKind::TierMigrate, vpn.0));
                    trace::with(|t| t.metrics_mut().counter_add("memsim.tier_demotions", 1));
                    nvm_slot | NVM_SLOT_TAG
                } else {
                    let Some((swap_slot, _io)) = self.swap.swap_out() else {
                        return Err(MemError::SwapFull);
                    };
                    self.counters.bump_id(self.ids.swap_outs);
                    trace::with(|t| t.metrics_mut().counter_add("memsim.swap_outs", 1));
                    swap_slot
                };
            cost += SimDuration::from_micros(3); // writeback queueing CPU
            s.evict(vpn, Some(slot))
        } else {
            // Clean pages are all-zero: drop and re-zero later.
            s.evict(vpn, None)
        };
        self.frames.free(frame);
        self.counters.bump_id(self.ids.evictions);
        journal::with(|j| j.mark(journal::MarkKind::Eviction, vpn.0));
        trace::with(|t| {
            let args = vec![("vpn", ArgValue::U64(vpn.0))];
            t.instant(t.clock(), "memsim", "reclaim_evict", args);
            t.metrics_mut().counter_add("memsim.evictions", 1);
        });
        if let Some(&g) = self.space_group.get(&space) {
            *self.group_resident.get_mut(&g).expect("group exists") -= 1;
        }
        Ok(cost)
    }

    /// Pins a range (mlock / DMA registration): faults pages in and
    /// excludes them from reclaim. There is no `RLIMIT_MEMLOCK`: the
    /// pinning processes the paper runs are privileged.
    ///
    /// # Errors
    ///
    /// As for [`MemoryManager::resolve_fault`].
    pub fn pin_range(&mut self, space: SpaceId, range: PageRange) -> Result<PinOutcome, MemError> {
        let mut cost = SimDuration::ZERO;
        let mut faulted = 0;
        let mut invalidations = Vec::new();
        for vpn in range.iter() {
            if !self.space(space)?.is_resident(vpn) {
                let f = self.resolve_fault(space, vpn, false)?;
                cost += f.cost;
                invalidations.extend(f.invalidations);
                faulted += 1;
            }
            let s = self.space_mut(space)?;
            if s.pin(vpn) {
                self.lru.remove(space, vpn);
            }
        }
        Ok(PinOutcome {
            cost,
            faulted_pages: faulted,
            invalidations,
        })
    }

    /// Unpins a range, making its pages reclaimable again.
    ///
    /// # Errors
    ///
    /// Structural errors for unmapped pages.
    pub fn unpin_range(&mut self, space: SpaceId, range: PageRange) -> Result<(), MemError> {
        for vpn in range.iter() {
            let s = self.space_mut(space)?;
            if s.pte(vpn)?.is_pinned() && s.unpin(vpn) {
                let t = self.next_tick();
                self.lru.touch_tick(space, vpn, t);
            }
        }
        Ok(())
    }

    /// Resident bytes of a space (its RSS).
    ///
    /// # Errors
    ///
    /// [`MemError::NoSuchSpace`] for unknown ids.
    pub fn resident_bytes(&self, space: SpaceId) -> Result<ByteSize, MemError> {
        Ok(ByteSize::bytes_exact(
            self.space(space)?.resident_pages() * PAGE_SIZE,
        ))
    }

    /// Pinned bytes of a space.
    ///
    /// # Errors
    ///
    /// [`MemError::NoSuchSpace`] for unknown ids.
    pub fn pinned_bytes(&self, space: SpaceId) -> Result<ByteSize, MemError> {
        Ok(ByteSize::bytes_exact(
            self.space(space)?.pinned_pages() * PAGE_SIZE,
        ))
    }

    /// Reads `pages` consecutive file pages, aggregating disk time. One
    /// seek is charged per run of misses rather than per page, modelling
    /// sequential readahead of a block: buffered I/O for the storage
    /// target, through the page cache without mapping anything.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfMemory`] when no frame can be found for a miss.
    pub fn read_file_block(
        &mut self,
        file: FileId,
        first_page: u64,
        pages: u64,
    ) -> Result<crate::pagecache::CachedRead, MemError> {
        let mut any_miss = false;
        let mut miss_pages = 0u64;
        for p in first_page..first_page + pages {
            let key = CacheKey { file, page: p };
            let t = self.next_tick();
            if self.cache.lookup(key, t).is_none() {
                let (frame, _c, _i) = self.alloc_frame()?;
                let t = self.next_tick();
                self.cache.insert(key, frame, t);
                any_miss = true;
                miss_pages += 1;
            }
        }
        let cost = if any_miss {
            self.config.disk.access_latency
                + self
                    .config
                    .disk
                    .bandwidth
                    .transfer_time(miss_pages * PAGE_SIZE)
        } else {
            SimDuration::ZERO
        };
        Ok(crate::pagecache::CachedRead {
            hit: !any_miss,
            cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_manager(mib: u64) -> MemoryManager {
        MemoryManager::new(MemConfig {
            total_memory: ByteSize::mib(mib),
            ..MemConfig::default()
        })
    }

    #[test]
    fn first_touch_is_minor_fault() {
        let mut mm = small_manager(4);
        let s = mm.create_space();
        let r = mm.mmap(s, ByteSize::kib(8), Backing::Anonymous).unwrap();
        let a = mm.touch(s, r.start, true).unwrap();
        let f = a.fault.expect("fault on first touch");
        assert_eq!(f.kind, FaultKind::Minor);
        assert!(f.cost > SimDuration::ZERO);
        // Second touch is free.
        let a2 = mm.touch(s, r.start, false).unwrap();
        assert!(a2.fault.is_none());
        assert_eq!(mm.counters().get("minor_faults"), 1);
    }

    #[test]
    fn pressure_evicts_and_invalidates() {
        // 16 KiB of memory = 4 frames; map 8 pages and walk them twice.
        let mut mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::kib(16),
            ..MemConfig::default()
        });
        let s = mm.create_space();
        let r = mm.mmap(s, ByteSize::kib(32), Backing::Anonymous).unwrap();
        let mut invalidations = 0;
        for vpn in r.iter() {
            let a = mm.touch(s, vpn, true).unwrap();
            invalidations += a.invalidations().len();
        }
        assert!(invalidations >= 4, "older pages must be revoked");
        assert!(mm.counters().get("swap_outs") > 0, "dirty pages swap out");
        // Reaccessing an evicted page is a major fault.
        let a = mm.touch(s, r.start, false).unwrap();
        assert_eq!(a.fault.expect("major fault").kind, FaultKind::Major);
    }

    #[test]
    fn recency_reads_what_a_touch_writes_and_changes_nothing() {
        let mut mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::kib(8), // 2 frames
            ..MemConfig::default()
        });
        let s = mm.create_space();
        let r = mm.mmap(s, ByteSize::kib(16), Backing::Anonymous).unwrap();
        let [a, b, c] = [r.start, Vpn(r.start.0 + 1), Vpn(r.start.0 + 2)];
        assert_eq!(mm.recency(s, a), None, "not resident yet");
        mm.touch(s, a, false).unwrap();
        mm.touch(s, b, false).unwrap();
        let (ta, tb) = (mm.recency(s, a).unwrap(), mm.recency(s, b).unwrap());
        assert!(ta < tb);
        // Reading `a` did not promote it: the next fault reclaims it.
        mm.touch(s, c, false).unwrap();
        assert_eq!(mm.recency(s, a), None, "the oldest page was reclaimed");
        assert_eq!(mm.recency(s, b), Some(tb));
        mm.pin_range(s, PageRange::new(b, 1)).unwrap();
        assert_eq!(
            mm.recency(s, b),
            None,
            "reclaim does not track pinned pages"
        );
        assert_eq!(mm.recency(SpaceId(9), a), None);
    }

    #[test]
    fn clean_anonymous_pages_do_not_swap() {
        let mut mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::kib(8), // 2 frames
            ..MemConfig::default()
        });
        let s = mm.create_space();
        let r = mm.mmap(s, ByteSize::kib(16), Backing::Anonymous).unwrap();
        for vpn in r.iter() {
            mm.touch(s, vpn, false).unwrap(); // read-only: clean
        }
        assert_eq!(mm.counters().get("swap_outs"), 0);
        // Re-touching a dropped clean page is again a minor zero-fill.
        let a = mm.touch(s, r.start, false).unwrap();
        assert_eq!(a.fault.expect("fault").kind, FaultKind::Minor);
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let mut mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::kib(16), // 4 frames
            ..MemConfig::default()
        });
        let s = mm.create_space();
        let pinned = mm.mmap(s, ByteSize::kib(8), Backing::Anonymous).unwrap();
        mm.pin_range(s, pinned).unwrap();
        let big = mm.mmap(s, ByteSize::kib(32), Backing::Anonymous).unwrap();
        for vpn in big.iter() {
            mm.touch(s, vpn, true).unwrap();
        }
        for vpn in pinned.iter() {
            assert!(mm.space(s).unwrap().is_resident(vpn), "pinned page evicted");
        }
    }

    #[test]
    fn everything_pinned_is_oom() {
        let mut mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::kib(8), // 2 frames
            ..MemConfig::default()
        });
        let s = mm.create_space();
        let r = mm.mmap(s, ByteSize::kib(8), Backing::Anonymous).unwrap();
        mm.pin_range(s, r).unwrap();
        let more = mm.mmap(s, ByteSize::kib(4), Backing::Anonymous).unwrap();
        assert_eq!(mm.touch(s, more.start, true), Err(MemError::OutOfMemory));
    }

    #[test]
    fn cgroup_limit_constrains_residency() {
        let mut mm = small_manager(64);
        let g = mm.create_cgroup(ByteSize::kib(16)); // 4 pages
        let s = mm.create_space();
        mm.attach_to_cgroup(s, g);
        let r = mm.mmap(s, ByteSize::kib(64), Backing::Anonymous).unwrap();
        for vpn in r.iter() {
            mm.touch(s, vpn, true).unwrap();
        }
        assert!(
            mm.space(s).unwrap().resident_pages() <= 4,
            "cgroup limit exceeded: {} pages resident",
            mm.space(s).unwrap().resident_pages()
        );
        assert!(mm.free_frames() > 0, "host memory is not the constraint");
    }

    #[test]
    fn block_reads_charge_one_seek() {
        let mut mm = small_manager(64);
        let file = FileId(1);
        let miss = mm.read_file_block(file, 0, 128).unwrap();
        assert!(!miss.hit);
        let single_seek = mm.config().disk.access_latency;
        assert!(miss.cost > single_seek);
        assert!(
            miss.cost < single_seek * 3,
            "must not charge per-page seeks: {}",
            miss.cost
        );
        let hit = mm.read_file_block(file, 0, 128).unwrap();
        assert!(hit.hit);
        assert_eq!(hit.cost, SimDuration::ZERO);
    }

    #[test]
    fn cache_yields_to_mapped_memory() {
        // Fill memory with page cache, then map anonymous memory; the
        // cache must shrink rather than the mapping failing.
        let mut mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::kib(32), // 8 frames
            ..MemConfig::default()
        });
        mm.read_file_block(FileId(1), 0, 8).unwrap();
        assert_eq!(mm.cache_pages(), 8);
        let s = mm.create_space();
        let r = mm.mmap(s, ByteSize::kib(16), Backing::Anonymous).unwrap();
        for vpn in r.iter() {
            mm.touch(s, vpn, true).unwrap();
        }
        assert_eq!(mm.cache_pages(), 4);
        assert_eq!(mm.counters().get("cache_drops"), 4);
    }

    #[test]
    fn munmap_frees_frames() {
        let mut mm = small_manager(1);
        let s = mm.create_space();
        let r = mm.mmap(s, ByteSize::kib(16), Backing::Anonymous).unwrap();
        for vpn in r.iter() {
            mm.touch(s, vpn, true).unwrap();
        }
        let before = mm.free_frames();
        mm.munmap(s, r).unwrap();
        assert_eq!(mm.free_frames(), before + 4);
    }

    #[test]
    fn resident_and_pinned_accounting() {
        let mut mm = small_manager(4);
        let s = mm.create_space();
        let r = mm.mmap(s, ByteSize::kib(16), Backing::Anonymous).unwrap();
        mm.pin_range(s, PageRange::new(r.start, 2)).unwrap();
        mm.touch(s, Vpn(r.start.0 + 2), false).unwrap();
        assert_eq!(mm.resident_bytes(s).unwrap(), ByteSize::kib(12));
        assert_eq!(mm.pinned_bytes(s).unwrap(), ByteSize::kib(8));
        mm.unpin_range(s, PageRange::new(r.start, 2)).unwrap();
        assert_eq!(mm.pinned_bytes(s).unwrap(), ByteSize::ZERO);
    }
}

#[cfg(test)]
mod tier_tests {
    use super::*;
    use crate::space::Backing;

    fn tiered(ram_kib: u64, tier_kib: u64) -> MemoryManager {
        MemoryManager::new(MemConfig {
            total_memory: ByteSize::kib(ram_kib),
            tier: Some(TierConfig {
                capacity: ByteSize::kib(tier_kib),
            }),
            ..MemConfig::default()
        })
    }

    #[test]
    fn cold_dirty_pages_demote_to_nvm_before_swap() {
        // 4 frames of DRAM, 2 pages of NVM: walking 8 dirty pages must
        // demote the coldest to the tier first, then fall back to swap.
        let mut mm = tiered(16, 8);
        let s = mm.create_space();
        let r = mm.mmap(s, ByteSize::kib(32), Backing::Anonymous).unwrap();
        for vpn in r.iter() {
            mm.touch(s, vpn, true).unwrap();
        }
        assert_eq!(mm.counters().get("tier_demotions"), 2, "NVM fills first");
        assert!(mm.counters().get("swap_outs") > 0, "overflow goes to swap");
        assert_eq!(mm.nvm.as_ref().expect("tier").used, 2);
    }

    #[test]
    fn refault_promotes_from_nvm_and_reports_tier_cost() {
        // Plenty of tier space: every eviction lands in NVM, and the
        // re-fault is a major fault whose I/O is entirely tier cost.
        let mut mm = tiered(16, 64);
        let s = mm.create_space();
        let r = mm.mmap(s, ByteSize::kib(32), Backing::Anonymous).unwrap();
        for vpn in r.iter() {
            mm.touch(s, vpn, true).unwrap();
        }
        assert_eq!(mm.counters().get("swap_outs"), 0, "tier absorbs all");
        let a = mm.touch(s, r.start, false).unwrap();
        let f = a.fault.expect("evicted page re-faults");
        assert_eq!(f.kind, FaultKind::Major);
        assert!(f.tier_cost > SimDuration::ZERO);
        assert_eq!(f.tier_cost, f.io_cost, "all I/O came from the tier");
        assert!(
            f.io_cost < SimDuration::from_micros(10),
            "NVM promotion must be orders of magnitude under disk: {}",
            f.io_cost
        );
        assert_eq!(mm.counters().get("tier_promotions"), 1);
    }

    #[test]
    fn untiered_faults_report_zero_tier_cost() {
        let mut mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::kib(16),
            ..MemConfig::default()
        });
        let s = mm.create_space();
        let r = mm.mmap(s, ByteSize::kib(32), Backing::Anonymous).unwrap();
        for vpn in r.iter() {
            mm.touch(s, vpn, true).unwrap();
        }
        let a = mm.touch(s, r.start, false).unwrap();
        let f = a.fault.expect("swapped page re-faults");
        assert_eq!(f.kind, FaultKind::Major);
        assert_eq!(f.tier_cost, SimDuration::ZERO);
        assert!(f.io_cost >= SimDuration::from_millis(5), "HDD swap-in");
    }
}

#[cfg(test)]
mod exhaustion_tests {
    use super::*;
    use crate::space::Backing;

    #[test]
    fn swap_exhaustion_is_reported() {
        // 2 frames of RAM, 1 page of swap: the third dirty page cannot
        // be evicted anywhere.
        let mut mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::kib(8),
            swap_capacity: ByteSize::kib(4),
            ..MemConfig::default()
        });
        let s = mm.create_space();
        let r = mm.mmap(s, ByteSize::kib(16), Backing::Anonymous).unwrap();
        let mut result = Ok(());
        for vpn in r.iter() {
            if let Err(e) = mm.touch(s, vpn, true) {
                result = Err(e);
                break;
            }
        }
        assert_eq!(result, Err(MemError::SwapFull));
    }

    #[test]
    fn swap_in_frees_slot_for_reuse() {
        // One frame, two swap slots: pages ping-pong indefinitely (the
        // victim is written out before the faulting page's slot is
        // released, so the device needs one slot of slack).
        let mut mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::kib(4),
            swap_capacity: ByteSize::kib(8),
            ..MemConfig::default()
        });
        let s = mm.create_space();
        let r = mm.mmap(s, ByteSize::kib(8), Backing::Anonymous).unwrap();
        let a = r.start;
        let b = a.next();
        for _ in 0..6 {
            mm.touch(s, a, true).unwrap();
            mm.touch(s, b, true).unwrap();
        }
        assert!(mm.counters().get("major_faults") >= 8, "ping-pong swaps");
    }
}
