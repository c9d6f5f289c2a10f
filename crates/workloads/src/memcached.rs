//! A memcached-like key-value cache and its memaslap-like load
//! generator (§5's running example; §6.1's memory-utilization
//! experiments).
//!
//! The server is an LRU cache bounded by `max_bytes`, exactly like
//! memcached: when the working set exceeds the configured capacity,
//! hit rate drops proportionally. Item values live at deterministic
//! addresses in the server's address space, so GET/SET translate into
//! page touches that the testbed charges against the host memory
//! subsystem (faults, swapping, cgroup pressure — the Figure 7
//! dynamics).

use std::num::NonZeroU32;

use memsim::dense::PageMap;
use memsim::types::{VirtAddr, Vpn};
use simcore::rng::SimRng;
use simcore::time::SimDuration;
use simcore::units::ByteSize;

/// Base address of the item slab in the server's address space.
pub const SLAB_BASE: VirtAddr = VirtAddr(0x1_0000_0000);

/// CPU time to parse + hash + respond to one request, excluding
/// memory-touch costs. Calibrated: ~8 us per operation saturates four
/// 3.1 GHz cores near the paper's aggregate throughput (Table 5).
pub const CPU_PER_OP: SimDuration = SimDuration::from_micros(8);

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct MemcachedConfig {
    /// Cache capacity (`-m` in memcached).
    pub max_bytes: ByteSize,
    /// Value size of every item (memaslap uses fixed-size items).
    pub value_size: u64,
}

impl Default for MemcachedConfig {
    fn default() -> Self {
        MemcachedConfig {
            max_bytes: ByteSize::gib(1),
            value_size: 1024,
        }
    }
}

/// A request the client sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Read a key.
    Get {
        /// Key.
        key: u64,
    },
    /// Write a key.
    Set {
        /// Key.
        key: u64,
    },
}

/// Outcome of processing one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvOutcome {
    /// `true` for a GET that found the item.
    pub hit: bool,
    /// Memory range the server touched (value bytes), if any.
    pub touch: Option<(VirtAddr, u64, bool)>, // (addr, len, write)
    /// CPU cost excluding memory touches.
    pub cpu: SimDuration,
    /// Response payload size in bytes.
    pub response_bytes: u64,
}

/// End of the recency list (no slot).
const NIL: u32 = u32::MAX;

/// What the item table keeps per key.
#[derive(Debug, Clone, Copy)]
struct Item {
    /// The slot id plus one: the zero niche keeps an `Option<Item>` at
    /// 16 bytes, four to a cache line and none across two.
    slot_plus_one: NonZeroU32,
    /// Tick of the last GET hit or SET.
    tick: u64,
}

impl Item {
    fn new(slot: u32, tick: u64) -> Self {
        Item {
            slot_plus_one: NonZeroU32::new(slot + 1).expect("slot ids stay below NIL"),
            tick,
        }
    }

    fn slot(&self) -> u32 {
        self.slot_plus_one.get() - 1
    }
}

/// One slot's neighbours in the recency list.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// The next less recently used slot.
    older: u32,
    /// The next more recently used slot.
    newer: u32,
}

/// The server.
#[derive(Debug)]
pub struct Memcached {
    config: MemcachedConfig,
    /// The item table, indexed by key: memaslap's keys are the integers
    /// of one window, so a lookup is two array indexes and one line. The
    /// table costs 16 bytes times the key *range* touched, not times the
    /// items held; keys past the direct range take [`PageMap`]'s sparse
    /// directory.
    items: PageMap<Item>,
    /// slot -> key (for eviction bookkeeping). Slot ids are dense
    /// (0..max_items), so this is a flat table, not a map.
    slots: Vec<u64>,
    /// The recency list over the slots, by slot id. Empty until the
    /// first eviction: a cache that never fills orders nothing, and a
    /// hit only stamps its tick in the item-table entry the lookup
    /// already fetched. The first eviction sorts the items by tick into
    /// the list once; from then on every use also moves its slot to the
    /// `newest` end and the victim is `oldest` — no scan.
    recency: Vec<Link>,
    oldest: u32,
    newest: u32,
    max_items: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Memcached {
    /// Creates a server with `config`.
    #[must_use]
    pub fn new(config: MemcachedConfig) -> Self {
        let max_items = (config.max_bytes.bytes() / config.value_size).max(1);
        Memcached {
            config,
            items: PageMap::new(),
            slots: Vec::new(),
            recency: Vec::new(),
            oldest: NIL,
            newest: NIL,
            max_items,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &MemcachedConfig {
        &self.config
    }

    /// Pre-sizes the slot table for an expected number of distinct keys
    /// (capped at capacity). The item table grows a leaf at a time and
    /// has nothing to reserve.
    pub fn reserve_keys(&mut self, keys: u64) {
        let n = keys.min(self.max_items);
        self.slots.reserve(usize::try_from(n).unwrap_or(usize::MAX));
    }

    /// Items currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// GET hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// GET misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// LRU evictions so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Hit ratio in `[0, 1]`.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Size of the virtual slab region the server needs mapped
    /// (`max_items * value_size`, page aligned).
    #[must_use]
    pub fn slab_bytes(&self) -> ByteSize {
        ByteSize::bytes_exact(self.max_items * self.config.value_size)
    }

    fn slot_addr(&self, slot: u32) -> VirtAddr {
        VirtAddr(SLAB_BASE.0 + u64::from(slot) * self.config.value_size)
    }

    /// Takes `slot` out of the recency list.
    fn unlink(&mut self, slot: u32) {
        let Link { older, newer } = self.recency[slot as usize];
        match older {
            NIL => self.oldest = newer,
            o => self.recency[o as usize].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.recency[n as usize].older = older,
        }
    }

    /// Appends `slot` at the most recently used end.
    fn link_newest(&mut self, slot: u32) {
        self.recency[slot as usize] = Link {
            older: self.newest,
            newer: NIL,
        };
        match self.newest {
            NIL => self.oldest = slot,
            n => self.recency[n as usize].newer = slot,
        }
        self.newest = slot;
    }

    /// Marks `key`'s item, if cached, as just used — stamps the tick
    /// and, once there is a list to keep, moves its slot to the `newest`
    /// end — and returns the slot.
    fn use_item(&mut self, key: u64) -> Option<u32> {
        let item = self.items.get_mut(Vpn(key))?;
        item.tick = self.tick;
        let slot = item.slot();
        if !self.recency.is_empty() && self.newest != slot {
            self.unlink(slot);
            self.link_newest(slot);
        }
        Some(slot)
    }

    /// Evicts the least recently used item, returning its slot for
    /// reuse. Ticks are unique per operation, so the order — and the
    /// victim — is unambiguous.
    fn evict(&mut self) -> u32 {
        if self.recency.is_empty() {
            let mut by_tick: Vec<(u64, u32)> =
                self.items.iter().map(|(_, i)| (i.tick, i.slot())).collect();
            by_tick.sort_unstable();
            let unlinked = Link {
                older: NIL,
                newer: NIL,
            };
            self.recency = vec![unlinked; self.slots.len()];
            for (_, slot) in by_tick {
                self.link_newest(slot);
            }
        }
        let victim = self.oldest;
        self.unlink(victim);
        self.items.remove(Vpn(self.slots[victim as usize]));
        self.evictions += 1;
        victim
    }

    /// Caches a new `key` — in a fresh slot while there is room, in the
    /// least recently used item's slot after — and returns the slot.
    fn admit(&mut self, key: u64) -> u32 {
        let slot = if (self.slots.len() as u64) < self.max_items {
            let fresh = u32::try_from(self.slots.len())
                .ok()
                .filter(|&s| s != NIL)
                .expect("item slots fit u32");
            self.slots.push(key);
            fresh
        } else {
            let victim = self.evict();
            self.slots[victim as usize] = key;
            self.link_newest(victim);
            victim
        };
        self.items.insert(Vpn(key), Item::new(slot, self.tick));
        slot
    }

    /// Where `key`'s value lives if it is cached — the address a GET of
    /// it would touch — without using the item: no tick, no counter and
    /// no recency change. A server that knows its next requests looks
    /// them up first, so their table misses overlap instead of being
    /// paid one request at a time.
    #[must_use]
    pub fn lookup(&self, key: u64) -> Option<VirtAddr> {
        self.items
            .get(Vpn(key))
            .map(|item| self.slot_addr(item.slot()))
    }

    /// Processes one operation, returning what to touch and charge.
    pub fn process(&mut self, op: KvOp) -> KvOutcome {
        self.tick += 1;
        match op {
            KvOp::Get { key } => match self.use_item(key) {
                Some(slot) => {
                    self.hits += 1;
                    KvOutcome {
                        hit: true,
                        touch: Some((self.slot_addr(slot), self.config.value_size, false)),
                        cpu: CPU_PER_OP,
                        response_bytes: self.config.value_size + 48,
                    }
                }
                None => {
                    self.misses += 1;
                    KvOutcome {
                        hit: false,
                        touch: None,
                        cpu: CPU_PER_OP,
                        response_bytes: 32,
                    }
                }
            },
            KvOp::Set { key } => {
                let slot = match self.use_item(key) {
                    Some(slot) => slot,
                    None => self.admit(key),
                };
                KvOutcome {
                    hit: false,
                    touch: Some((self.slot_addr(slot), self.config.value_size, true)),
                    cpu: CPU_PER_OP,
                    response_bytes: 16,
                }
            }
        }
    }
}

/// memaslap-like closed-loop load generator: 90 % GET / 10 % SET over a
/// key window (the "working set"), every key equally likely (memaslap's
/// default; what the paper's experiments use).
#[derive(Debug)]
pub struct Memaslap {
    /// Number of distinct keys in the working set: keys `0..n`.
    working_set_keys: u64,
    /// Probability of GET (the rest are SETs).
    get_fraction: f64,
    value_size: u64,
    rng: SimRng,
}

impl Memaslap {
    /// Creates a generator over `working_set_keys` keys with the
    /// canonical 90/10 GET/SET mix and uniform key popularity.
    #[must_use]
    pub fn new(working_set_keys: u64, value_size: u64, rng: SimRng) -> Self {
        Memaslap {
            working_set_keys: working_set_keys.max(1),
            get_fraction: 0.9,
            value_size,
            rng,
        }
    }

    /// Current working-set size in keys.
    #[must_use]
    pub fn working_set_keys(&self) -> u64 {
        self.working_set_keys
    }

    /// Resizes the working set (Figure 7's 100 MB↔900 MB shift). The
    /// window stays anchored: growing keeps the old items hot, shrinking
    /// keeps a hot subset — "the set increases by a factor of nine".
    pub fn resize_working_set(&mut self, keys: u64) {
        self.working_set_keys = keys.max(1);
    }

    /// Draws the next operation and its request size in bytes.
    pub fn next_op(&mut self) -> (KvOp, u64) {
        let key = self.rng.below(self.working_set_keys);
        if self.rng.unit() < self.get_fraction {
            (KvOp::Get { key }, 40)
        } else {
            (KvOp::Set { key }, self.value_size + 40)
        }
    }
}

/// Tenant popularity for multi-tenant scale-out: how client load is
/// split across memcached instances sharing one NIC.
///
/// A Zipf exponent of 0 (or [`TenantPopularity::uniform`]) spreads load
/// evenly; larger exponents concentrate it on low-numbered tenants the
/// way real multi-tenant hosts see a few hot customers and a long cold
/// tail.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantPopularity {
    /// Unnormalized per-tenant weights, indexed by tenant.
    weights: Vec<f64>,
}

impl TenantPopularity {
    /// Every tenant equally popular.
    #[must_use]
    pub fn uniform(tenants: u32) -> Self {
        TenantPopularity {
            weights: vec![1.0; tenants.max(1) as usize],
        }
    }

    /// Zipf popularity: tenant `i` gets weight `1 / (i + 1)^s`.
    #[must_use]
    pub fn zipf(tenants: u32, s: f64) -> Self {
        let weights = (0..tenants.max(1))
            .map(|i| 1.0 / f64::from(i + 1).powf(s))
            .collect();
        TenantPopularity { weights }
    }

    /// Tenant `i`'s share of the total load in `[0, 1]`.
    #[must_use]
    pub fn share(&self, i: u32) -> f64 {
        let total: f64 = self.weights.iter().sum();
        self.weights.get(i as usize).copied().unwrap_or(0.0) / total
    }

    /// Splits `total` connections across tenants proportionally to
    /// their weights, deterministically (largest-remainder rounding,
    /// ties to the lower tenant id). When `total >= tenants`, every
    /// tenant keeps at least one connection so nobody is starved out of
    /// the closed loop entirely.
    #[must_use]
    pub fn allocate(&self, total: u32) -> Vec<u32> {
        let n = self.weights.len();
        let mut conns = vec![0u32; n];
        if total == 0 {
            return conns;
        }
        let floor = u32::from(total as usize >= n);
        let mut remaining = total - floor * u32::try_from(n).unwrap_or(total);
        conns.fill(floor);
        let weight_sum: f64 = self.weights.iter().sum();
        // Ideal fractional shares of the remainder, floored; then hand
        // out the leftover one-by-one to the largest fractional parts.
        let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(n);
        let mut assigned = 0u32;
        let pool = f64::from(remaining);
        for (i, w) in self.weights.iter().enumerate() {
            let ideal = pool * w / weight_sum;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let whole = ideal.floor() as u32;
            conns[i] += whole;
            assigned += whole;
            fracs.push((i, ideal - ideal.floor()));
        }
        remaining -= assigned;
        fracs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        for (i, _) in fracs.into_iter().take(remaining as usize) {
            conns[i] += 1;
            remaining -= 1;
        }
        // Floating-point slack can leave a connection unassigned; give
        // any leftovers to the most popular tenants.
        let mut i = 0;
        while remaining > 0 {
            conns[i % n] += 1;
            remaining -= 1;
            i += 1;
        }
        conns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(max_items: u64) -> Memcached {
        Memcached::new(MemcachedConfig {
            max_bytes: ByteSize::bytes_exact(max_items * 1024),
            value_size: 1024,
        })
    }

    #[test]
    fn get_miss_then_set_then_hit() {
        let mut s = server(10);
        let miss = s.process(KvOp::Get { key: 5 });
        assert!(!miss.hit);
        assert!(miss.touch.is_none());
        let set = s.process(KvOp::Set { key: 5 });
        let (_, len, write) = set.touch.expect("set touches the value");
        assert_eq!(len, 1024);
        assert!(write);
        let hit = s.process(KvOp::Get { key: 5 });
        assert!(hit.hit);
        let (_, _, write) = hit.touch.expect("hit touches the value");
        assert!(!write);
        assert_eq!(s.hits(), 1);
        assert_eq!(s.misses(), 1);
    }

    #[test]
    fn lru_eviction_beyond_capacity() {
        let mut s = server(2);
        s.process(KvOp::Set { key: 1 });
        s.process(KvOp::Set { key: 2 });
        s.process(KvOp::Get { key: 1 }); // promote 1
        s.process(KvOp::Set { key: 3 }); // evicts 2
        assert_eq!(s.evictions(), 1);
        assert!(s.process(KvOp::Get { key: 1 }).hit);
        assert!(!s.process(KvOp::Get { key: 2 }).hit);
        assert!(s.process(KvOp::Get { key: 3 }).hit);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn items_reuse_slot_addresses() {
        let mut s = server(4);
        let a = s.process(KvOp::Set { key: 1 }).touch.expect("touch").0;
        let b = s.process(KvOp::Set { key: 1 }).touch.expect("touch").0;
        assert_eq!(a, b, "same key keeps its slot");
        let c = s.process(KvOp::Set { key: 2 }).touch.expect("touch").0;
        assert_ne!(a, c);
    }

    #[test]
    fn hit_ratio_tracks_capacity_pressure() {
        // Working set double the capacity: steady-state hit rate falls
        // well below 1.
        let mut s = server(100);
        let mut gen = Memaslap::new(200, 1024, SimRng::new(5));
        for _ in 0..20_000 {
            let (op, _) = gen.next_op();
            s.process(op);
        }
        assert!(
            s.hit_ratio() < 0.75,
            "over-capacity working set must miss: {}",
            s.hit_ratio()
        );
        assert!(s.evictions() > 0);
    }

    #[test]
    fn full_capacity_working_set_hits() {
        let mut s = server(256);
        let mut gen = Memaslap::new(200, 1024, SimRng::new(5));
        for _ in 0..20_000 {
            let (op, _) = gen.next_op();
            s.process(op);
        }
        assert!(
            s.hit_ratio() > 0.85,
            "in-capacity working set should mostly hit: {}",
            s.hit_ratio()
        );
    }

    #[test]
    fn resize_keeps_window_anchored() {
        let mut gen = Memaslap::new(100, 1024, SimRng::new(6));
        let (KvOp::Get { key } | KvOp::Set { key }, _) = gen.next_op();
        assert!(key < 100);
        gen.resize_working_set(900);
        assert_eq!(gen.working_set_keys(), 900);
        let mut saw_old = false;
        for _ in 0..200 {
            let (KvOp::Get { key } | KvOp::Set { key }, _) = gen.next_op();
            assert!(key < 900, "anchored window: {key}");
            saw_old |= key < 100;
        }
        assert!(saw_old, "old keys stay in the set");
    }

    #[test]
    fn request_sizes_differ_by_op() {
        let mut gen = Memaslap::new(10, 2048, SimRng::new(7));
        let mut get_size = 0;
        let mut set_size = 0;
        for _ in 0..200 {
            let (op, bytes) = gen.next_op();
            match op {
                KvOp::Get { .. } => get_size = bytes,
                KvOp::Set { .. } => set_size = bytes,
            }
        }
        assert_eq!(get_size, 40);
        assert_eq!(set_size, 2088);
    }
}

#[cfg(test)]
mod tenant_tests {
    use super::*;

    #[test]
    fn uniform_allocation_is_even() {
        let pop = TenantPopularity::uniform(8);
        let conns = pop.allocate(64);
        assert_eq!(conns, vec![8; 8]);
        assert_eq!(conns.iter().sum::<u32>(), 64);
    }

    #[test]
    fn zipf_allocation_is_skewed_but_complete() {
        let pop = TenantPopularity::zipf(16, 1.0);
        let conns = pop.allocate(160);
        assert_eq!(conns.iter().sum::<u32>(), 160, "every connection lands");
        assert!(conns[0] > conns[15] * 3, "head tenant dominates: {conns:?}");
        assert!(
            conns.iter().all(|&c| c >= 1),
            "no tenant starved: {conns:?}"
        );
        // Monotone non-increasing by construction.
        for w in conns.windows(2) {
            assert!(w[0] >= w[1], "monotone: {conns:?}");
        }
    }

    #[test]
    fn zipf_zero_matches_uniform() {
        let z = TenantPopularity::zipf(10, 0.0);
        let u = TenantPopularity::uniform(10);
        assert_eq!(z.allocate(100), u.allocate(100));
    }

    #[test]
    fn allocation_smaller_than_tenant_count() {
        let pop = TenantPopularity::zipf(8, 1.0);
        let conns = pop.allocate(3);
        assert_eq!(conns.iter().sum::<u32>(), 3);
    }

    #[test]
    fn shares_sum_to_one() {
        let pop = TenantPopularity::zipf(32, 0.9);
        let total: f64 = (0..32).map(|i| pop.share(i)).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
    }
}
