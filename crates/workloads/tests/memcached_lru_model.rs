//! Differential test of [`Memcached`]'s recency list against the scan
//! it replaced.
//!
//! The reference stamps every item with the tick of its last GET hit or
//! SET and, when a SET finds the cache full, evicts the item with the
//! smallest stamp by scanning them all. Ticks are unique, so that
//! victim is unambiguous and the list must pick the same one — the list
//! the first eviction builds from the stamps collected while the cache
//! was filling, and the one every later use keeps current: random
//! GET/SET sequences over a key space a few times the capacity must
//! produce the same outcome for every operation — including the value
//! address, which names the slot a new item inherited from the victim —
//! and the same tallies after every step.
//!
//! The item table is indexed by key (512-key leaves, direct below 2 Mi
//! keys, a sparse directory above), so which keys a run uses matters in
//! a way it did not for a hash table: [`key_of`] draws them from one
//! window at zero, a shifted window, a window straddling the 2 Mi
//! boundary, the neighbours of `1 << 40` and `u64::MAX`, one key per
//! leaf, and keys that differ only in bits above the direct range.
//!
//! Broken on purpose, this fails: an item table that indexes by
//! `key & (2 Mi - 1)` (the last key set aliases four ways: a GET of a
//! key never SET hits), a first eviction that builds the recency list
//! from the direct leaves only (a sparse key is never the victim, or
//! `unlink` meets a slot that was never linked), and a table that drops
//! the whole leaf when one of its items is evicted (`len` falls short
//! of the model's and later GETs miss).

use std::collections::HashMap;

use memsim::types::VirtAddr;
use proptest::prelude::*;
use simcore::units::ByteSize;
use workloads::memcached::{KvOp, KvOutcome, Memcached, MemcachedConfig, CPU_PER_OP, SLAB_BASE};

const VALUE: u64 = 1024;

/// An LRU cache written the obvious way.
struct Model {
    capacity: usize,
    /// key -> (slot, tick of last use)
    items: HashMap<u64, (u64, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Model {
    fn addr(&self, slot: u64) -> VirtAddr {
        VirtAddr(SLAB_BASE.0 + slot * VALUE)
    }

    fn process(&mut self, op: KvOp) -> KvOutcome {
        self.tick += 1;
        let cpu = CPU_PER_OP;
        match op {
            KvOp::Get { key } => match self.items.get_mut(&key) {
                Some((slot, tick)) => {
                    *tick = self.tick;
                    let slot = *slot;
                    self.hits += 1;
                    KvOutcome {
                        hit: true,
                        touch: Some((self.addr(slot), VALUE, false)),
                        cpu,
                        response_bytes: VALUE + 48,
                    }
                }
                None => {
                    self.misses += 1;
                    KvOutcome {
                        hit: false,
                        touch: None,
                        cpu,
                        response_bytes: 32,
                    }
                }
            },
            KvOp::Set { key } => {
                let slot = if let Some(entry) = self.items.get_mut(&key) {
                    entry.1 = self.tick;
                    entry.0
                } else {
                    let slot = if self.items.len() < self.capacity {
                        self.items.len() as u64
                    } else {
                        let (&victim, &(slot, _)) = self
                            .items
                            .iter()
                            .min_by_key(|(_, &(_, tick))| tick)
                            .expect("a full cache is not empty");
                        self.items.remove(&victim);
                        self.evictions += 1;
                        slot
                    };
                    self.items.insert(key, (slot, self.tick));
                    slot
                };
                KvOutcome {
                    hit: false,
                    touch: Some((self.addr(slot), VALUE, true)),
                    cpu,
                    response_bytes: 16,
                }
            }
        }
    }
}

/// A cache of `capacity` items and the model of it.
fn pair(capacity: u64) -> (Memcached, Model) {
    let config = MemcachedConfig {
        max_bytes: ByteSize::bytes_exact(capacity * VALUE),
        value_size: VALUE,
    };
    let model = Model {
        capacity: capacity as usize,
        items: HashMap::new(),
        tick: 0,
        hits: 0,
        misses: 0,
        evictions: 0,
    };
    (Memcached::new(config), model)
}

/// Runs `op` on both and compares the outcome and every tally.
fn step(cache: &mut Memcached, model: &mut Model, op: KvOp) -> KvOutcome {
    let outcome = cache.process(op);
    assert_eq!(outcome, model.process(op), "{op:?}");
    assert_eq!(cache.len(), model.items.len(), "{op:?}");
    assert_eq!(cache.hits(), model.hits);
    assert_eq!(cache.misses(), model.misses);
    assert_eq!(cache.evictions(), model.evictions);
    outcome
}

/// Keys below this are direct-indexed by the item table.
const DIRECT: u64 = 1 << 21;

/// Number of key sets [`key_of`] knows.
const KEY_SETS: u8 = 6;

/// The `i`-th of `keys` distinct keys of key set `set`.
fn key_of(set: u8, i: u64, keys: u64) -> u64 {
    match set {
        // memaslap's window, where it starts.
        0 => i,
        // The same window, shifted.
        1 => 850_000 + i,
        // A window with the direct/sparse boundary in its middle.
        2 => DIRECT - keys / 2 + i,
        // The top of the key space and both sides of a far landmark.
        3 => match i % 3 {
            0 => u64::MAX - i / 3,
            1 => (1 << 40) + i / 3,
            _ => (1 << 40) - 1 - i / 3,
        },
        // One key per leaf across the boundary: every eviction empties
        // a leaf.
        4 => DIRECT - 512 * (keys / 2) + 512 * i,
        // Keys that differ only above the direct range.
        _ => ((i % 4) << 21) + ((i % 2) << 40) + i / 4,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn recency_list_evicts_what_the_scan_would(
        capacity in 1u64..24,
        set in 0..KEY_SETS,
        ops in proptest::collection::vec((0u8..10, any::<u64>()), 1..600),
    ) {
        let (mut cache, mut model) = pair(capacity);
        // Up to three times the capacity in distinct keys: hits, misses
        // and evictions all stay common.
        let keys = capacity * 3;
        for (kind, k) in ops {
            let key = key_of(set, k % keys, keys);
            // memaslap's mix is 90/10; SET-heavy here to keep evicting.
            let op = if kind < 6 { KvOp::Get { key } } else { KvOp::Set { key } };
            step(&mut cache, &mut model, op);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `lookup` is a GET with no side effect: before every operation a
    /// probe key is looked up, and the answer must be the model's — the
    /// address a GET of it touches on a hit, `None` on a miss — over the
    /// same key sets, while the cache fills and after it starts evicting.
    /// Probes are also GET for real, which must touch the address the
    /// lookup gave. Tallies are compared around every lookup, and the
    /// victims of the SETs that follow (checked through the addresses
    /// they hand on) must be the model's, which never sees a lookup.
    #[test]
    fn lookup_agrees_with_process_and_changes_nothing(
        capacity in 1u64..24,
        set in 0..KEY_SETS,
        ops in proptest::collection::vec((0u8..10, any::<u64>(), any::<u64>()), 1..600),
    ) {
        let (mut cache, mut model) = pair(capacity);
        let keys = capacity * 3;
        for (kind, k, p) in ops {
            let probe = key_of(set, p % keys, keys);
            let tallies = |c: &Memcached| (c.hits(), c.misses(), c.len(), c.evictions());
            let before = tallies(&cache);
            let seen = cache.lookup(probe);
            prop_assert_eq!(seen, model.items.get(&probe).map(|&(slot, _)| model.addr(slot)));
            prop_assert_eq!(tallies(&cache), before);
            let key = key_of(set, k % keys, keys);
            let op = match kind {
                0..=3 => KvOp::Get { key },
                4 => KvOp::Get { key: probe },
                _ => KvOp::Set { key },
            };
            let outcome = step(&mut cache, &mut model, op);
            if kind == 4 {
                prop_assert_eq!(outcome.touch.map(|(addr, ..)| addr), seen);
            }
        }
    }
}

/// A full cache sliding its window: every SET past capacity evicts the
/// oldest key, and 512 of them in a row empty one whole leaf of the
/// item table — which must forget exactly those items and go on serving
/// its neighbours. An evicted key SET again is a new item in whatever
/// slot the victim of the moment leaves behind.
#[test]
fn evictions_that_empty_whole_leaves() {
    const CAPACITY: u64 = 1024;
    // Starts mid-leaf below the boundary, so the window covers partial
    // leaves, full leaves, direct and sparse ones.
    let first = DIRECT - 700;
    let (mut cache, mut model) = pair(CAPACITY);
    for key in first..first + CAPACITY {
        step(&mut cache, &mut model, KvOp::Set { key });
    }
    assert_eq!(cache.evictions(), 0);
    // Slide by two capacities: every original leaf is emptied, and so
    // is every leaf the first slide filled.
    let mut addrs = Vec::new();
    for key in first + CAPACITY..first + 3 * CAPACITY {
        let set = step(&mut cache, &mut model, KvOp::Set { key });
        addrs.push(set.touch.expect("a SET touches the value").0);
        let gone = KvOp::Get {
            key: key - CAPACITY,
        };
        assert!(!step(&mut cache, &mut model, gone).hit);
    }
    assert_eq!(cache.len() as u64, CAPACITY);
    assert_eq!(cache.evictions(), 2 * CAPACITY);

    // The oldest survivor is the next victim; an evicted key coming back
    // takes over its address.
    let victim = first + 2 * CAPACITY;
    let back = step(&mut cache, &mut model, KvOp::Set { key: first });
    assert_eq!(back.touch, Some((addrs[CAPACITY as usize], VALUE, true)));
    assert!(!step(&mut cache, &mut model, KvOp::Get { key: victim }).hit);
    assert!(step(&mut cache, &mut model, KvOp::Get { key: first }).hit);
    assert!(step(&mut cache, &mut model, KvOp::Get { key: victim + 1 }).hit);
    assert_eq!(cache.len() as u64, CAPACITY);
}
