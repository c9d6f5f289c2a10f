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

use std::collections::HashMap;

use memsim::types::VirtAddr;
use proptest::prelude::*;
use simcore::units::ByteSize;
use workloads::memcached::{KvOp, KvOutcome, Memcached, MemcachedConfig};

const VALUE: u64 = 1024;

/// An LRU cache written the obvious way.
struct Model {
    config: MemcachedConfig,
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
        VirtAddr(self.config.slab_base.0 + slot * VALUE)
    }

    fn process(&mut self, op: KvOp) -> KvOutcome {
        self.tick += 1;
        let cpu = self.config.cpu_per_op;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn recency_list_evicts_what_the_scan_would(
        capacity in 1u64..24,
        ops in proptest::collection::vec((0u8..10, any::<u64>()), 1..600),
    ) {
        let config = MemcachedConfig {
            max_bytes: ByteSize::bytes_exact(capacity * VALUE),
            value_size: VALUE,
            ..MemcachedConfig::default()
        };
        let mut cache = Memcached::new(config);
        let mut model = Model {
            config,
            capacity: capacity as usize,
            items: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        };
        // Up to three times the capacity in distinct keys: hits, misses
        // and evictions all stay common.
        let keys = capacity * 3;
        for (kind, k) in ops {
            let key = k % keys;
            // memaslap's mix is 90/10; SET-heavy here to keep evicting.
            let op = if kind < 6 { KvOp::Get { key } } else { KvOp::Set { key } };
            prop_assert_eq!(cache.process(op), model.process(op));
            prop_assert_eq!(cache.len(), model.items.len());
            prop_assert_eq!(cache.hits(), model.hits);
            prop_assert_eq!(cache.misses(), model.misses);
            prop_assert_eq!(cache.evictions(), model.evictions);
        }
    }
}
