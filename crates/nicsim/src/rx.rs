//! Receive rings and the Figure-6 backup-ring engine.
//!
//! This module is a faithful implementation of the paper's hardware
//! pseudo-code (Figure 6). Each IOuser ring tracks:
//!
//! * `tail` — descriptors posted by the IOuser (absolute count),
//! * `head` — the first descriptor *not yet announced* to the IOuser;
//!   it points at the oldest unresolved rNPF while any are pending,
//! * `head_offset` — how far past `head` the NIC has kept receiving
//!   (skipping faulted slots, storing fresh packets in later slots),
//! * `bitmap`/`bm_index` — which of the skipped slots still await
//!   resolution; `bm_size` bounds how many packets the IOprovider is
//!   willing to hold for this ring.
//!
//! The NIC never reports new packets to the IOuser until every earlier
//! rNPF is resolved, preserving in-order delivery.

use std::collections::VecDeque;

use memsim::types::VirtAddr;
use simcore::chaos::invariant;
use simcore::journal;
use simcore::stats::{CounterId, Counters};
use simcore::trace::{self, ArgValue};

/// Identifier of one IOuser receive ring (one per IOchannel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RingId(pub u32);

impl std::fmt::Display for RingId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ring{}", self.0)
    }
}

/// A receive descriptor posted by the IOuser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxDescriptor {
    /// Buffer virtual address in the IOuser's space.
    pub addr: VirtAddr,
    /// Buffer capacity in bytes.
    pub capacity: u64,
}

/// A slot in an IOuser ring.
#[derive(Debug, Clone)]
enum Slot<P> {
    /// Posted, empty.
    Posted(RxDescriptor),
    /// Filled with a received packet (directly or via resolution).
    Filled { payload: P, len: u64 },
    /// Skipped due to an rNPF; awaiting the IOprovider's copy-back.
    Skipped,
    /// Consumed by a drop-mode fault: the descriptor was burned, the
    /// packet discarded. The IOuser sees a hole and reposts.
    Hole,
}

/// One IOuser receive ring.
#[derive(Debug)]
pub struct IoUserRing<P> {
    size: u64,
    bm_size: u64,
    slots: Vec<Option<Slot<P>>>,
    tail: u64,
    head: u64,
    head_offset: u64,
    bm_index: u64,
    bitmap: Vec<bool>,
    /// Number of set bits in `bitmap`, maintained on every transition so
    /// pending-rNPF queries never rescan the bitmap.
    pending_bits: u64,
    /// IOuser consumption cursor (entries below `consumed` were read).
    consumed: u64,
    /// Holes passed over by `consume` since the last `take_skipped_holes`.
    holes_pending_repost: u64,
    /// The IOprovider asked to be interrupted when the tail moves
    /// (resolver backpressure, §5 "Driver").
    tail_interrupt_requested: bool,
}

/// How the NIC disposed of one inbound packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxVerdict {
    /// Stored directly in the IOuser ring.
    Stored {
        /// Absolute index of the slot used.
        index: u64,
        /// `true` when the IOuser should be interrupted (no pending
        /// rNPFs block announcement).
        notify_iouser: bool,
    },
    /// Redirected to the backup ring; the IOprovider must resolve.
    Backup {
        /// Slot in the backup ring.
        backup_index: u64,
        /// Bitmap index to pass back via `resolve_rnpfs`.
        bit_index: u64,
        /// Target index in the IOuser ring reserved for the copy-back.
        target_index: u64,
    },
    /// Dropped (no backup ring, backup full, or bitmap budget
    /// exhausted).
    Dropped {
        /// `true` when a posted descriptor was consumed by the drop
        /// (drop-mode fault): the IOuser must be notified so it reposts.
        burned_descriptor: bool,
    },
}

/// Metadata the NIC attaches to a backup-ring entry so the IOprovider
/// can merge the packet back (§5: packets in the backup ring are steered
/// by metadata, not content).
#[derive(Debug, Clone)]
pub struct BackupEntry<P> {
    /// The IOuser ring the packet belongs to.
    pub ring: RingId,
    /// Absolute target index in that ring.
    pub target_index: u64,
    /// Bitmap index for `resolve_rnpfs`.
    pub bit_index: u64,
    /// Packet length.
    pub len: u64,
    /// The packet payload.
    pub payload: P,
}

/// The pinned backup ring owned by the IOprovider.
#[derive(Debug)]
struct BackupRing<P> {
    size: u64,
    head: u64,
    tail: u64,
    /// FIFO of stored entries: the front is absolute index `head`, the
    /// back `tail - 1` (stores push back, drains pop front).
    entries: VecDeque<BackupEntry<P>>,
    /// Entries currently in the ring, indexed by the dense IOuser ring
    /// id (quota enforcement + per-tenant metrics).
    per_ring: Vec<u64>,
    /// High-water mark of `per_ring` (per-tenant occupancy peaks).
    hwm: Vec<u64>,
}

impl<P> BackupRing<P> {
    /// Grows a dense per-ring table to cover `id`.
    fn slot(v: &mut Vec<u64>, id: RingId) -> &mut u64 {
        let idx = id.0 as usize;
        if idx >= v.len() {
            v.resize(idx + 1, 0);
        }
        &mut v[idx]
    }
}

/// How backup-ring capacity is shared between tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackupPolicy {
    /// One shared pool, first come first served (the paper's design): a
    /// single cold tenant can fill the whole ring.
    #[default]
    Shared,
    /// Each IOuser ring may hold at most `quota` entries at once; a
    /// tenant at its quota drops instead of crowding out the others
    /// (the cold-ring problem at tenant granularity).
    Partitioned {
        /// Per-tenant occupancy cap, in packets.
        quota: u64,
    },
}

/// Receive-fault policy of the NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxFaultMode {
    /// Discard packets that hit an rNPF (the strawman the paper shows
    /// nearly deadlocks TCP, Figure 4).
    Drop,
    /// Redirect them to the backup ring (the paper's design).
    BackupRing {
        /// Backup ring capacity in packets.
        capacity: u64,
    },
}

/// Ids of the counters the engine bumps, registered once in
/// [`RxEngine::new`] so the per-packet path indexes instead of hashing.
#[derive(Debug, Clone, Copy)]
struct RxCounterIds {
    backup_stored: CounterId,
    bounced_fault: CounterId,
    dropped_fault: CounterId,
    dropped_no_buffer: CounterId,
    dropped_quota: CounterId,
    resolved: CounterId,
    stored: CounterId,
}

impl RxCounterIds {
    fn register(counters: &mut Counters) -> Self {
        RxCounterIds {
            backup_stored: counters.register("backup_stored"),
            bounced_fault: counters.register("bounced_fault"),
            dropped_fault: counters.register("dropped_fault"),
            dropped_no_buffer: counters.register("dropped_no_buffer"),
            dropped_quota: counters.register("dropped_quota"),
            resolved: counters.register("resolved"),
            stored: counters.register("stored"),
        }
    }
}

/// The NIC's receive engine: all IOuser rings plus the backup ring.
#[derive(Debug)]
pub struct RxEngine<P> {
    /// IOuser rings, indexed by the dense ring id.
    rings: Vec<Option<IoUserRing<P>>>,
    backup: Option<BackupRing<P>>,
    mode: RxFaultMode,
    policy: BackupPolicy,
    /// Invariant-checker key of this engine's backup ring: fresh per
    /// engine, so depth accounting never aliases across the many
    /// testbeds an experiment binary builds in one process.
    backup_key: u64,
    counters: Counters,
    ids: RxCounterIds,
}

impl<P: Clone> RxEngine<P> {
    /// Creates an engine with the given fault policy.
    #[must_use]
    pub fn new(mode: RxFaultMode) -> Self {
        let backup_key = invariant::fresh_namespace();
        let backup = match mode {
            RxFaultMode::Drop => None,
            RxFaultMode::BackupRing { capacity } => {
                invariant::with(|c| c.note_backup_capacity(backup_key, capacity));
                Some(BackupRing {
                    size: capacity,
                    head: 0,
                    tail: 0,
                    entries: VecDeque::new(),
                    per_ring: Vec::new(),
                    hwm: Vec::new(),
                })
            }
        };
        let mut counters = Counters::new();
        let ids = RxCounterIds::register(&mut counters);
        RxEngine {
            rings: Vec::new(),
            backup,
            mode,
            policy: BackupPolicy::Shared,
            backup_key,
            counters,
            ids,
        }
    }

    /// The policy in force.
    #[must_use]
    pub fn mode(&self) -> RxFaultMode {
        self.mode
    }

    /// Selects how backup capacity is shared between tenants.
    pub fn set_backup_policy(&mut self, policy: BackupPolicy) {
        self.policy = policy;
    }

    /// Backup entries currently held for one IOuser ring.
    #[must_use]
    pub fn backup_occupancy(&self, id: RingId) -> u64 {
        self.backup
            .as_ref()
            .and_then(|b| b.per_ring.get(id.0 as usize).copied())
            .unwrap_or(0)
    }

    /// The highest backup occupancy one IOuser ring ever reached.
    #[must_use]
    pub fn backup_hwm(&self, id: RingId) -> u64 {
        self.backup
            .as_ref()
            .and_then(|b| b.hwm.get(id.0 as usize).copied())
            .unwrap_or(0)
    }

    /// Statistics: `stored`, `backup_stored`, `dropped_fault`,
    /// `dropped_no_buffer`, `dropped_quota`, `resolved`,
    /// `bounced_fault`.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Records a faulting receive whose target buffer is being staged
    /// through a driver-level bounce buffer instead of a firmware NPF
    /// event (the softemu backend). The verdict (drop/backup) is
    /// unchanged — this only attributes the fault's servicing path.
    pub fn note_bounced_fault(&mut self) {
        self.counters.bump_id(self.ids.bounced_fault);
    }

    /// Creates an IOuser ring of `size` entries whose bitmap (backup
    /// budget) holds `bm_size` pending rNPFs.
    pub fn create_ring(&mut self, id: RingId, size: u64, bm_size: u64) {
        assert!(size.is_power_of_two(), "ring sizes are powers of two");
        let idx = id.0 as usize;
        if idx >= self.rings.len() {
            self.rings.resize_with(idx + 1, || None);
        }
        self.rings[idx] = Some(IoUserRing {
            size,
            bm_size,
            slots: vec![None; size as usize],
            tail: 0,
            head: 0,
            head_offset: 0,
            bm_index: 0,
            bitmap: vec![false; bm_size as usize],
            pending_bits: 0,
            consumed: 0,
            holes_pending_repost: 0,
            tail_interrupt_requested: false,
        });
    }

    fn ring(&self, id: RingId) -> &IoUserRing<P> {
        self.rings
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .expect("unknown ring")
    }

    fn ring_mut(&mut self, id: RingId) -> &mut IoUserRing<P> {
        self.rings
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .expect("unknown ring")
    }

    /// IOuser posts one receive descriptor. Returns `true` when the
    /// IOprovider had requested a tail interrupt (which this post
    /// satisfies and clears).
    pub fn post_descriptor(&mut self, id: RingId, desc: RxDescriptor) -> bool {
        let r = self.ring_mut(id);
        assert!(
            r.tail - r.consumed < r.size,
            "IOuser overposted ring {id}: tail {} consumed {}",
            r.tail,
            r.consumed
        );
        let slot = (r.tail % r.size) as usize;
        debug_assert!(r.slots[slot].is_none(), "slot reuse before consume");
        r.slots[slot] = Some(Slot::Posted(desc));
        r.tail += 1;
        std::mem::take(&mut r.tail_interrupt_requested)
    }

    /// The descriptor the next packet would target, if one is posted.
    #[must_use]
    pub fn target_descriptor(&self, id: RingId) -> Option<RxDescriptor> {
        let r = self.ring(id);
        let idx = r.head + r.head_offset;
        if idx >= r.tail {
            return None;
        }
        match r.slots[(idx % r.size) as usize] {
            Some(Slot::Posted(d)) => Some(d),
            _ => None,
        }
    }

    /// Figure 6 `recv()`: disposes of one inbound packet for ring `id`.
    ///
    /// `present` is the outcome of the IOMMU probe for the target
    /// buffer: `true` means the DMA can proceed (the caller already
    /// performed it); `false` means it faulted (the caller already
    /// raised the page request).
    pub fn recv(&mut self, id: RingId, payload: P, len: u64, present: bool) -> RxVerdict {
        // Field-precise borrows: the ring and the backup ring are
        // touched together below.
        let r = self
            .rings
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .expect("unknown ring");
        let idx = r.head + r.head_offset;
        let posted = idx < r.tail;
        if posted && present {
            // Store in the IOuser ring.
            let slot = (idx % r.size) as usize;
            assert!(
                matches!(r.slots[slot], Some(Slot::Posted(_))),
                "posted slot in bad state"
            );
            r.slots[slot] = Some(Slot::Filled { payload, len });
            let notify = if r.head_offset > 0 {
                r.head_offset += 1;
                false
            } else {
                r.head += 1;
                true
            };
            self.counters.bump_id(self.ids.stored);
            trace::with(|t| {
                let (head, tail) = (r.head, r.tail);
                t.counter(t.clock(), "nicsim", "ring_head", head as f64);
                t.counter(t.clock(), "nicsim", "ring_tail", tail as f64);
                t.metrics_mut().counter_add("nicsim.rx_stored", 1);
            });
            return RxVerdict::Stored {
                index: idx,
                notify_iouser: notify,
            };
        }
        // rNPF (or missing descriptor): try the backup ring.
        let Some(backup) = self.backup.as_mut() else {
            // Drop mode: a faulting descriptor is *consumed* — the NIC
            // moves on, so every subsequent packet burns a fresh (cold)
            // descriptor. This is what makes the cold ring so damaging
            // (Figure 4): the ring must wrap before packets land.
            if posted {
                let slot = (idx % r.size) as usize;
                r.slots[slot] = Some(Slot::Hole);
                r.head += 1;
                self.counters.bump_id(self.ids.dropped_fault);
                journal::with(|j| j.mark(journal::MarkKind::RxDrop, u64::from(id.0)));
                trace::with(|t| {
                    t.instant(
                        t.clock(),
                        "nicsim",
                        "steer_drop",
                        vec![
                            ("ring", ArgValue::U64(u64::from(id.0))),
                            ("burned_descriptor", ArgValue::Bool(true)),
                        ],
                    );
                    t.metrics_mut().counter_add("nicsim.rx_dropped_fault", 1);
                });
                return RxVerdict::Dropped {
                    burned_descriptor: true,
                };
            }
            self.counters.bump_id(self.ids.dropped_no_buffer);
            journal::with(|j| j.mark(journal::MarkKind::RxDrop, u64::from(id.0)));
            trace::with(|t| {
                t.instant(
                    t.clock(),
                    "nicsim",
                    "steer_drop",
                    vec![
                        ("ring", ArgValue::U64(u64::from(id.0))),
                        ("burned_descriptor", ArgValue::Bool(false)),
                    ],
                );
                t.metrics_mut()
                    .counter_add("nicsim.rx_dropped_no_buffer", 1);
            });
            return RxVerdict::Dropped {
                burned_descriptor: false,
            };
        };
        invariant::with(|c| c.note_backup_offered());
        // Partitioned quota: a tenant at its cap drops its own packet
        // instead of crowding the shared ring.
        if let BackupPolicy::Partitioned { quota } = self.policy {
            if backup.per_ring.get(id.0 as usize).copied().unwrap_or(0) >= quota {
                invariant::with(|c| c.note_backup_dropped());
                self.counters.bump_id(self.ids.dropped_quota);
                self.counters.bump_id(self.ids.dropped_fault);
                journal::with(|j| j.mark(journal::MarkKind::RxDrop, u64::from(id.0)));
                trace::with(|t| {
                    t.instant(
                        t.clock(),
                        "nicsim",
                        "backup_quota_drop",
                        vec![
                            ("ring", ArgValue::U64(u64::from(id.0))),
                            ("quota", ArgValue::U64(quota)),
                        ],
                    );
                    t.metrics_mut().counter_add("nicsim.backup_quota_drop", 1);
                });
                return RxVerdict::Dropped {
                    burned_descriptor: false,
                };
            }
        }
        if r.head_offset >= r.bm_size || backup.tail - backup.head >= backup.size {
            // Backup overflow: the packet is lost but the descriptor is
            // kept (the pending rNPF at this slot will be resolved by an
            // earlier backup entry or a retransmission). Never silent:
            // the drop is counted and the invariant checker told.
            invariant::with(|c| c.note_backup_dropped());
            self.counters.bump_id(self.ids.dropped_fault);
            journal::with(|j| j.mark(journal::MarkKind::RxDrop, u64::from(id.0)));
            trace::with(|t| {
                t.instant(
                    t.clock(),
                    "nicsim",
                    "backup_overflow",
                    vec![
                        ("ring", ArgValue::U64(u64::from(id.0))),
                        ("backup_depth", ArgValue::U64(backup.tail - backup.head)),
                        ("head_offset", ArgValue::U64(r.head_offset)),
                    ],
                );
                t.metrics_mut().counter_add("nicsim.backup_overflow", 1);
            });
            return RxVerdict::Dropped {
                burned_descriptor: false,
            };
        }
        let backup_index = backup.tail;
        let bit_index = r.bm_index + r.head_offset;
        backup.entries.push_back(BackupEntry {
            ring: id,
            target_index: idx,
            bit_index,
            len,
            payload,
        });
        backup.tail += 1;
        let occ = BackupRing::<P>::slot(&mut backup.per_ring, id);
        *occ += 1;
        let occ = *occ;
        let hwm = BackupRing::<P>::slot(&mut backup.hwm, id);
        *hwm = (*hwm).max(occ);
        invariant::with(|c| c.note_backup_stored(self.backup_key));
        let bit = (bit_index % r.bm_size) as usize;
        if !r.bitmap[bit] {
            r.bitmap[bit] = true;
            r.pending_bits += 1;
        }
        // Mark the slot as skipped if a descriptor exists there; if the
        // IOuser has not posted it yet, the copy-back will wait.
        if posted {
            let slot = (idx % r.size) as usize;
            if matches!(r.slots[slot], Some(Slot::Posted(_))) {
                r.slots[slot] = Some(Slot::Skipped);
            }
        }
        r.head_offset += 1;
        self.counters.bump_id(self.ids.backup_stored);
        journal::with(|j| j.mark(journal::MarkKind::RxBackupDivert, idx));
        trace::with(|t| {
            t.instant(
                t.clock(),
                "nicsim",
                "steer_backup",
                vec![
                    ("ring", ArgValue::U64(u64::from(id.0))),
                    ("target_index", ArgValue::U64(idx)),
                    ("bit_index", ArgValue::U64(bit_index)),
                ],
            );
            t.counter(
                t.clock(),
                "nicsim",
                "backup_depth",
                (backup.tail - backup.head) as f64,
            );
            t.counter(t.clock(), "nicsim", "bitmap_pending", r.pending_bits as f64);
            t.metrics_mut().counter_add("nicsim.rx_backup_stored", 1);
        });
        RxVerdict::Backup {
            backup_index,
            bit_index,
            target_index: idx,
        }
    }

    /// The IOprovider drains one backup-ring entry (interrupt handler
    /// path). Entries come out in arrival order.
    pub fn pop_backup(&mut self) -> Option<BackupEntry<P>> {
        let backup = self.backup.as_mut()?;
        if backup.head == backup.tail {
            return None;
        }
        let e = backup.entries.pop_front().expect("entry exists");
        backup.head += 1;
        if let Some(occ) = backup.per_ring.get_mut(e.ring.0 as usize) {
            *occ = occ.saturating_sub(1);
        }
        invariant::with(|c| c.note_backup_drained(self.backup_key));
        Some(e)
    }

    /// The IOprovider finished resolving an rNPF: it re-executed the DMA
    /// into `target_index` (via [`RxEngine::place_resolved`]) and now
    /// reports the bitmap index. Figure 6 `resolve_rNPFs()`.
    ///
    /// Returns `true` when `head` advanced (the IOuser should be
    /// interrupted: previously-blocked packets are now announced).
    pub fn resolve_rnpfs(&mut self, id: RingId, bit_index: u64) -> bool {
        let r = self.ring_mut(id);
        let bit = (bit_index % r.bm_size) as usize;
        if r.bitmap[bit] {
            r.bitmap[bit] = false;
            r.pending_bits -= 1;
        }
        let mut advanced = false;
        while r.head_offset > 0 && !r.bitmap[(r.bm_index % r.bm_size) as usize] {
            // The slot at `head` must actually hold data: either it was
            // filled directly (packets stored past a fault) or the
            // provider placed the resolved packet.
            let slot = (r.head % r.size) as usize;
            match r.slots[slot] {
                Some(Slot::Filled { .. }) => {}
                _ => break, // copy-back not done yet
            }
            r.head_offset -= 1;
            r.head += 1;
            r.bm_index += 1;
            advanced = true;
        }
        let head = r.head;
        let bitmap_pending = r.pending_bits;
        self.counters.bump_id(self.ids.resolved);
        trace::with(|t| {
            t.instant(
                t.clock(),
                "nicsim",
                "rnpf_resolved",
                vec![
                    ("ring", ArgValue::U64(u64::from(id.0))),
                    ("bit_index", ArgValue::U64(bit_index)),
                    ("head_advanced", ArgValue::Bool(advanced)),
                ],
            );
            t.counter(t.clock(), "nicsim", "ring_head", head as f64);
            t.counter(t.clock(), "nicsim", "bitmap_pending", bitmap_pending as f64);
            t.metrics_mut().counter_add("nicsim.rnpfs_resolved", 1);
        });
        advanced
    }

    /// The IOprovider copies a resolved packet into its reserved slot.
    /// The slot must have a descriptor (posted before or after the
    /// fault).
    ///
    /// Returns `false` when no descriptor is available yet (the resolver
    /// thread must wait for the IOuser to post buffers and retry — the
    /// `tail_interrupt` mechanism).
    pub fn place_resolved(&mut self, id: RingId, target_index: u64, payload: P, len: u64) -> bool {
        let r = self.ring_mut(id);
        if target_index >= r.tail {
            return false; // IOuser has not posted this far yet
        }
        let slot = (target_index % r.size) as usize;
        match r.slots[slot].take() {
            Some(Slot::Skipped) | Some(Slot::Posted(_)) => {
                r.slots[slot] = Some(Slot::Filled { payload, len });
                true
            }
            other => {
                r.slots[slot] = other;
                false
            }
        }
    }

    /// The IOprovider asks to be interrupted when the IOuser next posts
    /// a descriptor (so the resolver can continue).
    pub fn request_tail_interrupt(&mut self, id: RingId) {
        self.ring_mut(id).tail_interrupt_requested = true;
    }

    /// IOuser consumption: pops the next announced packet, if any,
    /// transparently skipping drop-mode holes (their descriptors are
    /// counted for reposting via [`RxEngine::take_skipped_holes`]).
    /// Packets are announced once `head` has passed them.
    pub fn consume(&mut self, id: RingId) -> Option<(P, u64)> {
        let r = self.ring_mut(id);
        while r.consumed < r.head {
            let slot = (r.consumed % r.size) as usize;
            match r.slots[slot].take() {
                Some(Slot::Filled { payload, len }) => {
                    r.consumed += 1;
                    return Some((payload, len));
                }
                Some(Slot::Hole) => {
                    r.consumed += 1;
                    r.holes_pending_repost += 1;
                }
                other => {
                    // Announced slots are filled or holes; anything else
                    // is an ordering bug.
                    panic!(
                        "announced slot {} in bad state {}",
                        r.consumed,
                        other.is_some()
                    );
                }
            }
        }
        None
    }

    /// Returns (and resets) the number of holes `consume` passed over;
    /// the IOuser reposts that many descriptors.
    pub fn take_skipped_holes(&mut self, id: RingId) -> u64 {
        std::mem::take(&mut self.ring_mut(id).holes_pending_repost)
    }

    /// The packets [`RxEngine::consume`] will hand out next, in order,
    /// left in place.
    pub fn announced(&self, id: RingId) -> impl Iterator<Item = &P> {
        let r = self.ring(id);
        (r.consumed..r.head).filter_map(move |i| match &r.slots[(i % r.size) as usize] {
            Some(Slot::Filled { payload, .. }) => Some(payload),
            _ => None,
        })
    }

    /// Packets announced and not yet consumed.
    #[must_use]
    pub fn readable_packets(&self, id: RingId) -> u64 {
        let r = self.ring(id);
        r.head - r.consumed
    }

    /// Current absolute tail (posted watermark).
    #[must_use]
    pub fn tail(&self, id: RingId) -> u64 {
        self.ring(id).tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: RingId = RingId(0);

    fn engine(mode: RxFaultMode) -> RxEngine<&'static str> {
        let mut e = RxEngine::new(mode);
        e.create_ring(R, 8, 16);
        e
    }

    fn post_n(e: &mut RxEngine<&'static str>, n: u64) {
        for i in 0..n {
            e.post_descriptor(
                R,
                RxDescriptor {
                    addr: VirtAddr(0x10000 + i * 0x1000),
                    capacity: 2048,
                },
            );
        }
    }

    #[test]
    fn direct_store_announces_immediately() {
        let mut e = engine(RxFaultMode::Drop);
        post_n(&mut e, 4);
        let v = e.recv(R, "pkt0", 100, true);
        assert_eq!(
            v,
            RxVerdict::Stored {
                index: 0,
                notify_iouser: true
            }
        );
        assert_eq!(e.readable_packets(R), 1);
        assert_eq!(e.consume(R), Some(("pkt0", 100)));
        assert_eq!(e.consume(R), None);
    }

    #[test]
    fn drop_mode_burns_descriptors() {
        let mut e = engine(RxFaultMode::Drop);
        post_n(&mut e, 4);
        let v = e.recv(R, "pkt0", 100, false);
        assert_eq!(
            v,
            RxVerdict::Dropped {
                burned_descriptor: true
            }
        );
        assert_eq!(e.counters().get("dropped_fault"), 1);
        // The descriptor was consumed: the next packet targets slot 1.
        let v = e.recv(R, "pkt1", 101, true);
        assert_eq!(
            v,
            RxVerdict::Stored {
                index: 1,
                notify_iouser: true
            }
        );
        // Consuming skips the hole and reports it for reposting.
        assert_eq!(e.consume(R), Some(("pkt1", 101)));
        assert_eq!(e.take_skipped_holes(R), 1);
        assert_eq!(e.take_skipped_holes(R), 0);
    }

    #[test]
    fn announced_lists_what_consume_will_return() {
        let mut e = engine(RxFaultMode::Drop);
        post_n(&mut e, 4);
        e.recv(R, "pkt0", 100, true);
        e.recv(R, "pkt1", 101, false); // a hole
        e.recv(R, "pkt2", 102, true);
        assert_eq!(
            e.announced(R).copied().collect::<Vec<_>>(),
            ["pkt0", "pkt2"]
        );
        assert_eq!(e.consume(R), Some(("pkt0", 100)));
        assert_eq!(e.announced(R).copied().collect::<Vec<_>>(), ["pkt2"]);
        assert_eq!(e.consume(R), Some(("pkt2", 102)));
        assert_eq!(e.announced(R).count(), 0);
    }

    #[test]
    fn no_descriptor_drops_in_drop_mode() {
        let mut e = engine(RxFaultMode::Drop);
        let v = e.recv(R, "pkt0", 100, true);
        assert_eq!(
            v,
            RxVerdict::Dropped {
                burned_descriptor: false
            }
        );
        assert_eq!(e.counters().get("dropped_no_buffer"), 1);
    }

    #[test]
    fn fault_goes_to_backup_and_blocks_announcements() {
        let mut e = engine(RxFaultMode::BackupRing { capacity: 64 });
        post_n(&mut e, 4);
        // Packet 0 faults -> backup; packets 1 and 2 store fine but are
        // NOT announced (ordering).
        let v0 = e.recv(R, "pkt0", 100, false);
        let RxVerdict::Backup {
            backup_index,
            bit_index,
            target_index,
        } = v0
        else {
            panic!("expected backup, got {v0:?}");
        };
        assert_eq!((backup_index, bit_index, target_index), (0, 0, 0));
        let v1 = e.recv(R, "pkt1", 101, true);
        assert_eq!(
            v1,
            RxVerdict::Stored {
                index: 1,
                notify_iouser: false
            }
        );
        e.recv(R, "pkt2", 102, true);
        assert_eq!(e.readable_packets(R), 0, "no announcement past a fault");
        assert_eq!(e.backup_occupancy(R), 1);

        // The provider drains the backup entry, resolves the fault,
        // copies the packet back, and reports.
        let entry = e.pop_backup().expect("entry");
        assert_eq!(entry.ring, R);
        assert_eq!(entry.payload, "pkt0");
        assert!(e.place_resolved(R, entry.target_index, entry.payload, entry.len));
        let advanced = e.resolve_rnpfs(R, entry.bit_index);
        assert!(advanced, "head must advance past all three packets");
        assert_eq!(e.readable_packets(R), 3);
        // In-order delivery: 0, 1, 2.
        assert_eq!(e.consume(R), Some(("pkt0", 100)));
        assert_eq!(e.consume(R), Some(("pkt1", 101)));
        assert_eq!(e.consume(R), Some(("pkt2", 102)));
    }

    #[test]
    fn interleaved_faults_resolve_out_of_order() {
        let mut e = engine(RxFaultMode::BackupRing { capacity: 64 });
        post_n(&mut e, 6);
        // Faults at 0 and 2; stores at 1 and 3.
        let RxVerdict::Backup { bit_index: b0, .. } = e.recv(R, "p0", 0, false) else {
            panic!("backup")
        };
        e.recv(R, "p1", 1, true);
        let RxVerdict::Backup { bit_index: b2, .. } = e.recv(R, "p2", 2, false) else {
            panic!("backup")
        };
        e.recv(R, "p3", 3, true);
        // Resolve the *second* fault first: head must not move.
        let e2 = e.pop_backup().expect("first backup entry (p0)");
        let e2b = e.pop_backup().expect("second backup entry (p2)");
        assert_eq!(e2b.payload, "p2");
        assert!(e.place_resolved(R, e2b.target_index, e2b.payload, e2b.len));
        assert!(!e.resolve_rnpfs(R, b2), "older fault still blocks");
        assert_eq!(e.readable_packets(R), 0);
        // Now resolve the first: everything announces.
        assert!(e.place_resolved(R, e2.target_index, e2.payload, e2.len));
        assert!(e.resolve_rnpfs(R, b0));
        assert_eq!(e.readable_packets(R), 4);
        let order: Vec<&str> = std::iter::from_fn(|| e.consume(R).map(|(p, _)| p)).collect();
        assert_eq!(order, vec!["p0", "p1", "p2", "p3"]);
    }

    #[test]
    fn pending_counter_tracks_bitmap_exactly() {
        let popcount = |e: &RxEngine<&str>| {
            let r = e.rings[R.0 as usize].as_ref().expect("ring");
            r.bitmap.iter().filter(|&&b| b).count() as u64
        };
        let mut e = engine(RxFaultMode::BackupRing { capacity: 64 });
        post_n(&mut e, 8);
        assert_eq!(e.ring(R).pending_bits, popcount(&e));
        // Interleave faults and stores, resolving out of order — the
        // maintained counter must match a fresh popcount at every step.
        let mut bits = Vec::new();
        for i in 0..6u64 {
            let fault = i % 2 == 0;
            match e.recv(R, "p", i, !fault) {
                RxVerdict::Backup { bit_index, .. } => bits.push(bit_index),
                RxVerdict::Stored { .. } => {}
                other => panic!("unexpected verdict {other:?}"),
            }
            assert_eq!(e.ring(R).pending_bits, popcount(&e));
        }
        assert_eq!(e.ring(R).pending_bits, 3);
        while let Some(entry) = e.pop_backup() {
            assert!(e.place_resolved(R, entry.target_index, entry.payload, entry.len));
        }
        // Resolve newest-first, then re-resolve an already-clear bit:
        // both transitions (set->clear and clear->clear) stay exact.
        for &b in bits.iter().rev() {
            e.resolve_rnpfs(R, b);
            assert_eq!(e.ring(R).pending_bits, popcount(&e));
        }
        assert_eq!(e.ring(R).pending_bits, 0);
        e.resolve_rnpfs(R, bits[0]);
        assert_eq!(e.ring(R).pending_bits, 0);
        assert_eq!(e.ring(R).pending_bits, popcount(&e));
    }

    #[test]
    fn bitmap_budget_bounds_buffered_packets() {
        let mut e: RxEngine<&str> = RxEngine::new(RxFaultMode::BackupRing { capacity: 1000 });
        e.create_ring(R, 8, 2); // provider holds at most 2 per ring
        post_n(&mut e, 8);
        assert!(matches!(e.recv(R, "a", 0, false), RxVerdict::Backup { .. }));
        assert!(matches!(e.recv(R, "b", 0, false), RxVerdict::Backup { .. }));
        assert_eq!(
            e.recv(R, "c", 0, false),
            RxVerdict::Dropped {
                burned_descriptor: false
            }
        );
        assert_eq!(e.counters().get("dropped_fault"), 1);
    }

    #[test]
    fn partitioned_quota_caps_one_tenant() {
        let mut e: RxEngine<&str> = RxEngine::new(RxFaultMode::BackupRing { capacity: 64 });
        e.set_backup_policy(BackupPolicy::Partitioned { quota: 2 });
        let (a, b) = (RingId(0), RingId(1));
        e.create_ring(a, 8, 16);
        e.create_ring(b, 8, 16);
        for ring in [a, b] {
            for i in 0..8 {
                e.post_descriptor(
                    ring,
                    RxDescriptor {
                        addr: VirtAddr(0x10000 + i * 0x1000),
                        capacity: 2048,
                    },
                );
            }
        }
        // Tenant A faults three times: the third hits its quota.
        assert!(matches!(
            e.recv(a, "a0", 0, false),
            RxVerdict::Backup { .. }
        ));
        assert!(matches!(
            e.recv(a, "a1", 0, false),
            RxVerdict::Backup { .. }
        ));
        assert_eq!(
            e.recv(a, "a2", 0, false),
            RxVerdict::Dropped {
                burned_descriptor: false
            }
        );
        assert_eq!(e.counters().get("dropped_quota"), 1);
        assert_eq!(e.backup_occupancy(a), 2);
        assert_eq!(e.backup_hwm(a), 2);
        // Tenant B is unaffected: the shared ring still has room.
        assert!(matches!(
            e.recv(b, "b0", 0, false),
            RxVerdict::Backup { .. }
        ));
        assert_eq!(e.backup_occupancy(b), 1);
        // Draining A's entries frees its quota again.
        let e0 = e.pop_backup().expect("a0");
        assert_eq!(e0.ring, a);
        assert_eq!(e.backup_occupancy(a), 1);
        assert!(matches!(
            e.recv(a, "a3", 0, false),
            RxVerdict::Backup { .. }
        ));
        assert_eq!(e.backup_hwm(a), 2, "hwm never exceeds the quota");
    }

    #[test]
    fn shared_policy_lets_one_tenant_fill_ring() {
        let mut e: RxEngine<&str> = RxEngine::new(RxFaultMode::BackupRing { capacity: 4 });
        let (a, b) = (RingId(0), RingId(1));
        e.create_ring(a, 8, 16);
        e.create_ring(b, 8, 16);
        for ring in [a, b] {
            for i in 0..8 {
                e.post_descriptor(
                    ring,
                    RxDescriptor {
                        addr: VirtAddr(0x10000 + i * 0x1000),
                        capacity: 2048,
                    },
                );
            }
        }
        // The cold tenant A exhausts the shared ring...
        for i in 0..4 {
            assert!(
                matches!(e.recv(a, "a", i, false), RxVerdict::Backup { .. }),
                "entry {i}"
            );
        }
        // ...and tenant B's fault is collateral damage.
        assert_eq!(
            e.recv(b, "b", 0, false),
            RxVerdict::Dropped {
                burned_descriptor: false
            }
        );
        assert_eq!(e.backup_hwm(a), 4);
        assert_eq!(e.counters().get("dropped_quota"), 0);
    }

    #[test]
    fn backup_capacity_bounds_total() {
        let mut e: RxEngine<&str> = RxEngine::new(RxFaultMode::BackupRing { capacity: 1 });
        e.create_ring(R, 8, 16);
        post_n(&mut e, 8);
        assert!(matches!(e.recv(R, "a", 0, false), RxVerdict::Backup { .. }));
        assert_eq!(
            e.recv(R, "b", 0, false),
            RxVerdict::Dropped {
                burned_descriptor: false
            }
        );
    }

    #[test]
    fn unposted_descriptor_uses_backup_and_waits_for_post() {
        let mut e = engine(RxFaultMode::BackupRing { capacity: 64 });
        // Nothing posted: packet goes to backup with a future target.
        let RxVerdict::Backup {
            target_index,
            bit_index,
            ..
        } = e.recv(R, "p", 42, true)
        else {
            panic!("backup")
        };
        assert_eq!(target_index, 0);
        // The copy-back cannot proceed until the IOuser posts.
        let entry = e.pop_backup().expect("entry");
        assert!(!e.place_resolved(R, entry.target_index, entry.payload, entry.len));
        e.request_tail_interrupt(R);
        let fired = e.post_descriptor(
            R,
            RxDescriptor {
                addr: VirtAddr(0x2000),
                capacity: 2048,
            },
        );
        assert!(fired, "tail interrupt fires on post");
        assert!(e.place_resolved(R, target_index, "p", 42));
        assert!(e.resolve_rnpfs(R, bit_index));
        assert_eq!(e.consume(R), Some(("p", 42)));
    }

    #[test]
    fn ring_wraps_around() {
        let mut e = engine(RxFaultMode::Drop);
        for round in 0..5u64 {
            post_n(&mut e, 8);
            for i in 0..8u64 {
                let v = e.recv(R, "x", i, true);
                assert!(
                    matches!(v, RxVerdict::Stored { .. }),
                    "round {round} pkt {i}"
                );
            }
            for _ in 0..8 {
                assert!(e.consume(R).is_some());
            }
        }
        assert_eq!(e.counters().get("stored"), 40);
    }

    #[test]
    #[should_panic(expected = "overposted")]
    fn overposting_panics() {
        let mut e = engine(RxFaultMode::Drop);
        post_n(&mut e, 9);
    }
}
