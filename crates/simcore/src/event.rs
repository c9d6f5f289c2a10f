//! Deterministic event queue.
//!
//! Every testbed owns exactly one [`EventQueue`]; it is the only source of
//! time advancement in a simulation. Events scheduled for the same instant
//! are popped in FIFO order of scheduling (a monotone sequence number breaks
//! ties), which makes runs bit-for-bit reproducible.
//!
//! # Cancellation bookkeeping
//!
//! The queue is an *indexed* heap: every scheduled event owns a slot in a
//! generation-tagged slab, its heap entry carries the slot index, and the
//! slot records where in the heap that entry currently sits (every sift
//! writes the moved entry's new index back). [`EventQueue::cancel`] follows
//! the back-pointer, removes the entry in place (the last entry fills the
//! hole and sifts up or down) and frees the slot at once, so the heap holds
//! live events only — one-off events plus one entry per non-empty lane
//! (see below) — however many far-future timers were armed and cancelled,
//! and [`EventQueue::next_time`] is a plain peek. Removal cannot perturb
//! delivery order: the key `(at, seq)` is total, so the pop sequence is a
//! function of the set of pending keys alone, never of heap shape. Slot
//! generations make stale tokens — from events that already fired, were
//! cancelled, or were discarded by [`EventQueue::clear`] — harmless even
//! after their slot is reused.
//!
//! # Lanes
//!
//! A wire delivers in the order it was fed, so sorting its packets is
//! wasted work. [`EventQueue::lane`] opens a FIFO lane (an empty
//! `VecDeque`; nothing is allocated until an event parks on it) and
//! [`EventQueue::schedule_on`] means exactly [`EventQueue::schedule_at`] —
//! same clamp to `now`, same sequence number drawn at schedule time, same
//! counters — minus the cancel token. When `at` is not earlier than the
//! lane's newest pending event, the entry (payload inline, no slab slot)
//! is appended to the lane in O(1); only the lane's *head* key sits in
//! the heap, and when it pops the next key takes its place with one
//! sift-down. The heap therefore holds one entry per non-empty lane, not
//! one per packet in flight.
//!
//! **The fall-through.** When `at` *is* earlier than the lane's tail,
//! `schedule_on` itself takes the ordinary slab + heap path. Correctness
//! never depends on a caller's monotonicity promise; only speed does.
//! (Today only fault injection gets there: a packet it delays is
//! appended and raises the tail, and the packets sent behind it fall
//! through until the lane has drained up to it.)
//!
//! **Why no token.** A lane entry has no slab slot for a token to name,
//! and removing from the middle of a FIFO is what lanes exist to avoid.
//! Nothing cancels a link delivery; timers, which are cancelled, take
//! `schedule_at` or `schedule_timer`.
//!
//! **Why the order is identical.** Sequence numbers are still drawn at
//! schedule time, so a lane's keys ascend strictly and lane order equals
//! `(at, seq)` order. The minimum over {one-off entries, lane heads} is
//! then the minimum over all pending keys, and the pop sequence remains a
//! function of the set of pending keys alone: replacing any `schedule_on`
//! by `schedule_at` changes no run.
//!
//! # Timers outside the heap
//!
//! A retransmission timer that is re-armed on every ACK and almost never
//! fires costs two sifts per arm/cancel pair if it sits in the heap, and
//! it deepens the heap every near event sifts through.
//! [`EventQueue::schedule_timer`] means exactly
//! [`EventQueue::schedule_at`] — same clamp, same sequence number drawn
//! at schedule time, same counters, a token that cancels the same way —
//! but an entry due at or past the queue's *horizon* waits unsorted in a
//! far store instead: arming is a push, cancelling a swap-remove plus one
//! back-pointer fix.
//!
//! **The horizon** only moves forward. Every far entry is due at or past
//! it, so while the heap's root is earlier than the horizon the root is
//! the earliest pending event and a pop is what it always was. When the
//! root reaches the horizon (or the heap empties) the pop first sets the
//! horizon to [`TIMER_HORIZON`] past the earliest event it can see and
//! moves every far entry now earlier than it into the heap. A lower bound
//! on the far store's times is kept, so that pass runs only when some far
//! entry may actually be due: a timer cancelled long before its time is
//! never scanned at all.
//!
//! **Why the order is identical.** A far entry enters the heap before the
//! heap can hand out anything later than it, and its key is the one drawn
//! at schedule time; the pop sequence is still a function of the pending
//! `(at, seq)` keys alone, so replacing any `schedule_timer` by
//! `schedule_at` changes no run.
//!
//! **Why the caller chooses.** Only the caller knows that a timer will be
//! cancelled long before it is due. An event that does fire pays one
//! extra move through the far store, and a short timer re-armed every few
//! microseconds would cross the horizon at every pass; so TCP's
//! retransmission timer (200 ms at least) takes `schedule_timer`, and
//! the 500 µs RC retransmission timer, which lands inside the horizon
//! anyway, stays on `schedule_at`.
//!
//! # The queue owns the clocks
//!
//! [`EventQueue::now`] is the only simulated clock, so the queue is also
//! what tells the thread's instruments the time: every
//! [`EventQueue::pop`] / [`EventQueue::pop_until`] stamps the installed
//! trace recorder and fault journal and checkpoints the installed
//! invariant checker before the event reaches its handler. A testbed
//! loop is `while let Some((now, ev)) = queue.pop_until(deadline)` and
//! nothing else; with no instrument installed the stamp is one
//! thread-local read.
//!
//! # Examples
//!
//! ```
//! use simcore::event::EventQueue;
//! use simcore::time::{SimTime, SimDuration};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule_at(SimTime::from_micros(5), "b");
//! q.schedule_at(SimTime::from_micros(1), "a");
//! assert_eq!(q.next_time(), Some(SimTime::from_micros(1)));
//! assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
//! assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
//! assert!(q.pop().is_none());
//! ```

use std::collections::VecDeque;

use crate::chaos::invariant;
use crate::time::{SimDuration, SimTime};
use crate::{instruments, journal, trace};

/// Tells the thread's installed instruments the time of the event about
/// to be handed out. Out of line, so the uninstrumented pop stays a
/// flag test.
#[cold]
fn stamp(now: SimTime) {
    trace::with(|t| t.set_clock(now));
    journal::with(|j| j.set_clock(now));
    invariant::with(|c| c.checkpoint(now));
}

/// A heap entry: delivery key plus where the payload lives — a slab slot,
/// or (with [`LANE_TAG`] set) the front of a lane.
///
/// Payloads live in the slot slab, not the heap (a SoA split): sift
/// operations move 24-byte keys instead of whole event structs, so the
/// hot loop's moves stay within a couple of cache lines even for large
/// event enums (a testbed event embedding a TCP segment is >100 bytes).
#[derive(Debug, Clone, Copy)]
struct Entry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Entry {
    /// Total order of delivery: earliest time first, FIFO within an
    /// instant. `seq` is unique, so the order is total and the pop
    /// sequence is independent of heap shape.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Handle identifying a scheduled event so it can be cancelled.
///
/// Encodes a slab slot index plus the slot's generation at scheduling
/// time, so a token outlives its event harmlessly: cancelling after the
/// event fired (or after the slot was recycled) reports `false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventToken(u64);

impl EventToken {
    fn new(slot: u32, gen: u32) -> Self {
        EventToken(u64::from(gen) << 32 | u64::from(slot))
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

#[derive(Debug)]
struct Slot<E> {
    /// Bumped every time the slot is released, invalidating old tokens.
    gen: u32,
    /// While the slot is pending: the index of its entry in the heap, or
    /// [`FAR_TAG`] plus its index in the far store.
    /// While it is free: the next slot on the free list.
    link: u32,
    /// The scheduled payload; `Some` exactly while the slot is pending.
    event: Option<E>,
}

const NIL: u32 = u32::MAX;

/// Set in [`Entry::slot`] when the entry stands for the head of a lane;
/// the remaining bits are then the lane's index, not a slab slot.
const LANE_TAG: u32 = 1 << 31;

/// Set in a pending [`Slot::link`] whose entry waits in the far store;
/// the remaining bits are then its index there, not in the heap.
const FAR_TAG: u32 = 1 << 31;

/// How far past the earliest pending event the horizon is set when it
/// moves (see the module docs): an order of magnitude above the
/// Ethernet beds' interrupt holdoff and round trip, and well below TCP's
/// 200 ms minimum retransmission timeout, so a re-armed TCP timer always
/// lands in the far store and the horizon moves about once per simulated
/// millisecond.
pub const TIMER_HORIZON: SimDuration = SimDuration::from_millis(1);

/// Names a FIFO lane opened by [`EventQueue::lane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneId(u32);

/// A lane's pending events, oldest first: `(at, seq, payload)`.
type Lane<E> = VecDeque<(SimTime, u64, E)>;

/// Children per heap node. Half the levels of a binary heap for the same
/// population: pops touch fewer cache lines, and the event queue is the
/// single hottest structure in every testbed. Four sibling keys share
/// adjacent entries, so the widest sift-down level is one or two cache
/// lines.
const ARITY: usize = 4;

/// A time-ordered queue of simulation events.
///
/// `E` is the testbed-specific event type. The queue tracks the current
/// simulated time: popping an event advances [`EventQueue::now`] to the
/// event's timestamp. Scheduling in the past is clamped to `now` (the
/// event fires "immediately", still in deterministic order).
///
/// # Accounting
///
/// The lifetime counters always satisfy
///
/// ```text
/// scheduled_total == popped_total + cancelled_total + discarded_total + len()
/// ```
///
/// where [`EventQueue::discarded_total`] counts events dropped by
/// [`EventQueue::clear`].
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Flat 4-ary min-heap ordered by [`Entry::key`]; one entry per
    /// pending one-off event and one per non-empty lane (its front),
    /// none for cancelled events.
    heap: Vec<Entry>,
    /// FIFO lanes; each holds its pending events in strictly ascending
    /// key order.
    lanes: Vec<Lane<E>>,
    /// Lane events waiting behind their lane's head: pending, but not in
    /// the heap.
    parked: usize,
    /// Timers due at or past `horizon`, unsorted; each slot's `link` is
    /// [`FAR_TAG`] plus its index here.
    far: Vec<Entry>,
    /// Every entry of `far` is due at or past this time; never moves
    /// back.
    horizon: SimTime,
    /// At or before the time of every entry of `far` while it is not
    /// empty; exact after each pass that moves due entries to the heap.
    far_floor: SimTime,
    now: SimTime,
    next_seq: u64,
    slots: Vec<Slot<E>>,
    free_head: u32,
    scheduled_total: u64,
    popped_total: u64,
    cancelled_total: u64,
    discarded_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            lanes: Vec::new(),
            parked: 0,
            far: Vec::new(),
            horizon: SimTime::ZERO,
            far_floor: SimTime::MAX,
            now: SimTime::ZERO,
            next_seq: 0,
            slots: Vec::new(),
            free_head: NIL,
            scheduled_total: 0,
            popped_total: 0,
            cancelled_total: 0,
            discarded_total: 0,
        }
    }

    /// The current simulated time (the timestamp of the last popped event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events, on lanes, in the far
    /// store or in the heap.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len() + self.parked + self.far.len()
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        // A parked event has its lane's head in the heap ahead of it.
        self.heap.is_empty() && self.far.is_empty()
    }

    /// How many of the pending events wait on a lane behind its head:
    /// [`EventQueue::len`] minus the heap's depth.
    #[must_use]
    pub fn parked(&self) -> usize {
        self.parked
    }

    /// Total number of events ever scheduled.
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Total number of events ever popped (delivered).
    #[must_use]
    pub fn popped_total(&self) -> u64 {
        self.popped_total
    }

    /// Total number of events ever cancelled.
    #[must_use]
    pub fn cancelled_total(&self) -> u64 {
        self.cancelled_total
    }

    /// Total number of pending events discarded by [`EventQueue::clear`].
    #[must_use]
    pub fn discarded_total(&self) -> u64 {
        self.discarded_total
    }

    /// Takes a slot off the free list (or grows the slab) and parks the
    /// payload there, which marks it pending. Returns the slot index;
    /// the caller sets the heap back-pointer when it places the entry.
    fn alloc_slot(&mut self, event: E) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            self.free_head = slot.link;
            slot.event = Some(event);
            idx
        } else {
            // Bit 31 of a heap entry's slot is `LANE_TAG`, and of a
            // pending slot's link (a heap or far-store index) `FAR_TAG`.
            assert!(
                self.slots.len() + self.lanes.len() < LANE_TAG as usize,
                "slab and lanes exceed 2^31"
            );
            let idx = self.slots.len() as u32;
            self.slots.push(Slot {
                gen: 0,
                link: NIL,
                event: Some(event),
            });
            idx
        }
    }

    /// Releases a slot whose heap entry was just removed: bumps the
    /// generation (invalidating outstanding tokens), takes the payload,
    /// and pushes the slot onto the free list.
    fn free_slot(&mut self, idx: u32) -> Option<E> {
        let next_free = self.free_head;
        let slot = &mut self.slots[idx as usize];
        slot.gen = slot.gen.wrapping_add(1);
        slot.link = next_free;
        self.free_head = idx;
        slot.event.take()
    }

    /// Writes `entry` at heap index `i` and points its slot back at it.
    /// A lane head needs no back-pointer: it only ever leaves from the
    /// root.
    #[inline]
    fn place(&mut self, i: usize, entry: Entry) {
        self.heap[i] = entry;
        if entry.slot & LANE_TAG == 0 {
            // `i < heap.len() <= slots.len() + lanes.len() < FAR_TAG`.
            self.slots[entry.slot as usize].link = i as u32;
        }
    }

    /// Settles `entry` into the hole at index `i`, moving larger
    /// ancestors down into it.
    fn sift_up(&mut self, mut i: usize, entry: Entry) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            let above = self.heap[parent];
            if above.key() <= entry.key() {
                break;
            }
            self.place(i, above);
            i = parent;
        }
        self.place(i, entry);
    }

    /// Settles `entry` into the hole at index `i`, moving the smallest
    /// child up into it while that child sorts first.
    fn sift_down(&mut self, mut i: usize, entry: Entry) {
        let len = self.heap.len();
        loop {
            let first = i * ARITY + 1;
            if first >= len {
                break;
            }
            let mut min = first;
            for c in first + 1..(first + ARITY).min(len) {
                if self.heap[c].key() < self.heap[min].key() {
                    min = c;
                }
            }
            let below = self.heap[min];
            if entry.key() <= below.key() {
                break;
            }
            self.place(i, below);
            i = min;
        }
        self.place(i, entry);
    }

    /// Removes and returns the entry at heap index `i`: the last entry
    /// fills the hole and sifts whichever way restores heap order.
    fn remove_at(&mut self, i: usize) -> Entry {
        let removed = self.heap[i];
        let last = self.heap.pop().expect("index is in the heap");
        if i < self.heap.len() {
            if i > 0 && last.key() < self.heap[(i - 1) / ARITY].key() {
                self.sift_up(i, last);
            } else {
                self.sift_down(i, last);
            }
        }
        removed
    }

    /// Schedules `event` at absolute time `at`. Times in the past are
    /// clamped to `now`. Returns a token usable with [`EventQueue::cancel`].
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventToken {
        let (at, seq) = self.draw_key(at);
        self.push_one_off(at, seq, event)
    }

    /// Clamps `at` to `now` and draws the next sequence number: the
    /// delivery key of the event being scheduled.
    #[inline]
    fn draw_key(&mut self, at: SimTime) -> (SimTime, u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        (at.max(self.now), seq)
    }

    /// Parks `event` in a slab slot and its key in the heap.
    fn push_one_off(&mut self, at: SimTime, seq: u64, event: E) -> EventToken {
        let slot = self.alloc_slot(event);
        let token = EventToken::new(slot, self.slots[slot as usize].gen);
        self.push_entry(Entry { at, seq, slot });
        token
    }

    fn push_entry(&mut self, entry: Entry) {
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1, entry);
    }

    /// Opens a FIFO lane (see the module docs). Costs nothing until an
    /// event parks on it; a lane stays open for the queue's lifetime,
    /// across [`EventQueue::clear`] too.
    pub fn lane(&mut self) -> LaneId {
        assert!(
            self.slots.len() + self.lanes.len() < LANE_TAG as usize,
            "slab and lanes exceed 2^31"
        );
        self.lanes.push(VecDeque::new());
        LaneId(self.lanes.len() as u32 - 1)
    }

    /// [`EventQueue::schedule_at`] without the cancel token, for events
    /// that mostly arrive in the order they were scheduled: when `at` is
    /// not earlier than the newest event pending on `lane` this is O(1)
    /// and the heap does not grow; otherwise it is `schedule_at`. Either
    /// way the event pops exactly where `schedule_at` would have put it.
    ///
    /// # Panics
    ///
    /// If `lane` was opened by another queue with fewer lanes.
    pub fn schedule_on(&mut self, lane: LaneId, at: SimTime, event: E) {
        let (at, seq) = self.draw_key(at);
        let pending = &mut self.lanes[lane.0 as usize];
        match pending.back() {
            None => {
                pending.push_back((at, seq, event));
                let slot = LANE_TAG | lane.0;
                self.push_entry(Entry { at, seq, slot });
            }
            Some(&(newest, ..)) if newest <= at => {
                pending.push_back((at, seq, event));
                self.parked += 1;
            }
            Some(_) => {
                self.push_one_off(at, seq, event);
            }
        }
    }

    /// [`EventQueue::schedule_at`] for a timer that will usually be
    /// cancelled long before it is due: at or past the horizon it waits
    /// unsorted outside the heap, so arming and cancelling it are O(1)
    /// and sift nothing (see the module docs). It pops exactly where
    /// `schedule_at` would have put it.
    pub fn schedule_timer(&mut self, at: SimTime, event: E) -> EventToken {
        let (at, seq) = self.draw_key(at);
        if at < self.horizon {
            return self.push_one_off(at, seq, event);
        }
        let slot = self.alloc_slot(event);
        let index = u32::try_from(self.far.len()).expect("far store below 2^31");
        let pending = &mut self.slots[slot as usize];
        pending.link = FAR_TAG | index;
        let token = EventToken::new(slot, pending.gen);
        self.far_floor = if self.far.is_empty() {
            at
        } else {
            self.far_floor.min(at)
        };
        self.far.push(Entry { at, seq, slot });
        token
    }

    /// Moves the horizon past the earliest pending event and returns the
    /// heap's new root, first moving every far entry the horizon passes
    /// into the heap. Called by a pop whose root is at or past the
    /// horizon (or that found the heap empty); on return the root, if
    /// any, is the earliest pending event.
    #[cold]
    #[inline(never)]
    fn advance_horizon(&mut self) -> Option<Entry> {
        loop {
            let top = self.heap.first().map(|entry| entry.at);
            if self.far.is_empty() {
                // Nothing waits outside the heap: let the next pops take
                // the fast path.
                if let Some(at) = top {
                    self.horizon = self.horizon.max(at.saturating_add(TIMER_HORIZON));
                }
                return self.heap.first().copied();
            }
            if top.is_some_and(|at| at < self.horizon) {
                return self.heap.first().copied();
            }
            // Both the root and every far entry are at or past the
            // horizon, so this moves it forward.
            let earliest = top.map_or(self.far_floor, |at| at.min(self.far_floor));
            self.horizon = earliest.saturating_add(TIMER_HORIZON);
            if self.far_floor < self.horizon || self.horizon == SimTime::MAX {
                self.admit_due();
            }
        }
    }

    /// Moves every far entry earlier than the horizon (every one, once the
    /// horizon has saturated) into the heap and makes `far_floor` exact.
    fn admit_due(&mut self) {
        let mut floor = SimTime::MAX;
        let mut i = 0;
        while i < self.far.len() {
            let entry = self.far[i];
            if entry.at < self.horizon || self.horizon == SimTime::MAX {
                self.far.swap_remove(i);
                if let Some(moved) = self.far.get(i) {
                    self.slots[moved.slot as usize].link = FAR_TAG | i as u32;
                }
                self.push_entry(entry);
            } else {
                floor = floor.min(entry.at);
                i += 1;
            }
        }
        self.far_floor = floor;
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventToken {
        self.schedule_at(self.now.saturating_add(delay), event)
    }

    /// Schedules `event` to fire at the current time, after any events
    /// already queued for this instant.
    pub fn schedule_now(&mut self, event: E) -> EventToken {
        self.schedule_at(self.now, event)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event
    /// was still pending. Cancelling twice, cancelling an event that
    /// already fired, or cancelling across a [`EventQueue::clear`]
    /// returns `false`.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let idx = token.slot();
        let Some(slot) = self.slots.get(idx as usize) else {
            return false;
        };
        if slot.gen != token.gen() || slot.event.is_none() {
            return false;
        }
        let link = slot.link;
        let entry = if link & FAR_TAG == 0 {
            self.remove_at(link as usize)
        } else {
            let i = (link & !FAR_TAG) as usize;
            let entry = self.far.swap_remove(i);
            if let Some(moved) = self.far.get(i) {
                self.slots[moved.slot as usize].link = link;
            }
            entry
        };
        debug_assert_eq!(entry.slot, idx, "back-pointer names its own entry");
        self.free_slot(idx);
        self.cancelled_total += 1;
        true
    }

    /// Removes and returns the next event along with its timestamp,
    /// advancing the simulated clock. Returns `None` when the queue is
    /// drained.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::MAX)
    }

    /// Like [`EventQueue::pop`], but leaves an event later than
    /// `deadline` pending and returns `None`, so [`EventQueue::now`]
    /// stays at the last event delivered.
    ///
    /// The queue owns `now`, so this is also the one place the thread's
    /// instruments learn it: before the event is handed out, an
    /// installed trace recorder and fault journal have their clocks
    /// advanced to its time and an installed invariant checker runs its
    /// dispatch-boundary checkpoint, in that order.
    #[inline]
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let entry = match self.heap.first() {
            Some(&entry) if entry.at < self.horizon => entry,
            _ => self.advance_horizon()?,
        };
        if entry.at > deadline {
            return None;
        }
        debug_assert!(entry.at >= self.now, "time must be monotone");
        let event = if entry.slot & LANE_TAG == 0 {
            self.remove_at(0);
            self.free_slot(entry.slot)
                .expect("pending slot holds payload")
        } else {
            self.pop_lane(entry.slot)
        };
        self.now = entry.at;
        self.popped_total += 1;
        if instruments::any() {
            stamp(entry.at);
        }
        Some((entry.at, event))
    }

    /// Takes the head of the lane whose entry (`slot`, tag included) is
    /// at the heap's root; the lane's next event, if any, is re-keyed
    /// into the root in place. Out of line so that `pop_until` stays as
    /// small as it was for a queue with no lanes: inlined, `enginebench`'s
    /// four heap-only samples read 2–10 % slower.
    #[inline(never)]
    fn pop_lane(&mut self, slot: u32) -> E {
        let pending = &mut self.lanes[(slot & !LANE_TAG) as usize];
        let (_, _, event) = pending
            .pop_front()
            .expect("a lane in the heap is not empty");
        match pending.front() {
            Some(&(at, seq, _)) => {
                self.parked -= 1;
                self.sift_down(0, Entry { at, seq, slot });
            }
            None => {
                self.remove_at(0);
            }
        }
        event
    }

    /// The timestamp of the next pending event without removing it. O(1)
    /// while the heap's root is earlier than the horizon; otherwise a
    /// scan of the far store.
    #[must_use]
    pub fn next_time(&self) -> Option<SimTime> {
        let top = self.heap.first().map(|entry| entry.at);
        match top {
            Some(at) if at < self.horizon => Some(at),
            _ => self.far.iter().map(|entry| entry.at).chain(top).min(),
        }
    }

    /// Discards all pending events without changing the clock or the
    /// lifetime counters.
    ///
    /// Reset semantics: pending events are counted in
    /// [`EventQueue::discarded_total`] (they were neither popped nor
    /// cancelled), and every slab slot is released with a generation
    /// bump — so a token issued before `clear()` can never cancel an
    /// event scheduled after it. The accounting identity
    /// `scheduled == popped + cancelled + discarded + len` keeps holding
    /// across arbitrary clear/reuse cycles.
    pub fn clear(&mut self) {
        self.discarded_total += self.len() as u64;
        self.heap.clear();
        self.far.clear();
        for pending in &mut self.lanes {
            pending.clear();
        }
        self.parked = 0;
        // Rebuild the free list, invalidating every outstanding token.
        self.free_head = NIL;
        for idx in (0..self.slots.len()).rev() {
            let slot = &mut self.slots[idx];
            if slot.event.take().is_some() {
                slot.gen = slot.gen.wrapping_add(1);
            }
            slot.link = self.free_head;
            self.free_head = u32::try_from(idx).expect("slab exceeds u32 slots");
        }
    }

    /// Panics unless the structure is consistent: every child sorts
    /// after its parent, the heap and the far store together hold
    /// exactly the pending slots, the heap also one entry per non-empty
    /// lane carrying that lane's front key (no cancelled entry lingers),
    /// every slot entry's slot points back at it, every far entry is due
    /// at or past the horizon and no earlier than `far_floor`, each
    /// lane's keys strictly ascend from `now`, `parked` counts the lane
    /// events behind a head, and the free list holds every other slot.
    /// For tests and debug builds; O(slots + pending).
    #[cfg(any(test, debug_assertions))]
    pub fn check_invariants(&self) {
        for (i, entry) in self.far.iter().enumerate() {
            assert!(
                entry.at >= self.horizon,
                "far entry {i} is inside the horizon"
            );
            assert!(
                entry.at >= self.far_floor,
                "far entry {i} is below the floor"
            );
            assert!(entry.at >= self.now, "far entry {i} is in the past");
            let slot = &self.slots[entry.slot as usize];
            assert!(slot.event.is_some(), "far entry {i} names a free slot");
            assert_eq!(slot.link, FAR_TAG | i as u32, "far back-pointer is stale");
        }
        let mut has_entry = vec![false; self.lanes.len()];
        for (i, entry) in self.heap.iter().enumerate() {
            if i > 0 {
                let parent = &self.heap[(i - 1) / ARITY];
                assert!(parent.key() < entry.key(), "heap order broken at {i}");
            }
            if entry.slot & LANE_TAG != 0 {
                let lane = (entry.slot & !LANE_TAG) as usize;
                let front = self.lanes[lane].front().map(|&(at, seq, _)| (at, seq));
                assert_eq!(front, Some(entry.key()), "entry {i} is not its lane's head");
                assert!(!has_entry[lane], "lane {lane} has two heap entries");
                has_entry[lane] = true;
                continue;
            }
            let slot = &self.slots[entry.slot as usize];
            assert!(slot.event.is_some(), "entry {i} names a free slot");
            assert_eq!(slot.link as usize, i, "slot back-pointer is stale");
        }
        let mut parked = 0;
        for (lane, pending) in self.lanes.iter().enumerate() {
            assert_eq!(has_entry[lane], !pending.is_empty(), "lane {lane} head");
            let mut last = None;
            for &(at, seq, _) in pending {
                assert!(at >= self.now, "a lane event is in the past");
                assert!(last < Some((at, seq)), "lane keys must strictly ascend");
                last = Some((at, seq));
            }
            parked += pending.len().saturating_sub(1);
        }
        assert_eq!(parked, self.parked, "parked count drifted");
        let pending = self.slots.iter().filter(|s| s.event.is_some()).count();
        let lane_heads = has_entry.iter().filter(|&&h| h).count();
        assert_eq!(
            pending + lane_heads,
            self.heap.len() + self.far.len(),
            "a pending slot has no entry"
        );
        let lane_events: usize = self.lanes.iter().map(VecDeque::len).sum();
        assert_eq!(pending + lane_events, self.len(), "len miscounts");
        let mut free = 0;
        let mut idx = self.free_head;
        while idx != NIL {
            assert!(self.slots[idx as usize].event.is_none());
            free += 1;
            assert!(free <= self.slots.len(), "free list cycles");
            idx = self.slots[idx as usize].link;
        }
        assert_eq!(free + pending, self.slots.len(), "a slot leaked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(30), 3);
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_for_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(7);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(5));
    }

    #[test]
    fn pop_until_honours_the_deadline_and_stamps_instruments() {
        use crate::instruments::Instruments;
        use crate::journal::{JournalRecorder, MarkKind};
        use crate::trace::TraceRecorder;

        Instruments {
            trace: Some(TraceRecorder::new(16)),
            journal: Some(JournalRecorder::new()),
            ..Instruments::default()
        }
        .install();
        let mut q = EventQueue::new();
        for us in [9, 1, 5, 3] {
            q.schedule_at(SimTime::from_micros(us), us);
        }
        let deadline = SimTime::from_micros(5);
        let mut seen = Vec::new();
        while let Some((at, e)) = q.pop_until(deadline) {
            assert!(at <= deadline);
            // A producer with no `now` in scope stamps with the queue's.
            journal::with(|j| j.mark(MarkKind::Eviction, e));
            seen.push(e);
        }
        assert_eq!(seen, [1, 3, 5]);
        assert_eq!(q.now(), deadline, "now is the last event delivered");
        assert_eq!(q.next_time(), Some(SimTime::from_micros(9)));
        assert_eq!(q.popped_total(), 3);

        let installed = Instruments::take();
        let traced = installed.trace.expect("installed above");
        assert_eq!(traced.clock(), deadline);
        let journal = installed.journal.expect("installed above");
        let times: Vec<SimTime> = journal.marks().iter().map(|m| m.time).collect();
        assert_eq!(times, [1, 3, 5].map(SimTime::from_micros));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(10), "late");
        q.pop();
        q.schedule_at(SimTime::from_micros(1), "clamped");
        let (t, e) = q.pop().expect("event");
        assert_eq!(e, "clamped");
        assert_eq!(t, SimTime::from_micros(10));
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_nanos(1), "a");
        q.schedule_at(SimTime::from_nanos(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_nanos(1), "a");
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        // Cancelling now must not poison a future event that reuses state.
        assert!(!q.cancel(a), "cancelling a fired event reports false");
        q.schedule_at(SimTime::from_nanos(2), "b");
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
    }

    #[test]
    fn stale_token_cannot_cancel_recycled_slot() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_nanos(1), "a");
        q.pop();
        // "b" reuses the slab slot "a" occupied; the old token's
        // generation no longer matches.
        q.schedule_at(SimTime::from_nanos(2), "b");
        assert!(!q.cancel(a));
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(100), "first");
        q.pop();
        q.schedule_in(SimDuration::from_micros(50), "second");
        let (t, _) = q.pop().expect("event");
        assert_eq!(t, SimTime::from_micros(150));
    }

    #[test]
    fn next_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_nanos(1), "a");
        q.schedule_at(SimTime::from_nanos(5), "b");
        q.cancel(a);
        assert_eq!(q.next_time(), Some(SimTime::from_nanos(5)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn next_time_is_nonmutating_and_exact() {
        let mut q = EventQueue::new();
        let mut toks = Vec::new();
        for i in 0..10u64 {
            toks.push(q.schedule_at(SimTime::from_nanos(i), i));
        }
        // Cancel a prefix, the root included: each removal re-roots the
        // heap, so the immutable peek sees the first live event.
        for t in &toks[..4] {
            q.cancel(*t);
        }
        q.check_invariants();
        let q = &q; // immutable from here on
        assert_eq!(q.next_time(), Some(SimTime::from_nanos(4)));
        assert_eq!(q.len(), 6);
        assert!(!q.is_empty());
    }

    #[test]
    fn cancelling_everything_empties_the_queue() {
        let mut q = EventQueue::new();
        let toks: Vec<_> = (0..32u64)
            .map(|i| q.schedule_at(SimTime::from_nanos(i), i))
            .collect();
        for t in toks {
            assert!(q.cancel(t));
            q.check_invariants();
        }
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.next_time(), None);
        assert!(q.pop().is_none());
        assert_eq!(q.cancelled_total(), 32);
    }

    #[test]
    fn counters_track_activity() {
        let mut q = EventQueue::new();
        q.schedule_now(1);
        q.schedule_now(2);
        q.pop();
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.popped_total(), 1);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn clear_reset_semantics_stay_consistent() {
        // Regression test: `clear()` must leave the accounting identity
        // `scheduled == popped + cancelled + discarded + len` intact and
        // the heap/slab state reusable.
        let identity = |q: &EventQueue<u64>| {
            assert_eq!(
                q.scheduled_total(),
                q.popped_total() + q.cancelled_total() + q.discarded_total() + q.len() as u64
            );
        };
        let mut q = EventQueue::new();
        let mut toks = Vec::new();
        for i in 0..10u64 {
            toks.push(q.schedule_at(SimTime::from_nanos(i), i));
        }
        q.pop();
        q.cancel(toks[5]);
        identity(&q);
        let pre_clear_token = toks[7];
        q.clear();
        identity(&q);
        q.check_invariants();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 10);
        assert_eq!(q.popped_total(), 1);
        assert_eq!(q.cancelled_total(), 1);
        assert_eq!(q.discarded_total(), 8);

        // Reuse after clear: fresh events schedule, cancel, and pop
        // normally; stale tokens from before the clear are inert.
        let b = q.schedule_at(SimTime::from_micros(1), 100);
        assert!(!q.cancel(pre_clear_token), "stale token must not cancel");
        assert_eq!(q.len(), 1);
        assert!(q.cancel(b));
        assert!(q.pop().is_none());
        identity(&q);
        q.schedule_at(SimTime::from_micros(2), 101);
        assert_eq!(q.pop().map(|(_, e)| e), Some(101));
        identity(&q);
        // The clock survived the clear (clear is not a time reset).
        assert_eq!(q.now(), SimTime::from_micros(2));
    }

    #[test]
    fn cancel_below_top_then_clear_leaves_no_residue() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_nanos(5), 1);
        q.schedule_at(SimTime::from_nanos(1), 2);
        q.cancel(a); // removed from below the live top, slot freed at once
        assert_eq!(q.len(), 1);
        q.check_invariants();
        q.clear();
        assert_eq!(q.len(), 0);
        // Nothing cancelled or discarded before the clear resurfaces.
        for i in 0..4u64 {
            q.schedule_at(SimTime::from_nanos(10 + i), i);
        }
        assert_eq!(q.len(), 4);
        q.check_invariants();
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    /// Runs `ops` — `(lane or None, nanos)` — through a queue that
    /// honours the lanes and one that puts everything on the heap,
    /// asserts they agree at every step and returns the pop stream.
    fn lanes_vs_heap(ops: &[(Option<usize>, u64)]) -> Vec<(SimTime, usize)> {
        let mut with = EventQueue::new();
        let mut without = EventQueue::new();
        let lanes = [with.lane(), with.lane()];
        for (i, &(lane, nanos)) in ops.iter().enumerate() {
            let at = SimTime::from_nanos(nanos);
            match lane {
                Some(l) => with.schedule_on(lanes[l], at, i),
                None => drop(with.schedule_at(at, i)),
            }
            without.schedule_at(at, i);
            with.check_invariants();
            assert_eq!(with.len(), without.len());
            assert_eq!(with.next_time(), without.next_time());
        }
        let drain = |q: &mut EventQueue<usize>| {
            std::iter::from_fn(|| {
                q.check_invariants();
                q.pop()
            })
            .collect::<Vec<_>>()
        };
        let order = drain(&mut with);
        assert_eq!(order, drain(&mut without));
        assert_eq!(with.parked(), 0);
        order
    }

    #[test]
    fn lane_events_pop_where_the_heap_would_put_them() {
        // Two wires and a timer: ascending runs, ties within a lane,
        // across lanes and with a one-off event.
        let order = lanes_vs_heap(&[
            (Some(0), 10),
            (Some(1), 10),
            (Some(0), 10),
            (None, 10),
            (Some(0), 30),
            (None, 20),
            (Some(1), 25),
            (Some(0), 30),
        ]);
        let ids: Vec<usize> = order.iter().map(|&(_, e)| e).collect();
        assert_eq!(ids, [0, 1, 2, 3, 5, 6, 4, 7]);
    }

    #[test]
    fn lane_parks_behind_its_head_and_keeps_the_heap_shallow() {
        let mut q = EventQueue::new();
        let lane = q.lane();
        for i in 0..100u64 {
            q.schedule_on(lane, SimTime::from_nanos(i / 2), i);
        }
        assert_eq!((q.len(), q.parked()), (100, 99));
        q.check_invariants();
        for i in 0..100u64 {
            assert_eq!(q.pop(), Some((SimTime::from_nanos(i / 2), i)));
        }
        assert!(q.is_empty());
        assert_eq!((q.scheduled_total(), q.popped_total()), (100, 100));
    }

    #[test]
    fn earlier_than_tail_falls_through_to_the_heap() {
        // A reordered packet: scheduled on the lane, earlier than its
        // newest event. It must not be appended — and still pops first.
        let order = lanes_vs_heap(&[(Some(0), 50), (Some(0), 90), (Some(0), 60), (Some(0), 90)]);
        let ids: Vec<usize> = order.iter().map(|&(_, e)| e).collect();
        assert_eq!(ids, [0, 2, 1, 3]);

        let mut q = EventQueue::new();
        let lane = q.lane();
        q.schedule_on(lane, SimTime::from_nanos(90), "tail");
        q.schedule_on(lane, SimTime::from_nanos(60), "early");
        assert_eq!(q.parked(), 0, "the early event took a slab slot");
        assert_eq!(q.pop().map(|(_, e)| e), Some("early"));
    }

    #[test]
    fn schedule_on_clamps_to_now_and_respects_the_deadline() {
        let mut q = EventQueue::new();
        let lane = q.lane();
        q.schedule_at(SimTime::from_nanos(40), "timer");
        q.pop();
        q.schedule_on(lane, SimTime::from_nanos(7), "late packet");
        q.schedule_on(lane, SimTime::from_nanos(55), "next packet");
        assert_eq!(q.next_time(), Some(SimTime::from_nanos(40)));
        let deadline = SimTime::from_nanos(50);
        assert_eq!(q.pop_until(deadline).map(|(_, e)| e), Some("late packet"));
        assert_eq!(q.pop_until(deadline), None, "the lane's new head is later");
        assert_eq!(q.now(), SimTime::from_nanos(40));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn clear_empties_lanes_and_keeps_them_open() {
        let mut q = EventQueue::new();
        let lane = q.lane();
        for i in 0..5u64 {
            q.schedule_on(lane, SimTime::from_nanos(i), i);
        }
        q.schedule_at(SimTime::from_nanos(2), 99);
        q.pop();
        q.clear();
        q.check_invariants();
        assert_eq!((q.len(), q.parked()), (0, 0));
        assert_eq!(q.discarded_total(), 5);
        q.schedule_on(lane, SimTime::from_nanos(9), 7);
        q.check_invariants();
        assert_eq!(q.pop(), Some((SimTime::from_nanos(9), 7)));
        assert_eq!(
            q.scheduled_total(),
            q.popped_total() + q.cancelled_total() + q.discarded_total()
        );
    }

    /// A connection's RTO as TCP arms it: every packet re-arms a 200 ms
    /// timer and cancels the previous one, so none ever fires. Fails on a
    /// queue that puts the timers in the heap (its depth grows to two).
    #[test]
    fn rearmed_timers_leave_the_heap_depth_unchanged() {
        let mut q = EventQueue::new();
        let rto = SimDuration::from_millis(200);
        q.schedule_at(SimTime::from_micros(10), "packet");
        let depth = q.heap.len();
        let mut armed = q.schedule_timer(q.now() + rto, "rto");
        for _ in 0..10_000 {
            let (now, e) = q.pop().expect("the packet chain never ends");
            assert_eq!(e, "packet", "no timer fires");
            q.schedule_at(now + SimDuration::from_micros(10), "packet");
            let rearmed = q.schedule_timer(now + rto, "rto");
            assert!(q.cancel(std::mem::replace(&mut armed, rearmed)));
            assert_eq!(q.heap.len(), depth);
            assert_eq!((q.len(), q.far.len()), (2, 1));
        }
        q.check_invariants();
        assert_eq!(q.now(), SimTime::from_millis(100));
        assert_eq!(q.cancelled_total(), 10_000);
    }

    /// Fails on a queue that pops the heap's root without first moving
    /// the horizon: the timer, due before the second event, would pop
    /// after it.
    #[test]
    fn a_far_timer_pops_before_later_heap_events() {
        let mut q = EventQueue::new();
        q.schedule_timer(SimTime::from_millis(5), "timer");
        q.schedule_at(SimTime::from_millis(9), "late");
        q.schedule_at(SimTime::from_nanos(1), "early");
        assert_eq!((q.far.len(), q.len()), (1, 3));
        assert_eq!(q.next_time(), Some(SimTime::from_nanos(1)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("early"));
        // The root (9 ms) is past the horizon (1 ms + 1 ns): the horizon
        // moves to 5 ms + 1 ms and admits the timer first.
        assert_eq!(q.next_time(), Some(SimTime::from_millis(5)));
        assert_eq!(q.pop_until(SimTime::from_millis(4)), None);
        q.check_invariants();
        assert_eq!(q.pop().map(|(_, e)| e), Some("timer"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("late"));
        assert!(q.is_empty());
    }

    /// Fails on a queue whose `is_empty` looks at the heap alone: a bed
    /// that keeps a heartbeat only while work is pending would stop it
    /// with a retransmission timer still armed.
    #[test]
    fn a_lone_far_timer_is_pending_work() {
        let mut q = EventQueue::new();
        let t = q.schedule_timer(SimTime::from_millis(200), 1);
        assert!(!q.is_empty());
        assert_eq!((q.len(), q.heap.len()), (1, 0));
        assert_eq!(q.next_time(), Some(SimTime::from_millis(200)));
        assert!(q.cancel(t));
        assert!(!q.cancel(t), "a cancelled far token is stale");
        assert!(q.is_empty());
        q.schedule_timer(SimTime::from_millis(300), 2);
        assert_eq!(q.pop(), Some((SimTime::from_millis(300), 2)));
        q.check_invariants();
    }

    #[test]
    fn determinism_with_interleaved_cancels() {
        // In-place removal must preserve bit-for-bit FIFO-tie order
        // against the reference behaviour: same (time, seq) order, with
        // cancelled events elided.
        let run = || {
            let mut q = EventQueue::new();
            let mut out = Vec::new();
            let mut toks = Vec::new();
            for i in 0..200u64 {
                toks.push(q.schedule_at(SimTime::from_nanos(i % 17), i));
            }
            for (i, t) in toks.iter().enumerate() {
                if i % 3 == 0 {
                    q.cancel(*t);
                }
            }
            q.check_invariants();
            while let Some((t, e)) = q.pop() {
                out.push((t, e));
                if e % 7 == 0 {
                    q.schedule_in(SimDuration::from_nanos(e % 5), 1000 + e);
                }
            }
            out
        };
        assert_eq!(run(), run());
    }
}
