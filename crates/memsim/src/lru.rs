//! LRU tracking of resident pages for reclaim.
//!
//! The tracker orders resident, *unpinned* pages by last access. Reclaim
//! pops the globally oldest page, or — when a cgroup is over its limit —
//! the oldest page belonging to one address space.
//!
//! A host that never reclaims never reads that order, so the tracker
//! keeps none until somebody asks. It starts *stamped*: a touch writes
//! the recency tick into a dense [`PageMap`] per space and a remove
//! clears it — one line each, no list. The first call that needs an
//! order (`pop_oldest*`, `oldest_tick*`) sorts the stamps by tick and
//! threads them, once, onto a slab of nodes on two intrusive
//! doubly-linked lists (one global, one per space) indexed by a dense
//! [`PageMap`] per space; the stamps are dropped and the tracker stays
//! *listed* for good, where touch, remove and evict are all O(1) with no
//! tree rebalancing and no hashing. Ticks are unique and increasing in
//! both states, so sorted-stamp order, list order and tick order are one
//! order: the head of each list answers the `oldest_tick` queries the
//! unified-LRU arbitration against the page cache relies on, and
//! eviction order is exactly what an always-on list (or the `BTreeMap`
//! before it) produces.

use crate::dense::PageMap;
use crate::types::{SpaceId, Vpn};

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    space: SpaceId,
    vpn: Vpn,
    tick: u64,
    /// Global list links (head = oldest).
    prev: u32,
    next: u32,
    /// Per-space list links (head = oldest).
    sprev: u32,
    snext: u32,
}

#[derive(Debug)]
struct SpaceList {
    head: u32,
    tail: u32,
    len: usize,
    /// vpn → node slot for this space.
    index: PageMap<u32>,
}

impl SpaceList {
    fn new() -> Self {
        SpaceList {
            head: NIL,
            tail: NIL,
            len: 0,
            index: PageMap::new(),
        }
    }
}

/// The listed state: every tracked page is a node on the global list
/// and on its space's list, both in tick order.
#[derive(Debug)]
struct Lists {
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    /// Indexed by `SpaceId.0`; ids are assigned densely by the manager.
    spaces: Vec<SpaceList>,
}

impl Lists {
    fn with_capacity(pages: usize) -> Self {
        Lists {
            nodes: Vec::with_capacity(pages),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            spaces: Vec::new(),
        }
    }

    fn slot_of(&self, space: SpaceId, vpn: Vpn) -> Option<u32> {
        self.spaces.get(space.0 as usize)?.index.get(vpn).copied()
    }

    /// Takes `slot` out of both lists; the node and its index entry stay.
    fn detach(&mut self, slot: u32) {
        let Node {
            space,
            prev,
            next,
            sprev,
            snext,
            ..
        } = self.nodes[slot as usize];
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        if sprev != NIL {
            self.nodes[sprev as usize].snext = snext;
        } else {
            self.spaces[space.0 as usize].head = snext;
        }
        if snext != NIL {
            self.nodes[snext as usize].sprev = sprev;
        } else {
            self.spaces[space.0 as usize].tail = sprev;
        }
    }

    /// Appends a detached `slot` at both tails (most recently used).
    fn attach_newest(&mut self, slot: u32) {
        let sid = self.nodes[slot as usize].space.0 as usize;
        let old_tail = std::mem::replace(&mut self.tail, slot);
        let old_stail = std::mem::replace(&mut self.spaces[sid].tail, slot);
        let n = &mut self.nodes[slot as usize];
        (n.prev, n.next) = (old_tail, NIL);
        (n.sprev, n.snext) = (old_stail, NIL);
        match old_tail {
            NIL => self.head = slot,
            t => self.nodes[t as usize].next = slot,
        }
        match old_stail {
            NIL => self.spaces[sid].head = slot,
            t => self.nodes[t as usize].snext = slot,
        }
    }

    /// Tracks a new page as most recently used.
    fn insert_newest(&mut self, space: SpaceId, vpn: Vpn, tick: u64) {
        let node = Node {
            space,
            vpn,
            tick,
            prev: NIL,
            next: NIL,
            sprev: NIL,
            snext: NIL,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.nodes[s as usize] = node;
                s
            }
            None => {
                self.nodes.push(node);
                u32::try_from(self.nodes.len() - 1).expect("LRU slab fits in u32")
            }
        };
        let sid = space.0 as usize;
        if self.spaces.len() <= sid {
            self.spaces.resize_with(sid + 1, SpaceList::new);
        }
        let sp = &mut self.spaces[sid];
        sp.len += 1;
        sp.index.insert(vpn, slot);
        self.attach_newest(slot);
    }

    /// Untracks `slot` and recycles it, returning the page it held.
    fn release(&mut self, slot: u32) -> (SpaceId, Vpn) {
        self.detach(slot);
        let Node { space, vpn, .. } = self.nodes[slot as usize];
        let sp = &mut self.spaces[space.0 as usize];
        sp.len -= 1;
        sp.index.remove(vpn);
        self.free.push(slot);
        (space, vpn)
    }

    fn head_in(&self, space: SpaceId) -> Option<u32> {
        let head = self.spaces.get(space.0 as usize)?.head;
        (head != NIL).then_some(head)
    }
}

#[derive(Debug)]
enum Order {
    /// Nobody has asked for an order yet: vpn → tick of the last touch,
    /// one map per space (indexed by `SpaceId.0`).
    Stamped(Vec<PageMap<u64>>),
    /// Somebody has; there is no way back.
    Listed(Lists),
}

/// Least-recently-used ordering over `(space, page)` entries.
///
/// `touch` promotes a page to most-recently-used; `pop_oldest` evicts.
/// All operations are `O(1)`, except the first one that asks for an
/// order, which sorts what is tracked at that moment.
#[derive(Debug)]
pub struct LruTracker {
    /// The newest tick ever stored.
    tick: u64,
    len: usize,
    order: Order,
}

impl Default for LruTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl LruTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        LruTracker {
            tick: 0,
            len: 0,
            order: Order::Stamped(Vec::new()),
        }
    }

    /// Number of tracked pages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of tracked pages belonging to `space`.
    #[must_use]
    pub fn len_in(&self, space: SpaceId) -> usize {
        let sid = space.0 as usize;
        match &self.order {
            Order::Stamped(stamps) => stamps.get(sid).map_or(0, PageMap::len),
            Order::Listed(lists) => lists.spaces.get(sid).map_or(0, |s| s.len),
        }
    }

    /// Inserts a page as most-recently-used, or promotes it if present.
    pub fn touch(&mut self, space: SpaceId, vpn: Vpn) {
        let t = self.tick + 1;
        self.touch_tick(space, vpn, t);
    }

    /// Like [`LruTracker::touch`] with a caller-supplied recency tick —
    /// lets several trackers share one clock so their relative ages are
    /// comparable (the unified LRU of mapped memory and page cache).
    ///
    /// # Panics
    ///
    /// Panics if `tick` is not newer than every tick this tracker has
    /// stored; the page holding the newest may be re-touched with it.
    pub fn touch_tick(&mut self, space: SpaceId, vpn: Vpn, tick: u64) {
        let prev = match &mut self.order {
            Order::Stamped(stamps) => {
                let sid = space.0 as usize;
                if stamps.len() <= sid {
                    stamps.resize_with(sid + 1, PageMap::new);
                }
                stamps[sid].insert(vpn, tick)
            }
            Order::Listed(lists) => match lists.slot_of(space, vpn) {
                Some(slot) => {
                    let prev = std::mem::replace(&mut lists.nodes[slot as usize].tick, tick);
                    if lists.tail != slot {
                        lists.detach(slot);
                        lists.attach_newest(slot);
                    }
                    Some(prev)
                }
                None => {
                    lists.insert_newest(space, vpn, tick);
                    None
                }
            },
        };
        assert!(
            tick > self.tick || (tick == self.tick && prev == Some(tick)),
            "recency ticks must increase"
        );
        self.tick = tick;
        self.len += usize::from(prev.is_none());
    }

    /// Leaves the stamped state, if still in it: threads the stamps onto
    /// the lists in tick order and drops them.
    fn lists(&mut self) -> &mut Lists {
        if let Order::Stamped(stamps) = &mut self.order {
            let stamps = std::mem::take(stamps);
            let mut by_tick: Vec<(u64, u32, Vpn)> = Vec::with_capacity(self.len);
            for (sid, map) in (0u32..).zip(&stamps) {
                by_tick.extend(map.iter().map(|(vpn, &tick)| (tick, sid, vpn)));
            }
            drop(stamps);
            // Ticks are unique, so this is the order an always-on list
            // would be in.
            by_tick.sort_unstable();
            let mut lists = Lists::with_capacity(by_tick.len());
            for (tick, sid, vpn) in by_tick {
                lists.insert_newest(SpaceId(sid), vpn, tick);
            }
            self.order = Order::Listed(lists);
        }
        match &mut self.order {
            Order::Listed(lists) => lists,
            Order::Stamped(_) => unreachable!("just listed"),
        }
    }

    /// The recency tick of the oldest tracked page, if any.
    pub fn oldest_tick(&mut self) -> Option<u64> {
        let lists = self.lists();
        (lists.head != NIL).then(|| lists.nodes[lists.head as usize].tick)
    }

    /// Removes a page from tracking (it was evicted, pinned, or unmapped).
    /// Returns `true` when the page was tracked.
    pub fn remove(&mut self, space: SpaceId, vpn: Vpn) -> bool {
        let tracked = match &mut self.order {
            Order::Stamped(stamps) => stamps
                .get_mut(space.0 as usize)
                .is_some_and(|s| s.remove(vpn).is_some()),
            Order::Listed(lists) => match lists.slot_of(space, vpn) {
                Some(slot) => {
                    lists.release(slot);
                    true
                }
                None => false,
            },
        };
        self.len -= usize::from(tracked);
        tracked
    }

    /// `true` when the page is tracked.
    #[must_use]
    pub fn contains(&self, space: SpaceId, vpn: Vpn) -> bool {
        let sid = space.0 as usize;
        match &self.order {
            Order::Stamped(stamps) => stamps.get(sid).is_some_and(|s| s.contains(vpn)),
            Order::Listed(lists) => lists.spaces.get(sid).is_some_and(|s| s.index.contains(vpn)),
        }
    }

    /// The recency tick of a tracked page, read without promoting it.
    #[must_use]
    pub(crate) fn tick_of(&self, space: SpaceId, vpn: Vpn) -> Option<u64> {
        let sid = space.0 as usize;
        match &self.order {
            Order::Stamped(stamps) => stamps.get(sid)?.get(vpn).copied(),
            Order::Listed(lists) => Some(lists.nodes[lists.slot_of(space, vpn)? as usize].tick),
        }
    }

    /// Removes and returns the least-recently-used page across all spaces.
    pub fn pop_oldest(&mut self) -> Option<(SpaceId, Vpn)> {
        let lists = self.lists();
        if lists.head == NIL {
            return None;
        }
        let page = lists.release(lists.head);
        self.len -= 1;
        Some(page)
    }

    /// The recency tick of the oldest page of one space, if any.
    pub fn oldest_tick_in(&mut self, space: SpaceId) -> Option<u64> {
        let lists = self.lists();
        lists.head_in(space).map(|h| lists.nodes[h as usize].tick)
    }

    /// Removes and returns the least-recently-used page of one space.
    pub fn pop_oldest_in(&mut self, space: SpaceId) -> Option<Vpn> {
        let lists = self.lists();
        let (_, vpn) = lists.release(lists.head_in(space)?);
        self.len -= 1;
        Some(vpn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S0: SpaceId = SpaceId(0);
    const S1: SpaceId = SpaceId(1);

    #[test]
    fn evicts_in_access_order() {
        let mut lru = LruTracker::new();
        lru.touch(S0, Vpn(1));
        lru.touch(S0, Vpn(2));
        lru.touch(S0, Vpn(3));
        assert_eq!(lru.pop_oldest(), Some((S0, Vpn(1))));
        assert_eq!(lru.pop_oldest(), Some((S0, Vpn(2))));
        assert_eq!(lru.pop_oldest(), Some((S0, Vpn(3))));
        assert_eq!(lru.pop_oldest(), None);
    }

    #[test]
    fn tick_of_reads_without_promoting_in_both_states() {
        let mut lru = LruTracker::new();
        lru.touch_tick(S0, Vpn(1), 10);
        lru.touch_tick(S0, Vpn(2), 20);
        assert_eq!(lru.tick_of(S0, Vpn(1)), Some(10));
        assert_eq!(lru.tick_of(S1, Vpn(1)), None);
        assert_eq!(lru.oldest_tick(), Some(10)); // listed from here
        assert_eq!(lru.tick_of(S0, Vpn(2)), Some(20));
        assert_eq!(lru.tick_of(S0, Vpn(3)), None);
        assert_eq!(lru.pop_oldest(), Some((S0, Vpn(1))), "1 was not promoted");
    }

    #[test]
    fn touch_promotes() {
        let mut lru = LruTracker::new();
        lru.touch(S0, Vpn(1));
        lru.touch(S0, Vpn(2));
        lru.touch(S0, Vpn(1)); // promote 1 past 2
        assert_eq!(lru.pop_oldest(), Some((S0, Vpn(2))));
        assert_eq!(lru.pop_oldest(), Some((S0, Vpn(1))));
    }

    #[test]
    fn per_space_eviction() {
        let mut lru = LruTracker::new();
        lru.touch(S0, Vpn(1));
        lru.touch(S1, Vpn(9));
        lru.touch(S0, Vpn(2));
        assert_eq!(lru.len_in(S0), 2);
        assert_eq!(lru.pop_oldest_in(S1), Some(Vpn(9)));
        assert_eq!(lru.pop_oldest_in(S1), None);
        // Global ordering is unaffected for the remaining entries.
        assert_eq!(lru.pop_oldest(), Some((S0, Vpn(1))));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn remove_untracks() {
        let mut lru = LruTracker::new();
        lru.touch(S0, Vpn(1));
        assert!(lru.contains(S0, Vpn(1)));
        assert!(lru.remove(S0, Vpn(1)));
        assert!(!lru.remove(S0, Vpn(1)));
        assert!(lru.is_empty());
    }

    #[test]
    fn oldest_ticks_follow_heads() {
        let mut lru = LruTracker::new();
        lru.touch_tick(S0, Vpn(1), 10);
        lru.touch_tick(S1, Vpn(2), 20);
        lru.touch_tick(S0, Vpn(3), 30);
        assert_eq!(lru.oldest_tick(), Some(10));
        assert_eq!(lru.oldest_tick_in(S1), Some(20));
        lru.touch_tick(S0, Vpn(1), 40); // promote: S0's oldest becomes 3
        assert_eq!(lru.oldest_tick(), Some(20));
        assert_eq!(lru.oldest_tick_in(S0), Some(30));
        assert_eq!(lru.pop_oldest(), Some((S1, Vpn(2))));
        assert_eq!(lru.oldest_tick(), Some(30));
    }

    #[test]
    #[should_panic(expected = "recency ticks must increase")]
    fn stale_tick_panics() {
        let mut lru = LruTracker::new();
        lru.touch_tick(S0, Vpn(1), 10);
        lru.touch_tick(S0, Vpn(2), 10);
    }

    #[test]
    fn retouching_the_newest_entry_with_its_own_tick_is_allowed() {
        // The page that holds the newest tick may be given it again — in
        // both states.
        let mut lru = LruTracker::new();
        lru.touch_tick(S0, Vpn(1), 10);
        lru.touch_tick(S0, Vpn(1), 10);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.oldest_tick(), Some(10));
        lru.touch_tick(S0, Vpn(1), 10);
        assert_eq!(lru.len(), 1);
    }

    #[test]
    #[should_panic(expected = "recency ticks must increase")]
    fn stale_tick_panics_once_listed() {
        let mut lru = LruTracker::new();
        lru.touch_tick(S0, Vpn(1), 10);
        assert_eq!(lru.oldest_tick(), Some(10));
        lru.touch_tick(S0, Vpn(2), 10);
    }

    #[test]
    fn stamps_thread_into_tick_order() {
        // Everything before the first pop runs stamped: a promotion, a
        // removal and a removed page touched again must all come out
        // where an always-on list would have them.
        let mut lru = LruTracker::new();
        for v in [5, 3, 9, 1] {
            lru.touch(S0, Vpn(v));
            lru.touch(S1, Vpn(v));
        }
        lru.touch(S0, Vpn(5)); // promote past everything
        assert!(lru.remove(S1, Vpn(3)));
        assert!(lru.remove(S0, Vpn(9)));
        lru.touch(S0, Vpn(9)); // back, as the newest
        assert!(!lru.contains(S1, Vpn(3)));
        assert_eq!((lru.len(), lru.len_in(S0), lru.len_in(S1)), (7, 4, 3));

        assert_eq!(lru.pop_oldest_in(S0), Some(Vpn(3)));
        let mut order = Vec::new();
        while let Some(page) = lru.pop_oldest() {
            order.push(page);
        }
        assert_eq!(
            order,
            vec![
                (S1, Vpn(5)),
                (S1, Vpn(9)),
                (S0, Vpn(1)),
                (S1, Vpn(1)),
                (S0, Vpn(5)),
                (S0, Vpn(9)),
            ]
        );
        assert_eq!((lru.len(), lru.len_in(S0), lru.len_in(S1)), (0, 0, 0));
    }

    #[test]
    fn listed_retouch_relinks_both_lists() {
        let mut lru = LruTracker::new();
        lru.touch(S0, Vpn(1));
        lru.touch(S1, Vpn(2));
        lru.touch(S0, Vpn(3));
        assert_eq!(lru.oldest_tick(), Some(1)); // listed from here
        lru.touch(S0, Vpn(1)); // head of both lists to both tails
        lru.touch(S0, Vpn(1)); // already the newest: stays put
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.oldest_tick_in(S0), Some(3));
        assert_eq!(lru.pop_oldest(), Some((S1, Vpn(2))));
        assert_eq!(lru.pop_oldest_in(S0), Some(Vpn(3)));
        assert_eq!(lru.pop_oldest_in(S0), Some(Vpn(1)));
        assert!(lru.is_empty());
    }
}
