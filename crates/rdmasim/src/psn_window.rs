//! A dense window of per-PSN state, indexed by `psn - base`.
//!
//! RC recovery state is keyed by packet sequence number, and PSNs are
//! dense: a requester assigns them consecutively and retires them from
//! the oldest end, a responder only ever holds packets a bounded
//! distance ahead of the one it expects. A NIC therefore keeps this
//! state in a fixed table indexed by the PSN's offset from the window
//! base (IRN's BDP-sized bitmaps), not in a search structure.
//! [`PsnWindow`] is that table: an ordered map from PSN to `T` whose
//! lookups, inserts and removes are an index computation, and whose
//! iteration is ascending by construction.
//!
//! The window spans from its lowest to its highest live PSN, so memory
//! is proportional to that span, not to the number of live entries.
//! Callers keep the span bounded (`window_packets`, `bdp_packets`,
//! `SACK_WINDOW` in [`crate::rc`]); holes inside it — PSNs reserved for
//! RDMA read responses, packets not yet parked — cost one empty slot
//! each.

use std::collections::VecDeque;
use std::ops::{Bound, RangeBounds};

/// An ordered map from PSN to `T` backed by a ring of slots.
///
/// Behaves like a `BTreeMap<u64, T>` for every operation it offers
/// (`tests/psn_window_model.rs` checks that differentially).
#[derive(Debug)]
pub struct PsnWindow<T> {
    /// PSN of `slots[0]`. Meaningless while `slots` is empty: the next
    /// insert re-bases the window at its own PSN.
    base: u64,
    /// Invariant: the first and the last slot are live, so an empty
    /// window holds no slots and the first live PSN is `base`.
    slots: VecDeque<Option<T>>,
    live: usize,
}

impl<T> Default for PsnWindow<T> {
    fn default() -> Self {
        PsnWindow {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }
}

impl<T> PsnWindow<T> {
    /// Creates an empty window.
    #[must_use]
    pub fn new() -> Self {
        PsnWindow::default()
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no entry is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slot index of `psn`, if it lies inside the current span.
    fn index_of(&self, psn: u64) -> Option<usize> {
        let idx = usize::try_from(psn.checked_sub(self.base)?).ok()?;
        (idx < self.slots.len()).then_some(idx)
    }

    /// Stores `value` at `psn`, returning the entry it replaced. A PSN
    /// outside the current span grows the window toward it — upward
    /// for new packets, downward when a retransmit queued before its
    /// packet was acked is sent after the window moved past it.
    pub fn insert(&mut self, psn: u64, value: T) -> Option<T> {
        if self.slots.is_empty() {
            self.base = psn;
        }
        // Every new packet lands one past the span: append it.
        if psn.wrapping_sub(self.base) == self.slots.len() as u64 {
            self.slots.push_back(Some(value));
            self.live += 1;
            return None;
        }
        if psn < self.base {
            for _ in 0..self.base - psn {
                self.slots.push_front(None);
            }
            self.base = psn;
        }
        let idx = usize::try_from(psn - self.base).expect("PSN span fits the address space");
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let old = self.slots[idx].replace(value);
        self.live += usize::from(old.is_none());
        old
    }

    /// The entry at `psn`.
    #[must_use]
    pub fn get(&self, psn: u64) -> Option<&T> {
        self.slots[self.index_of(psn)?].as_ref()
    }

    /// Mutable access to the entry at `psn`.
    pub fn get_mut(&mut self, psn: u64) -> Option<&mut T> {
        let idx = self.index_of(psn)?;
        self.slots[idx].as_mut()
    }

    /// Removes and returns the entry at `psn`.
    pub fn remove(&mut self, psn: u64) -> Option<T> {
        let idx = self.index_of(psn)?;
        let value = self.slots[idx].take()?;
        self.live -= 1;
        self.trim();
        Some(value)
    }

    /// Restores the live-ends invariant after a removal. Every slot is
    /// popped at most once, so this is O(1) amortised.
    fn trim(&mut self) {
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        while let Some(None) = self.slots.back() {
            self.slots.pop_back();
        }
    }

    /// The lowest live PSN.
    #[must_use]
    pub fn first_key(&self) -> Option<u64> {
        (!self.slots.is_empty()).then_some(self.base)
    }

    /// Removes and returns the entry with the lowest PSN.
    pub fn pop_first(&mut self) -> Option<(u64, T)> {
        let value = self.slots.pop_front()?.expect("the first slot is live");
        let psn = self.base;
        self.base += 1;
        self.live -= 1;
        self.trim();
        Some((psn, value))
    }

    /// Slot indices `[lo, hi)` of the PSNs in `range`, clamped to the
    /// span (an inverted range is empty, where `BTreeMap` would panic).
    fn clamp(&self, range: impl RangeBounds<u64>) -> (usize, usize) {
        let span = self.slots.len();
        // A PSN's offset from `base`, saturating at both ends of the span.
        let offset =
            |psn: u64| usize::try_from(psn.saturating_sub(self.base)).map_or(span, |o| o.min(span));
        let start = match range.start_bound() {
            Bound::Included(&p) => Some(p),
            Bound::Excluded(&p) => p.checked_add(1),
            Bound::Unbounded => Some(0),
        };
        let Some(start) = start else {
            return (0, 0);
        };
        // `None`: no PSN is past the end.
        let end = match range.end_bound() {
            Bound::Included(&p) => p.checked_add(1),
            Bound::Excluded(&p) => Some(p),
            Bound::Unbounded => None,
        };
        let lo = offset(start);
        (lo, end.map_or(span, offset).max(lo))
    }

    /// Live entries whose PSN lies in `range`, ascending.
    pub fn range(&self, range: impl RangeBounds<u64>) -> impl Iterator<Item = (u64, &T)> + '_ {
        let (lo, hi) = self.clamp(range);
        let first = self.base + lo as u64;
        self.slots
            .range(lo..hi)
            .enumerate()
            .filter_map(move |(i, slot)| slot.as_ref().map(|v| (first + i as u64, v)))
    }

    /// Mutable variant of [`PsnWindow::range`].
    pub fn range_mut(
        &mut self,
        range: impl RangeBounds<u64>,
    ) -> impl Iterator<Item = (u64, &mut T)> + '_ {
        let (lo, hi) = self.clamp(range);
        let first = self.base + lo as u64;
        self.slots
            .range_mut(lo..hi)
            .enumerate()
            .filter_map(move |(i, slot)| slot.as_mut().map(|v| (first + i as u64, v)))
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.live = 0;
    }

    /// Empties the window, yielding its entries ascending by PSN.
    pub fn drain(&mut self) -> impl Iterator<Item = (u64, T)> {
        let base = self.base;
        self.live = 0;
        std::mem::take(&mut self.slots)
            .into_iter()
            .enumerate()
            .filter_map(move |(i, slot)| slot.map(|v| (base + i as u64, v)))
    }
}
