//! Differential test of [`EventQueue`] against an ordered-map reference.
//!
//! The reference is a `BTreeMap` keyed by the queue's total delivery key
//! `(time, sequence number)`: popping is `pop_first`, cancelling is
//! `remove`. Since a sequence number is never reused, a key that left the
//! map (fired, cancelled, or discarded by `clear`) can never be removed
//! again, which is exactly the stale-token contract. Random operation
//! sequences must produce the same pop stream, the same `cancel` return
//! values and the same observable state after every step.
//!
//! Lanes do not change the reference: `schedule_on` is `schedule_at`
//! without a token, whichever path the queue takes for it. The times it
//! is given are drawn so that ascending runs, equal times, times earlier
//! than the lane's tail (the fall-through to the heap) and times below
//! `now` (the clamp) all occur.
//!
//! Nor does the far store: `schedule_timer` is `schedule_at`. Timers are
//! drawn on an axis three horizons wide, so they land both inside the
//! horizon (straight into the heap) and past it (in the far store), and
//! 200 ms out as TCP's RTO is; `pop_until` deadlines fall on both sides of
//! the horizon; cancels reach far tokens that are live, fired, or stale
//! after `clear`; and since the queue starts with its horizon at zero, the
//! first timers wait outside the heap with nothing else pending, so `len`,
//! `is_empty` and `next_time` are compared with only far entries left.
//!
//! The test fails — each checked by breaking the queue that way — on a
//! queue that (a) appends an earlier-than-tail event to its lane, (b)
//! forgets to re-key the heap's root after a lane pop, (c) leaves lanes
//! populated across `clear()`, (d) pops the heap's root without first
//! advancing the horizon past it, or (e) leaves a far entry out of
//! `is_empty`.

use std::collections::BTreeMap;

use proptest::prelude::*;
use simcore::event::{EventQueue, EventToken, LaneId, TIMER_HORIZON};
use simcore::time::SimTime;

type Key = (SimTime, u64);

/// What `EventQueue` promises, written the obvious way.
#[derive(Default)]
struct Model {
    pending: BTreeMap<Key, u64>,
    now: SimTime,
    next_seq: u64,
    popped: u64,
    cancelled: u64,
    discarded: u64,
}

impl Model {
    fn schedule_at(&mut self, at: SimTime, payload: u64) -> Key {
        let key = (at.max(self.now), self.next_seq);
        self.next_seq += 1;
        self.pending.insert(key, payload);
        key
    }

    fn cancel(&mut self, key: Key) -> bool {
        let live = self.pending.remove(&key).is_some();
        self.cancelled += u64::from(live);
        live
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.pop_until(SimTime::MAX)
    }

    fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, u64)> {
        let (&(next, _), _) = self.pending.first_key_value()?;
        if next > deadline {
            return None;
        }
        let ((at, _), payload) = self.pending.pop_first()?;
        self.now = at;
        self.popped += 1;
        Some((at, payload))
    }

    fn clear(&mut self) {
        self.discarded += self.pending.len() as u64;
        self.pending.clear();
    }
}

fn assert_same_state(q: &EventQueue<u64>, m: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(q.len(), m.pending.len());
    prop_assert_eq!(q.is_empty(), m.pending.is_empty());
    prop_assert_eq!(q.next_time(), m.pending.keys().next().map(|&(at, _)| at));
    prop_assert_eq!(q.now(), m.now);
    prop_assert_eq!(q.scheduled_total(), m.next_seq);
    prop_assert_eq!(q.popped_total(), m.popped);
    prop_assert_eq!(q.cancelled_total(), m.cancelled);
    prop_assert_eq!(q.discarded_total(), m.discarded);
    prop_assert_eq!(
        q.scheduled_total(),
        q.popped_total() + q.cancelled_total() + q.discarded_total() + q.len() as u64
    );
    // The structural check exists in debug builds only.
    #[cfg(debug_assertions)]
    q.check_invariants();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn queue_matches_ordered_map_reference(
        ops in proptest::collection::vec((0u8..30, any::<u64>(), any::<u64>()), 1..400),
    ) {
        // Three horizons wide: inside and past the horizon alike.
        let wide = 3 * TIMER_HORIZON.as_nanos();
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut m = Model::default();
        // Every token ever issued with its reference key, so cancels hit
        // live, fired, already-cancelled and cleared events alike.
        let mut issued: Vec<(EventToken, Key)> = Vec::new();
        // Open lanes, each with the time last scheduled on it.
        let mut lanes: Vec<(LaneId, u64)> = Vec::new();
        for (op, a, b) in ops {
            match op {
                // Near events on a narrow time axis: ties and clamping
                // into the past are common.
                0..=4 => {
                    let at = SimTime::from_nanos(a % 48);
                    issued.push((q.schedule_at(at, b), m.schedule_at(at, b)));
                }
                // A timer far beyond everything else, as TCP's RTO is.
                5..=6 => {
                    let at = SimTime::from_nanos(200_000_000 + a % 4);
                    issued.push((q.schedule_at(at, b), m.schedule_at(at, b)));
                }
                7..=10 if !issued.is_empty() => {
                    let (token, key) = issued[(a % issued.len() as u64) as usize];
                    prop_assert_eq!(q.cancel(token), m.cancel(key));
                }
                11 => {
                    let deadline = SimTime::from_nanos(a % 64);
                    prop_assert_eq!(q.pop_until(deadline), m.pop_until(deadline));
                }
                12 => {
                    let deadline = SimTime::from_nanos(a % wide);
                    prop_assert_eq!(q.pop_until(deadline), m.pop_until(deadline));
                }
                16 if lanes.len() < 4 => lanes.push((q.lane(), 0)),
                17..=25 if !lanes.is_empty() => {
                    let pick = (b % lanes.len() as u64) as usize;
                    let (lane, tail) = &mut lanes[pick];
                    *tail = match op {
                        // A wire: each arrival at or after the one before.
                        17..=21 => *tail + a % 3,
                        // Reordered: a little earlier than the tail.
                        22 => tail.saturating_sub(1 + a % 8),
                        // Anywhere on the narrow axis, the past included.
                        _ => a % 48,
                    };
                    let at = SimTime::from_nanos(*tail);
                    q.schedule_on(*lane, at, b);
                    m.schedule_at(at, b);
                }
                26..=27 => {
                    let at = SimTime::from_nanos(a % wide);
                    issued.push((q.schedule_timer(at, b), m.schedule_at(at, b)));
                }
                28 => {
                    let at = SimTime::from_nanos(200_000_000 + a % 4);
                    issued.push((q.schedule_timer(at, b), m.schedule_at(at, b)));
                }
                // Rare, so that the queue has time to fill between clears.
                15 if a % 8 == 0 => {
                    q.clear();
                    m.clear();
                }
                _ => prop_assert_eq!(q.pop(), m.pop()),
            }
            assert_same_state(&q, &m)?;
        }
        // Drain: the full remaining pop stream agrees too.
        while let Some(expected) = m.pop() {
            prop_assert_eq!(q.pop(), Some(expected));
        }
        prop_assert_eq!(q.pop(), None);
        assert_same_state(&q, &m)?;
    }
}
