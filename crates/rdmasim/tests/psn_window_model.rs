//! Differential test of [`PsnWindow`] against a `BTreeMap<u64, _>`.
//!
//! `rc.rs` replaced its PSN-keyed trees with the window on the promise
//! that nothing observable changes: same membership, same replaced and
//! removed values, same ascending iteration. Random operation sequences
//! — inserts at, above and below the window base, removes of live,
//! absent and hole PSNs, front pops, range scans, clears and drains —
//! must leave both structures in the same observable state after every
//! step. PSNs move along a drifting cursor, as a requester's do, so the
//! window re-bases after emptying and grows downward after the front
//! advanced past a PSN that is then inserted again.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rdmasim::PsnWindow;

fn assert_same_state(
    w: &PsnWindow<u64>,
    m: &BTreeMap<u64, u64>,
    probe: u64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(w.len(), m.len());
    prop_assert_eq!(w.is_empty(), m.is_empty());
    prop_assert_eq!(w.first_key(), m.keys().next().copied());
    prop_assert_eq!(w.get(probe), m.get(&probe));
    let all: Vec<(u64, u64)> = w.range(..).map(|(p, &v)| (p, v)).collect();
    let expected: Vec<(u64, u64)> = m.iter().map(|(&p, &v)| (p, v)).collect();
    prop_assert_eq!(all, expected);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn window_matches_ordered_map_reference(
        start in 0u64..1_000_000,
        ops in proptest::collection::vec((0u8..20, any::<u64>(), any::<u64>()), 1..300),
    ) {
        let mut w: PsnWindow<u64> = PsnWindow::new();
        let mut m: BTreeMap<u64, u64> = BTreeMap::new();
        // The next fresh PSN; most keys fall within 96 below it, which
        // covers live entries, holes, and PSNs the front already passed.
        let mut cursor = start;
        for (op, a, b) in ops {
            let near = cursor.saturating_sub(a % 96);
            match op {
                // A new packet at the top of the window.
                0..=5 => {
                    prop_assert_eq!(w.insert(cursor, b), m.insert(cursor, b));
                    cursor += 1;
                }
                // A reserved PSN range (an RDMA read): a hole, then a packet.
                6 => {
                    cursor += 1 + a % 5;
                    prop_assert_eq!(w.insert(cursor, b), m.insert(cursor, b));
                    cursor += 1;
                }
                // Re-insert anywhere: over a live entry, into a hole,
                // or below the base after the front moved on.
                7..=8 => prop_assert_eq!(w.insert(near, b), m.insert(near, b)),
                9..=11 => prop_assert_eq!(w.remove(near), m.remove(&near)),
                // A cumulative ACK: pop everything up to `near`.
                12..=13 => {
                    while w.first_key().is_some_and(|first| first <= near) {
                        prop_assert_eq!(w.pop_first(), m.pop_first());
                    }
                    prop_assert!(m.keys().next().is_none_or(|&first| first > near));
                }
                14 => prop_assert_eq!(w.pop_first(), m.pop_first()),
                15..=16 => {
                    let hi = near + b % 80;
                    let got: Vec<(u64, u64)> = w.range(near..hi).map(|(p, &v)| (p, v)).collect();
                    let want: Vec<(u64, u64)> = m.range(near..hi).map(|(&p, &v)| (p, v)).collect();
                    prop_assert_eq!(got, want);
                    let got: Vec<u64> = w.range(near + 1..=hi + 1).map(|(p, _)| p).collect();
                    let want: Vec<u64> = m.range(near + 1..=hi + 1).map(|(&p, _)| p).collect();
                    prop_assert_eq!(got, want);
                    let got: Vec<u64> = w.range(near..).map(|(p, _)| p).collect();
                    let want: Vec<u64> = m.range(near..).map(|(&p, _)| p).collect();
                    prop_assert_eq!(got, want);
                }
                // Flag a sub-range in place, as a SACK bitmap does.
                17 => {
                    for (_, v) in w.range_mut(near..near + 16) {
                        *v ^= 1;
                    }
                    for (_, v) in m.range_mut(near..near + 16) {
                        *v ^= 1;
                    }
                    if let (Some(x), Some(y)) = (w.get_mut(near), m.get_mut(&near)) {
                        *x = b;
                        *y = b;
                    }
                }
                // A go-back-N rewind: everything from `near` up leaves,
                // newest first, and the cursor does not move back.
                18 => {
                    if let Some(&last) = m.keys().next_back() {
                        for psn in (near..=last).rev() {
                            prop_assert_eq!(w.remove(psn), m.remove(&psn));
                        }
                    }
                }
                // Rare, so the window has time to fill in between.
                _ if a % 4 == 0 => {
                    if b % 2 == 0 {
                        w.clear();
                        m.clear();
                    } else {
                        let drained: Vec<(u64, u64)> = w.drain().collect();
                        let expected: Vec<(u64, u64)> = std::mem::take(&mut m).into_iter().collect();
                        prop_assert_eq!(drained, expected);
                    }
                    // Re-base far away from the old span.
                    if a % 8 == 0 {
                        cursor += 10_000;
                    }
                }
                _ => {}
            }
            assert_same_state(&w, &m, near)?;
        }
    }
}

#[test]
fn bounds_at_the_edges_of_the_psn_space() {
    let mut w: PsnWindow<u8> = PsnWindow::new();
    assert_eq!(w.range(..).count(), 0);
    assert_eq!(w.first_key(), None);
    w.insert(u64::MAX - 1, 1);
    w.insert(u64::MAX, 2);
    let keys = |w: &PsnWindow<u8>, r: std::ops::RangeInclusive<u64>| -> Vec<u64> {
        w.range(r).map(|(p, _)| p).collect()
    };
    assert_eq!(keys(&w, 0..=u64::MAX), [u64::MAX - 1, u64::MAX]);
    assert_eq!(keys(&w, u64::MAX..=u64::MAX), [u64::MAX]);
    assert_eq!(w.range(u64::MAX..u64::MAX).count(), 0);
    assert_eq!(w.range(..u64::MAX - 1).count(), 0);
    // An inverted range is empty rather than a panic.
    assert_eq!(keys(&w, std::ops::RangeInclusive::new(u64::MAX, 0)), []);
    assert_eq!(w.get(0), None);
    assert_eq!(w.remove(5), None);
}
