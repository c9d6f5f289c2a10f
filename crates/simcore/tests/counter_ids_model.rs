//! Differential test of [`Counters`]' interned ids against its string
//! API.
//!
//! The hot paths switched from `bump("name")` to ids registered at
//! construction on the promise that no export changes. One counter set
//! is driven through ids (every name registered up front, as a
//! component's constructor does), the other through names only; a
//! `BTreeMap` holding exactly the counters ever added to is the
//! reference for both. After every step all three must agree on `get`
//! for every name and on `iter`, and merging either set into a fresh
//! one must reproduce the reference — so a registered id that was never
//! added to stays invisible, while `add(name, 0)` creates a visible
//! zero entry.

use std::collections::BTreeMap;

use proptest::prelude::*;
use simcore::stats::{CounterId, Counters};

const NAMES: [&str; 8] = [
    "stored",
    "backup_stored",
    "dropped_fault",
    "resolved",
    "npf_events",
    "npf_pages",
    "a",
    "",
];

fn assert_same(
    by_id: &Counters,
    by_name: &Counters,
    model: &BTreeMap<&str, u64>,
) -> Result<(), TestCaseError> {
    let expected: Vec<(&str, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    for counters in [by_id, by_name] {
        prop_assert_eq!(counters.iter().collect::<Vec<_>>(), expected.clone());
        for name in NAMES {
            prop_assert_eq!(counters.get(name), model.get(name).copied().unwrap_or(0));
        }
        prop_assert_eq!(counters.get("never registered"), 0);
        // Merging adds by name into whatever the target already holds.
        let mut merged = Counters::new();
        merged.add("resolved", 0);
        merged.merge_from(counters);
        let mut expected_merge = model.clone();
        expected_merge.entry("resolved").or_insert(0);
        prop_assert_eq!(
            merged.iter().collect::<Vec<_>>(),
            expected_merge
                .iter()
                .map(|(&k, &v)| (k, v))
                .collect::<Vec<_>>()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ids_match_the_string_api(
        ops in proptest::collection::vec((0u8..8, 0usize..NAMES.len(), any::<u64>()), 0..120),
    ) {
        let mut by_id = Counters::new();
        let ids: Vec<CounterId> = NAMES.iter().map(|name| by_id.register(name)).collect();
        let mut by_name = Counters::new();
        let mut model: BTreeMap<&str, u64> = BTreeMap::new();
        assert_same(&by_id, &by_name, &model)?;
        for (op, which, n) in ops {
            let name = NAMES[which];
            // Small addends, and zero often: `add(_, 0)` must still
            // make the counter visible.
            let n = n % 4;
            match op {
                0..=2 => {
                    by_id.bump_id(ids[which]);
                    by_name.bump(name);
                    *model.entry(name).or_insert(0) += 1;
                }
                3..=5 => {
                    by_id.add_id(ids[which], n);
                    by_name.add(name, n);
                    *model.entry(name).or_insert(0) += n;
                }
                // The two APIs mix freely on one set.
                6 => {
                    by_id.add(name, n);
                    by_name.add(name, n);
                    *model.entry(name).or_insert(0) += n;
                }
                // Late registration is idempotent and changes nothing.
                _ => {
                    prop_assert_eq!(by_id.register(name), ids[which]);
                    by_name.register(name);
                }
            }
            assert_same(&by_id, &by_name, &model)?;
        }
    }
}
