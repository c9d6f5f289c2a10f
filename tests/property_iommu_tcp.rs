//! More property tests: IOMMU translation freshness and event-queue ordering.

use proptest::prelude::*;

use iommu::{Iommu, TableMode};
use memsim::types::{FrameId, PageRange, Vpn};
use simcore::event::EventQueue;
use simcore::time::SimTime;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The IOMMU never serves a stale translation: after any sequence
    /// of map/invalidate operations, a probe succeeds iff the model has
    /// the page, and the PTE holds the model's *current* frame.
    #[test]
    fn translation_never_stale(ops in proptest::collection::vec((0u64..16, 0u8..3), 1..200)) {
        let mut mmu = Iommu::new(4);
        let d = mmu.create_domain(TableMode::PageFaultCapable);
        let mut truth: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut version = 100u64;
        for (page, op) in ops {
            match op {
                0 => {
                    // (Re)map the page to a fresh frame. Remapping goes
                    // through invalidate-then-map, as the driver does.
                    version += 1;
                    mmu.invalidate(d, Vpn(page));
                    mmu.map(d, Vpn(page), FrameId(version), true);
                    truth.insert(page, version);
                }
                1 => {
                    mmu.invalidate(d, Vpn(page));
                    truth.remove(&page);
                }
                _ => {
                    let want = truth.get(&page).map(|&v| FrameId(v));
                    prop_assert_eq!(
                        mmu.probe_range(d, PageRange::new(Vpn(page), 1), true),
                        want.is_some(),
                        "page {} present?", page
                    );
                    prop_assert_eq!(
                        mmu.table(d).pte(Vpn(page)).map(|p| p.frame),
                        want,
                        "page {} frame", page
                    );
                }
            }
        }
    }

    /// The event queue delivers in non-decreasing time order with FIFO
    /// tie-breaking, for any schedule including cancellations.
    #[test]
    fn event_queue_total_order(
        items in proptest::collection::vec((0u64..1000, any::<bool>()), 1..300),
    ) {
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut tokens = Vec::new();
        for (i, &(at, _)) in items.iter().enumerate() {
            tokens.push(q.schedule_at(SimTime::from_nanos(at), i));
        }
        // Cancel the flagged ones.
        let mut cancelled = std::collections::HashSet::new();
        for (i, &(_, cancel)) in items.iter().enumerate() {
            if cancel {
                prop_assert!(q.cancel(tokens[i]));
                cancelled.insert(i);
            }
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut delivered = std::collections::HashSet::new();
        while let Some((t, i)) = q.pop() {
            prop_assert!(!cancelled.contains(&i), "cancelled event {i} delivered");
            prop_assert_eq!(SimTime::from_nanos(items[i].0), t);
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt, "time went backwards");
                if t == lt {
                    prop_assert!(i > li, "FIFO tie-break violated");
                }
            }
            last = Some((t, i));
            delivered.insert(i);
        }
        // Everything not cancelled was delivered exactly once.
        for i in 0..items.len() {
            prop_assert_eq!(delivered.contains(&i), !cancelled.contains(&i));
        }
    }
}
