//! Two-dimensional (nested) IOMMU translation.
//!
//! §2.4 of the paper: recent hardware supports separate guest and host
//! I/O page tables — the guest table translates guest-virtual to
//! guest-physical pages (the IOuser can use it for *strict protection*
//! against errant devices), and the host table translates guest-physical
//! to host-physical frames (the IOprovider needs page faults here for the
//! canonical memory optimizations). The hardware concatenates the two.
//!
//! This module models that concatenation so the protection property and
//! the NPF property can be exercised independently.

use memsim::types::{FrameId, Vpn};

use crate::pagetable::{IoPageTable, Translation};

/// A guest-physical page number (the intermediate address of the 2D
/// walk).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Gpn(pub u64);

/// Result of a nested walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NestedTranslation {
    /// Both stages translated.
    Ok(FrameId),
    /// The *guest* stage rejected the access: a protection event the
    /// IOuser configured deliberately; not recoverable by the host.
    GuestDenied,
    /// The *host* stage missed: a normal NPF the IOprovider resolves.
    HostFault(Gpn),
    /// The host stage rejected the access outright (pinned-only mode or
    /// permission violation).
    HostError,
}

/// Memory-reference accounting for two-dimensional walks.
///
/// The simulated tables are flat maps, but real nested walks are radix
/// walks: with `G` guest levels and `H` host levels, each of the `G`
/// guest PTE pointers is a guest-physical address that itself takes an
/// `H`-step host walk to follow, and the final gPA takes one more. A
/// full 2D walk therefore loads `G*(H+1) + H` PTEs — 24 for the
/// classic `G = H = 4` case. This struct charges that model per walk so
/// experiments can report walk-memory traffic, not just walk counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkStats {
    guest_levels: u64,
    host_levels: u64,
    walks: u64,
    pte_loads: u64,
    huge_host_walks: u64,
}

impl WalkStats {
    /// Accounting for `guest_levels`-deep guest and `host_levels`-deep
    /// host radix tables.
    ///
    /// # Panics
    ///
    /// Panics when either depth is zero.
    #[must_use]
    pub fn new(guest_levels: u64, host_levels: u64) -> Self {
        assert!(
            guest_levels > 0 && host_levels > 0,
            "radix walks need at least one level per stage"
        );
        WalkStats {
            guest_levels,
            host_levels,
            walks: 0,
            pte_loads: 0,
            huge_host_walks: 0,
        }
    }

    /// PTE loads of one complete two-dimensional walk:
    /// `G*(H+1) + H`.
    #[must_use]
    pub fn full_walk_loads(&self) -> u64 {
        self.guest_levels * (self.host_levels + 1) + self.host_levels
    }

    /// Walks accounted so far.
    #[must_use]
    pub fn walks(&self) -> u64 {
        self.walks
    }

    /// Total PTE loads accounted so far.
    #[must_use]
    pub fn pte_loads(&self) -> u64 {
        self.pte_loads
    }

    /// Mean PTE loads per walk (0.0 before any walk).
    #[must_use]
    pub fn mean_walk_loads(&self) -> f64 {
        if self.walks == 0 {
            0.0
        } else {
            self.pte_loads as f64 / self.walks as f64
        }
    }

    /// Final host walks that terminated at a 2 MiB leaf (one radix
    /// level early).
    #[must_use]
    pub fn huge_host_walks(&self) -> u64 {
        self.huge_host_walks
    }

    /// Charges one walk with the given `outcome`. A denied guest stage
    /// still performed its full `G*(H+1)` nested reads to discover the
    /// missing leaf; only walks that produced a gPA pay the final
    /// host walk — `H` steps, or `H - 1` when the host leaf is a
    /// folded 2 MiB entry (`host_leaf_huge`, the walk stops at the
    /// penultimate level).
    fn charge(&mut self, outcome: NestedTranslation, host_leaf_huge: bool) {
        self.walks += 1;
        self.pte_loads += self.guest_levels * (self.host_levels + 1);
        if outcome != NestedTranslation::GuestDenied {
            if host_leaf_huge {
                self.pte_loads += self.host_levels.saturating_sub(1);
                self.huge_host_walks += 1;
            } else {
                self.pte_loads += self.host_levels;
            }
        }
    }
}

/// A two-stage translation pipeline.
///
/// The guest stage maps IOuser virtual pages to guest-physical pages;
/// the host stage maps guest-physical pages to host frames. The guest
/// table reuses [`IoPageTable`] with `FrameId` standing in for `Gpn`
/// (both are raw page numbers).
#[derive(Debug)]
pub struct NestedWalk<'a> {
    /// Guest stage (gVA -> gPA), owned by the IOuser.
    pub guest: &'a mut IoPageTable,
    /// Host stage (gPA -> hPA), owned by the IOprovider.
    pub host: &'a mut IoPageTable,
}

impl NestedWalk<'_> {
    /// Performs the concatenated walk for one access.
    pub fn translate(&mut self, vpn: Vpn, write: bool) -> NestedTranslation {
        let gpn = match self.guest.translate(vpn, write) {
            Translation::Ok(f) => Gpn(f.0),
            // A guest-stage miss or permission failure is the IOuser's
            // protection policy firing, regardless of the table mode.
            Translation::Fault | Translation::Error => return NestedTranslation::GuestDenied,
        };
        match self.host.translate(Vpn(gpn.0), write) {
            Translation::Ok(frame) => NestedTranslation::Ok(frame),
            Translation::Fault => NestedTranslation::HostFault(gpn),
            Translation::Error => NestedTranslation::HostError,
        }
    }

    /// Performs the concatenated walk and charges its memory-reference
    /// cost to `stats`. A host stage that resolved through a folded
    /// 2 MiB leaf pays one fewer host-level load.
    pub fn translate_counted(
        &mut self,
        vpn: Vpn,
        write: bool,
        stats: &mut WalkStats,
    ) -> NestedTranslation {
        let outcome = self.translate(vpn, write);
        let host_leaf_huge = match outcome {
            // Only a *successful* host leaf can be a folded one; faults
            // and errors mean the leaf was absent or rejected.
            NestedTranslation::Ok(_) => self
                .guest
                .pte(vpn)
                .is_some_and(|g| self.host.is_huge(Vpn(g.frame.0))),
            _ => false,
        };
        stats.charge(outcome, host_leaf_huge);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagetable::{DomainId, TableMode};

    fn tables() -> (IoPageTable, IoPageTable) {
        (
            IoPageTable::new(DomainId(0), TableMode::PinnedOnly),
            IoPageTable::new(DomainId(1), TableMode::PageFaultCapable),
        )
    }

    #[test]
    fn both_stages_present_translates() {
        let (mut guest, mut host) = tables();
        guest.map(Vpn(5), FrameId(100), true); // gVA 5 -> gPA 100
        host.map(Vpn(100), FrameId(7), true); // gPA 100 -> hPA 7
        let mut w = NestedWalk {
            guest: &mut guest,
            host: &mut host,
        };
        assert_eq!(w.translate(Vpn(5), true), NestedTranslation::Ok(FrameId(7)));
    }

    #[test]
    fn guest_stage_protects() {
        let (mut guest, mut host) = tables();
        host.map(Vpn(100), FrameId(7), true);
        let mut w = NestedWalk {
            guest: &mut guest,
            host: &mut host,
        };
        // The IOuser never granted the device access to gVA 5.
        assert_eq!(w.translate(Vpn(5), false), NestedTranslation::GuestDenied);
    }

    #[test]
    fn host_stage_faults_for_npf() {
        let (mut guest, mut host) = tables();
        guest.map(Vpn(5), FrameId(100), true);
        let mut w = NestedWalk {
            guest: &mut guest,
            host: &mut host,
        };
        // The guest allowed the access, but the IOprovider has paged the
        // guest-physical page out: a recoverable NPF.
        assert_eq!(
            w.translate(Vpn(5), false),
            NestedTranslation::HostFault(Gpn(100))
        );
    }

    #[test]
    fn host_resolution_makes_walk_succeed() {
        let (mut guest, mut host) = tables();
        guest.map(Vpn(5), FrameId(100), true);
        {
            let mut w = NestedWalk {
                guest: &mut guest,
                host: &mut host,
            };
            assert!(matches!(
                w.translate(Vpn(5), false),
                NestedTranslation::HostFault(_)
            ));
        }
        host.map(Vpn(100), FrameId(3), true);
        let mut w = NestedWalk {
            guest: &mut guest,
            host: &mut host,
        };
        assert_eq!(
            w.translate(Vpn(5), false),
            NestedTranslation::Ok(FrameId(3))
        );
    }

    #[test]
    fn full_walk_costs_g_times_h_plus_one_plus_h() {
        // The canonical 4x4 case: 4*(4+1) + 4 = 24 PTE loads.
        assert_eq!(WalkStats::new(4, 4).full_walk_loads(), 24);
        assert_eq!(WalkStats::new(1, 1).full_walk_loads(), 3);
        assert_eq!(WalkStats::new(4, 5).full_walk_loads(), 29);
    }

    #[test]
    fn complete_walk_charges_full_cost() {
        let (mut guest, mut host) = tables();
        guest.map(Vpn(5), FrameId(100), true);
        host.map(Vpn(100), FrameId(7), true);
        let mut w = NestedWalk {
            guest: &mut guest,
            host: &mut host,
        };
        let mut stats = WalkStats::new(4, 4);
        assert_eq!(
            w.translate_counted(Vpn(5), true, &mut stats),
            NestedTranslation::Ok(FrameId(7))
        );
        assert_eq!(stats.walks(), 1);
        assert_eq!(stats.pte_loads(), 24);
        assert!((stats.mean_walk_loads() - 24.0).abs() < f64::EPSILON);
    }

    #[test]
    fn host_fault_still_pays_the_full_walk() {
        // An NPF is only *discovered* at the end of the host walk, so
        // its memory cost equals a successful translation's.
        let (mut guest, mut host) = tables();
        guest.map(Vpn(5), FrameId(100), true);
        let mut w = NestedWalk {
            guest: &mut guest,
            host: &mut host,
        };
        let mut stats = WalkStats::new(4, 4);
        assert_eq!(
            w.translate_counted(Vpn(5), false, &mut stats),
            NestedTranslation::HostFault(Gpn(100))
        );
        assert_eq!(stats.pte_loads(), stats.full_walk_loads());
    }

    #[test]
    fn guest_denial_skips_the_final_host_walk() {
        let (mut guest, mut host) = tables();
        let mut w = NestedWalk {
            guest: &mut guest,
            host: &mut host,
        };
        let mut stats = WalkStats::new(4, 4);
        assert_eq!(
            w.translate_counted(Vpn(5), false, &mut stats),
            NestedTranslation::GuestDenied
        );
        // 4*(4+1) nested loads but no final host walk.
        assert_eq!(stats.pte_loads(), 20);
    }

    #[test]
    fn accounting_accumulates_across_walks() {
        let (mut guest, mut host) = tables();
        guest.map(Vpn(5), FrameId(100), true);
        host.map(Vpn(100), FrameId(7), true);
        let mut w = NestedWalk {
            guest: &mut guest,
            host: &mut host,
        };
        let mut stats = WalkStats::new(4, 4);
        w.translate_counted(Vpn(5), false, &mut stats); // 24: Ok
        w.translate_counted(Vpn(9), false, &mut stats); // 20: GuestDenied
        w.translate_counted(Vpn(5), false, &mut stats); // 24: Ok
        assert_eq!(stats.walks(), 3);
        assert_eq!(stats.pte_loads(), 68);
        assert!((stats.mean_walk_loads() - 68.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_depth_tables_are_rejected() {
        let _ = WalkStats::new(0, 4);
    }

    #[test]
    fn folded_host_leaf_shortens_the_final_walk() {
        use crate::pagetable::HUGE_PAGES;
        let (mut guest, mut host) = tables();
        host.set_huge_pages(true);
        // Guest maps a full 2 MiB run of gVAs onto a gPA chunk; the host
        // backs that chunk with contiguous frames so it folds.
        for i in 0..HUGE_PAGES {
            guest.map(Vpn(i), FrameId(HUGE_PAGES + i), true);
            host.map(Vpn(HUGE_PAGES + i), FrameId(4096 + i), true);
        }
        assert_eq!(host.huge_ptes(), 1, "host chunk folded");
        let mut w = NestedWalk {
            guest: &mut guest,
            host: &mut host,
        };
        let mut stats = WalkStats::new(4, 4);
        // Translation result is identical to the 4 KiB model...
        assert_eq!(
            w.translate_counted(Vpn(37), true, &mut stats),
            NestedTranslation::Ok(FrameId(4096 + 37))
        );
        // ...but the final host walk stopped one level early:
        // 4*(4+1) + 3 = 23 instead of 24.
        assert_eq!(stats.pte_loads(), 23);
        assert_eq!(stats.huge_host_walks(), 1);
    }

    #[test]
    fn folded_and_flat_host_stages_translate_identically() {
        use crate::pagetable::HUGE_PAGES;
        let run = |huge: bool| {
            let (mut guest, mut host) = tables();
            host.set_huge_pages(huge);
            for i in 0..HUGE_PAGES {
                guest.map(Vpn(i), FrameId(HUGE_PAGES + i), true);
                host.map(Vpn(HUGE_PAGES + i), FrameId(4096 + i), i % 2 == 0 || huge);
            }
            // Odd-writability runs never fold; force both variants
            // through the same probe sequence regardless.
            let mut w = NestedWalk {
                guest: &mut guest,
                host: &mut host,
            };
            let mut out = Vec::new();
            for vpn in [0u64, 37, 511, 512] {
                out.push(w.translate(Vpn(vpn), false));
            }
            out
        };
        // Read-only probes agree whether or not the host stage folded.
        assert_eq!(run(false), run(true));
    }
}
