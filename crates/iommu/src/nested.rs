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
