//! # iommu — simulated I/O memory management unit
//!
//! Models the translation hardware between DMA engines and physical
//! memory: per-IOchannel I/O page tables whose entries may be
//! **non-present** (the paper's key firmware change, §4) and must be
//! invalidated when mappings change (Figure 2 steps a–d). The device
//! translates one way — [`Iommu::probe_range`] reads the page table —
//! and the NPF engine in `npf-core` raises the fault on a miss; there is
//! no translation cache and no page-request queue, because no figure
//! depends on one (EXPERIMENTS.md, "Wire or delete: the IOTLB").
//!
//! # Examples
//!
//! ```
//! use iommu::{Iommu, TableMode};
//! use memsim::types::{FrameId, PageRange, Vpn};
//!
//! let mut mmu = Iommu::new(0);
//! let dom = mmu.create_domain(TableMode::PageFaultCapable);
//! let page = PageRange::new(Vpn(9), 1);
//!
//! // A DMA to a non-present page would fault...
//! assert!(!mmu.probe_range(dom, page, true));
//! // ...until the driver resolves it by installing the mapping...
//! mmu.map(dom, Vpn(9), FrameId(3), true);
//! assert!(mmu.probe_range(dom, page, true));
//! // ...and reclaim invalidates it again.
//! assert!(mmu.invalidate(dom, Vpn(9)));
//! assert!(!mmu.probe_range(dom, page, true));
//! ```

pub mod pagetable;
pub mod unit;

pub use pagetable::{DomainId, IoPageTable, IoPte, TableMode};
pub use unit::Iommu;
