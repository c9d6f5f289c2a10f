//! # nicsim — a simulated direct-I/O network controller
//!
//! Models the NIC hardware the paper modifies: SR-IOV IOchannels with
//! port steering ([`sriov`]), interrupt moderation ([`interrupt`]), and
//! — the heart of the Ethernet design — a faithful implementation of
//! Figure 6's backup-ring hardware ([`rx`]): per-IOuser receive rings
//! with `head`/`head_offset`/`bitmap` bookkeeping that preserves
//! in-order delivery across receive-side page faults.
//!
//! The crate has no DMA engine or transmit queue of its own: whether a
//! DMA may proceed is `npf_core::NpfEngine::dma_ready` over
//! `iommu::Iommu::probe_range`, and send-side stalls are
//! `rdmasim::RcQp::pump` behind a `rdmasim::DmaGate`.
//!
//! # Examples
//!
//! ```
//! use nicsim::rx::{RxEngine, RxFaultMode, RxDescriptor, RingId, RxVerdict};
//! use memsim::types::VirtAddr;
//!
//! let mut rx: RxEngine<&str> = RxEngine::new(RxFaultMode::BackupRing { capacity: 64 });
//! rx.create_ring(RingId(0), 8, 16);
//! rx.post_descriptor(RingId(0), RxDescriptor { addr: VirtAddr(0x1000), capacity: 2048 });
//!
//! // A faulting receive is redirected to the backup ring...
//! let RxVerdict::Backup { bit_index, target_index, .. } =
//!     rx.recv(RingId(0), "payload", 100, false) else { unreachable!() };
//! // ...and merged back once the IOprovider resolves the fault.
//! let entry = rx.pop_backup().unwrap();
//! rx.place_resolved(RingId(0), target_index, entry.payload, entry.len);
//! assert!(rx.resolve_rnpfs(RingId(0), bit_index));
//! assert_eq!(rx.consume(RingId(0)), Some(("payload", 100)));
//! ```

pub mod interrupt;
pub mod rx;
pub mod sriov;

pub use interrupt::{InterruptDecision, InterruptModerator};
pub use rx::{
    BackupEntry, BackupPolicy, IoUserRing, RingId, RxDescriptor, RxEngine, RxFaultMode, RxVerdict,
};
pub use sriov::{Channel, ChannelId, ChannelTable};
