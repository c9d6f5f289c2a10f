//! # rdmasim — a sans-IO InfiniBand verbs model
//!
//! Reliable-connection (RC) queue pairs with the full recovery toolbox
//! the paper's §4 builds on — cumulative ACKs, sequence-error NAKs,
//! go-back-N retransmission, and **RNR NACK** (the mechanism the
//! modified firmware reuses to suspend senders on receive-side NPFs).
//!
//! Every DMA a QP performs consults a [`types::DmaGate`]; the NPF engine
//! in `npf-core` implements the gate over the IOMMU and host memory.
//! Pinned channels use [`types::PinnedGate`] and never fault. Memory
//! registration (pinned vs on-demand paging) is modelled by
//! `npf_core::pinning`, not here.
//!
//! # Examples
//!
//! ```
//! use rdmasim::rc::RcQp;
//! use rdmasim::types::{PinnedGate, QpId, RcConfig, RecvWqe, SendOp, QpOutput};
//! use memsim::types::VirtAddr;
//! use netsim::packet::NodeId;
//! use simcore::SimTime;
//!
//! let mut requester = RcQp::new(RcConfig::default(), QpId(1), QpId(2), NodeId(1));
//! let outs = requester.post_send(
//!     SimTime::ZERO,
//!     1,
//!     SendOp::Write { local: VirtAddr(0), remote: VirtAddr(0x8000), len: 4096 },
//!     &mut PinnedGate,
//! );
//! assert!(outs.iter().any(|o| matches!(o, QpOutput::Send { .. })));
//! ```

pub mod psn_window;
pub mod rc;
pub mod types;

pub use psn_window::PsnWindow;
pub use rc::{RcQp, RcStats};
pub use types::{
    Completion, DmaGate, GateDecision, MessageRange, PinnedGate, QpId, QpOutput, QpTimer, RcConfig,
    RcPacket, RcPacketKind, RdmaTransport, RecvWqe, SendOp, WcOpcode, WcStatus, WrId,
};
