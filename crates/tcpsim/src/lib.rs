//! # tcpsim — a sans-IO TCP implementation
//!
//! A faithful-enough TCP for reproducing the paper's Ethernet results:
//! the **cold ring problem** (Figure 4) is an emergent property of slow
//! start, retransmission timeouts with exponential backoff, duplicate-ACK
//! fast retransmit, and the maximum-retry abort — all implemented here.
//!
//! The state machine ([`conn::TcpConnection`]) is pure: it consumes
//! segments and timer expirations and returns [`conn::TcpOutput`]
//! effects. [`stack::TcpStack`] adds port demultiplexing and listeners,
//! and names each connection by a dense [`stack::ConnSlot`].
//! Payload bytes are *logical* (counts, not contents).
//!
//! # Examples
//!
//! ```
//! use tcpsim::{TcpConfig, TcpStack, TcpOutput};
//! use simcore::SimTime;
//!
//! let mut server = TcpStack::new();
//! server.listen(80, TcpConfig::lwip());
//!
//! let mut client = TcpStack::new();
//! let mut outs = Vec::new();
//! let _slot = client.connect_into(SimTime::ZERO, 4000, 80, TcpConfig::linux(), &mut outs);
//! // The first effect is the SYN to put on the wire.
//! assert!(matches!(outs[0], TcpOutput::Send(seg) if seg.flags.syn));
//! ```

pub mod conn;
pub mod stack;
pub mod types;

pub use conn::{FailReason, TcpConnection, TcpOutput, TcpState};
pub use stack::{ConnId, ConnSlot, TcpStack};
pub use types::{TcpConfig, TcpFlags, TcpSegment};
