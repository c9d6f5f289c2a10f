//! # netsim — simulated network fabric
//!
//! Links with serialization, propagation, bounded queues, tail-drop,
//! ECN marking, random loss injection, and 802.3x pause frames, driven
//! one cable at a time (the paper's back-to-back Ethernet testbed) or
//! composed into a star through one switch (the InfiniBand cluster).
//!
//! Everything is sans-IO: offering a packet returns the arrival time (or
//! a drop), and the caller schedules the delivery event on its
//! [`simcore::event::EventQueue`].
//!
//! # Examples
//!
//! ```
//! use netsim::{Fabric, LinkConfig, NodeId, SendOutcome};
//! use simcore::{Bandwidth, SimDuration, SimRng, SimTime};
//!
//! let mut rng = SimRng::new(1);
//! let link = LinkConfig::datacenter(Bandwidth::gbps(56));
//! let mut fabric = Fabric::star(link, 2, SimDuration::from_nanos(200), &mut rng);
//! match fabric.send(SimTime::ZERO, NodeId(0), NodeId(1), 1500) {
//!     SendOutcome::Delivered { arrives_at, .. } => assert!(arrives_at > SimTime::ZERO),
//!     SendOutcome::Dropped => unreachable!("empty queue cannot drop"),
//! }
//! ```

pub mod fabric;
pub mod link;
pub mod packet;
pub mod profile;

pub use fabric::Fabric;
pub use link::{Link, LinkConfig, SendOutcome};
pub use packet::{NodeId, Packet};
pub use profile::{FabricProfile, RdmaTransport, TransportConfig};
