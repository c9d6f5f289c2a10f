//! # simcore — deterministic discrete-event simulation foundation
//!
//! Shared infrastructure for the NPF reproduction: simulated time, a
//! deterministic event queue, seeded randomness, measurement statistics,
//! and bandwidth/size units. Every other crate in the workspace builds on
//! these types.
//!
//! The design goal is *bit-for-bit reproducibility*: given the same seed
//! and configuration, a simulation produces identical event orderings and
//! therefore identical measurements. Two rules make that hold:
//!
//! 1. all time comes from one [`event::EventQueue`] per testbed, with FIFO
//!    tie-breaking for simultaneous events, and
//! 2. all randomness comes from a [`rng::SimRng`] seeded at testbed
//!    construction (components fork child streams so their draws do not
//!    interleave).
//!
//! # Examples
//!
//! ```
//! use simcore::event::EventQueue;
//! use simcore::time::{SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Event { PacketArrives, TimerFires }
//!
//! let mut q = EventQueue::new();
//! q.schedule_in(SimDuration::from_micros(10), Event::PacketArrives);
//! q.schedule_in(SimDuration::from_micros(5), Event::TimerFires);
//!
//! let (t, e) = q.pop().expect("event pending");
//! assert_eq!(e, Event::TimerFires);
//! assert_eq!(t, SimTime::from_micros(5));
//! ```

pub mod chaos;
pub mod event;
pub mod fxhash;
pub mod instruments;
pub mod journal;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;
pub mod trace;
pub mod units;

pub use chaos::{ChaosConfig, ChaosEngine, ChaosProfile, InvariantChecker};
pub use event::{EventQueue, EventToken};
pub use journal::{CauseId, FaultJournal, JournalId, JournalRecorder, JournalWatchdog, Phase};
pub use rng::SimRng;
pub use shard::Pool;
pub use stats::{CounterId, Counters, DurationHistogram, ThroughputMeter, TimeSeries};
pub use time::{SimDuration, SimTime};
pub use trace::{ArgValue, MetricsRegistry, SpanId, TraceRecord, TraceRecorder};
pub use units::{Bandwidth, ByteSize};
