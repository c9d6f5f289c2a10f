//! # testbed — experiment drivers
//!
//! Deterministic event-loop testbeds of the paper's two setups:
//!
//! * [`eth::EthTestbed`] — the Ethernet pair: a Linux-TCP client machine
//!   back-to-back with a 12 Gb/s NPF-prototype server hosting memcached
//!   IOusers over direct channels (§5–6: cold ring, overcommit, dynamic
//!   working sets).
//! * [`ib::IbCluster`] — the 8-node, 56 Gb/s InfiniBand cluster with RC
//!   QPs whose DMAs consult each node's NPF engine (§4, §6).
//! * [`mpi_run`] — IMB-style collective execution over the cluster
//!   (Figure 9, Table 6).
//! * [`storage_bed`] — the tgt/fio storage experiment (Figure 8).
//! * [`stream_eth`] — the Netperf-style what-if stream with synthetic
//!   rNPF injection (Figure 10 left).
//!
//! Testbeds own the event loops; every substrate stays sans-IO. Each
//! loop is `while let Some((now, event)) = queue.pop_until(deadline)`:
//! the queue owns `now`, so it — not the testbed — advances the trace
//! and journal clocks and runs the invariant checkpoint (see
//! [`simcore::event`]). All runs are deterministic in their seeds
//! (asserted by integration tests).
//!
//! Both testbeds are constructed through [`builder::ScenarioBuilder`],
//! the one typed, validated way to build them; [`EthConfig`] and
//! [`IbConfig`] are the plain data it fills in.
//!
//! # Examples
//!
//! ```
//! use testbed::builder::ScenarioBuilder;
//! use testbed::eth::RxMode;
//! use simcore::{ByteSize, SimTime};
//! use workloads::memcached::MemcachedConfig;
//!
//! let mut bed = ScenarioBuilder::ethernet()
//!     .mode(RxMode::Backup)
//!     .conns_per_instance(4)
//!     .host_memory(ByteSize::mib(256))
//!     .memcached(MemcachedConfig {
//!         max_bytes: ByteSize::mib(32),
//!         ..MemcachedConfig::default()
//!     })
//!     .working_set_keys(500)
//!     .build()
//!     .expect("host memory suffices");
//! bed.run_until(SimTime::from_millis(200));
//! assert!(bed.total_ops() > 0);
//! ```

pub mod builder;
pub mod cpu;
pub mod eth;
pub mod ib;
pub mod mpi_run;
pub mod storage_bed;
pub mod stream_eth;

pub use builder::{EthScenario, IbScenario, ScenarioBuilder, ScenarioError};
pub use cpu::CpuPool;
pub use eth::{EthConfig, EthTestbed, InstanceMetrics, RxMode, TenantReport};
pub use ib::{IbCluster, IbConfig, IbNode};
pub use mpi_run::{run_collective, MpiRunConfig, MpiRunResult};
pub use storage_bed::{run_storage, StorageBedConfig, StorageBedResult};
pub use stream_eth::{run_stream, StreamBedConfig, StreamBedResult, StreamMode};
