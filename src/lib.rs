//! # npf — Page Fault Support for Network Controllers, reproduced
//!
//! A deterministic-simulation reproduction of *Page Fault Support for
//! Network Controllers* (ASPLOS 2017) — the ODP paper. This facade
//! crate re-exports the workspace so examples and integration tests can
//! use one dependency; see the individual crates for the substance:
//!
//! * [`simcore`] — time, events, RNG, statistics
//! * [`memsim`] — host virtual memory (frames, demand paging, swap,
//!   reclaim, page cache, cgroups)
//! * [`iommu`] — translation domains, I/O page tables with non-present
//!   entries, `probe_range`, invalidation
//! * [`netsim`] — links, queues, flow control, switches
//! * [`tcpsim`] — a sans-IO TCP (the cold-ring dynamics live here)
//! * [`rdmasim`] — RC/UD queue pairs with RNR NACK
//! * [`nicsim`] — receive rings, the Figure-6 backup ring, interrupts,
//!   SR-IOV channels
//! * [`npf_core`] — **the paper's contribution**: the NPF engine,
//!   invalidation flow, backup-ring driver, and registration strategies
//! * [`workloads`] — memcached/memaslap, storage, MPI, streams
//! * [`testbed`] — the Ethernet pair and the InfiniBand cluster
//!
//! # Examples
//!
//! ```
//! use npf::prelude::*;
//!
//! let mm = MemoryManager::new(MemConfig::default());
//! let mut engine = NpfEngine::new(NpfConfig::default(), mm, SimRng::new(1));
//! let space = engine.memory_mut().create_space();
//! let channel = engine.create_channel(space);
//! let range = engine.memory_mut().mmap(space, ByteSize::mib(1), Backing::Anonymous)?;
//! assert!(!engine.dma_ready(channel, range.start.base(), 4096, true));
//! # Ok::<(), memsim::manager::MemError>(())
//! ```

pub use iommu;
pub use memsim;
pub use netsim;
pub use nicsim;
pub use npf_core;
pub use rdmasim;
pub use simcore;
pub use tcpsim;
pub use testbed;
pub use workloads;

/// The most common imports for driving the simulation.
pub mod prelude {
    pub use memsim::manager::{MemConfig, MemoryManager};
    pub use memsim::space::Backing;
    pub use npf_core::npf::{NpfConfig, NpfEngine};
    pub use npf_core::pinning::{Registrar, Strategy};
    pub use npf_core::{ArbiterPolicy, BackendKind};
    pub use simcore::chaos::{ChaosConfig, ChaosEngine, ChaosProfile, InvariantChecker};
    pub use simcore::{Bandwidth, ByteSize, SimDuration, SimRng, SimTime};
    pub use testbed::builder::{EthScenario, IbScenario, ScenarioBuilder, ScenarioError};
    pub use testbed::eth::{EthConfig, EthTestbed, RxMode, TenantReport};
    pub use testbed::ib::{IbCluster, IbConfig};
}
