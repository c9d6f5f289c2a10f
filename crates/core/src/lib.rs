//! # npf-core — network page fault support
//!
//! The paper's contribution, reproduced in simulation: an IOprovider
//! driver that lets direct-I/O NIC DMAs take page faults instead of
//! requiring pinned memory.
//!
//! * [`npf::NpfEngine`] — the Figure 2 flows: MMU-notifier
//!   invalidation, and fault resolution as one pipeline (resolve →
//!   plan → admit → record → pend) that a NIC-raised NPF and a
//!   speculative pre-fault both take. Its policies are modules of
//!   their own:
//!   [`backend`] prices a fault (firmware NPF, software emulation,
//!   pinned baseline), [`arbiter::FaultArbiter`] decides when it may
//!   start (the §4 per-channel concurrency limit, then the
//!   cross-channel slot pool), and the private `prefetch` module's
//!   stride detector decides what to pre-fault.
//! * [`backup_driver::BackupDriver`] — the §5 Ethernet design: the
//!   IOprovider half of the backup ring (software queues + resolver
//!   thread), keeping IOusers unaware of rNPFs.
//! * [`pinning::Registrar`] — the competing registration strategies of
//!   §2.2 (static, fine-grained, pin-down cache, copy) priced against
//!   the same engine, for apples-to-apples comparisons.
//! * [`cost::COST`] — the one cost model, constants calibrated to
//!   Figure 3/Table 4.
//!
//! # Examples
//!
//! ```
//! use npf_core::npf::{NpfConfig, NpfEngine};
//! use memsim::manager::{MemConfig, MemoryManager};
//! use memsim::space::Backing;
//! use simcore::{SimRng, SimTime, ByteSize};
//!
//! let mm = MemoryManager::new(MemConfig::default());
//! let mut engine = NpfEngine::new(NpfConfig::default(), mm, SimRng::new(7));
//! let space = engine.memory_mut().create_space();
//! let range = engine.memory_mut().mmap(space, ByteSize::mib(1), Backing::Anonymous)?;
//! let channel = engine.create_channel(space);
//!
//! // A DMA to the cold buffer faults; the engine resolves it.
//! assert!(!engine.dma_ready(channel, range.start.base(), 4096, true));
//! let fault = engine
//!     .begin_fault(SimTime::ZERO, channel, range.start.base(), 4096, true, None)?
//!     .clone();
//! engine.complete_fault(fault.id);
//! assert!(engine.dma_ready(channel, range.start.base(), 4096, true));
//! # Ok::<(), memsim::manager::MemError>(())
//! ```

pub mod arbiter;
pub mod backend;
pub mod backup_driver;
pub mod cost;
pub mod npf;
pub mod pinning;
mod prefetch;

pub use arbiter::{ArbiterPolicy, ArbiterStats, FaultArbiter};
pub use backend::{
    BackendKind, FaultPlan, FaultRequest, FirmwareBackend, OdpBackend, PinnedBackend,
    SoftEmuBackend,
};
pub use backup_driver::{BackupDriver, ResolveStep};
pub use cost::{CostModel, InvalidationBreakdown, NpfBreakdown, COST};
pub use npf::{FaultRecord, NpfConfig, NpfEngine};
pub use pinning::{Registrar, RegistrarStats, Strategy};

/// The entry for `domain` in a table indexed by the dense domain id,
/// growing the table with defaults to cover it.
fn dense_slot<T: Clone + Default>(table: &mut Vec<T>, domain: iommu::DomainId) -> &mut T {
    let idx = domain.0 as usize;
    if idx >= table.len() {
        table.resize(idx + 1, T::default());
    }
    &mut table[idx]
}

/// Testbed convention: every IOuser maps its RX packet buffers as a
/// page-per-slot array at this virtual address (the NIC metadata lets
/// the backup driver reconstruct slot addresses from indices).
pub const RX_BUFFER_BASE: u64 = 0x4000_0000;
