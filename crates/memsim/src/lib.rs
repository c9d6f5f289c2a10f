//! # memsim — simulated host virtual-memory subsystem
//!
//! Models the OS side of the NPF paper's Figure 2: physical frames,
//! per-IOuser address spaces with demand paging and delayed allocation,
//! a swap device, LRU reclaim with invalidation effects (the MMU-notifier
//! path the NPF driver hooks), a page cache shared with mapped memory,
//! cgroup resident limits, and mlock/`RLIMIT_MEMLOCK` pinning.
//!
//! The manager is *sans-IO*: every operation returns the simulated time
//! it cost plus any [`manager::Invalidation`] effects; the testbed event
//! loop decides when those costs elapse.
//!
//! # Examples
//!
//! ```
//! use memsim::manager::{MemConfig, MemoryManager};
//! use memsim::space::Backing;
//! use simcore::units::ByteSize;
//!
//! let mut mm = MemoryManager::new(MemConfig::default());
//! let space = mm.create_space();
//! let range = mm.mmap(space, ByteSize::mib(1), Backing::Anonymous)?;
//! // First touch demand-allocates the page: a minor fault with a cost.
//! let access = mm.touch(space, range.start, true)?;
//! assert!(access.fault.is_some());
//! # Ok::<(), memsim::manager::MemError>(())
//! ```

pub mod dense;
pub mod frame;
pub mod lru;
pub mod manager;
pub mod pagecache;
pub mod space;
pub mod swap;
pub mod types;

pub use manager::{
    Access, CgroupId, FaultKind, FaultResolution, Invalidation, MemConfig, MemError, MemoryManager,
    PinOutcome,
};
pub use space::{AddressSpace, Backing, PageState, Pte, SpaceError};
pub use swap::{DiskConfig, SwapDevice};
pub use types::{FileId, FrameId, PageRange, SpaceId, VirtAddr, Vpn, PAGE_SIZE};
