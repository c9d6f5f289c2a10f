//! # workloads — the paper's evaluation applications
//!
//! Application-level state machines for every workload §6 evaluates:
//!
//! * [`memcached`] — the LRU key-value cache and its memaslap load
//!   generator (cold ring, overcommit, and dynamic working-set
//!   experiments: Figure 4, Table 5, Figure 7),
//! * [`storage`] — a tgt-like iSER target with per-transaction
//!   communication chunks and a fio-like random-read client
//!   (Figure 8),
//! * [`mpi`] — collective schedules (sendrecv/bcast/alltoall/allreduce)
//!   and IMB off-cache buffer rotation (Figure 9, Table 6),
//! * [`stream`] — netperf/ib_send_bw-style maximum-bandwidth streams
//!   with synthetic rNPF injection (Figure 10).
//!
//! Workloads are pure: they emit *plans* (which addresses to touch,
//! which transfers to make, what CPU to charge); the `testbed` crate
//! executes plans against hosts and the network.

pub mod memcached;
pub mod mpi;
pub mod storage;
pub mod stream;

pub use memcached::{KvOp, KvOutcome, Memaslap, Memcached, MemcachedConfig};
pub use mpi::{BufferPool, Collective, Transfer};
pub use storage::{FioClient, ReadPlan, StorageTarget};
pub use stream::{StreamReceiver, SyntheticFaults};
