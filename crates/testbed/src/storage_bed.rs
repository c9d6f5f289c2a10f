//! The storage experiment (§6.1 "Storage", Figure 8).
//!
//! A tgt-like iSER target (node 0) serves random reads from a 4 GB LUN
//! to an initiator (node 1) over RC RDMA writes. The target's
//! communication buffers are either statically pinned (the tgt
//! baseline: the whole chunk pool locked forever) or ODP-registered
//! (pages materialize on use). Whatever memory the buffers do not
//! occupy, the page cache uses — that competition is Figure 8(a).

use memsim::manager::{MemError, TierConfig};
use memsim::space::Backing;
use memsim::swap::DiskConfig;
use memsim::types::{PageRange, VirtAddr};
use npf_core::npf::NpfConfig;
use npf_core::COST;
use rdmasim::types::{SendOp, WcOpcode};
use simcore::time::{SimDuration, SimTime};
use simcore::units::ByteSize;
use workloads::storage::{
    FioClient, StorageTarget, CHUNK_SIZE, COMM_BASE, COMM_POOL, LUN_FILE, LUN_SIZE, TOTAL_CHUNKS,
};

use simcore::rng::SimRng;

use crate::builder::{IbScenario, ScenarioError};
use crate::ib::{IbCluster, IbConfig};

/// Outstanding requests per initiator session (fio's `iodepth`).
pub(crate) const QUEUE_DEPTH: u32 = 16;

/// RNG seed of the cluster and of the fio client.
const SEED: u64 = 1;

/// Configuration of one storage run.
#[derive(Debug, Clone, Copy)]
pub struct StorageBedConfig {
    /// Target host memory (the Figure 8(a) x-axis).
    pub target_memory: ByteSize,
    /// Memory the OS and daemon occupy before any buffers (pinned).
    pub reserved: ByteSize,
    /// Random-read block size (512 KB in Figure 8(a); 64 KB vs 512 KB
    /// in 8(b)).
    pub block_size: u64,
    /// Initiator sessions, each 16 reads deep (fio's `iodepth`).
    pub sessions: u32,
    /// Total reads to perform.
    pub total_ios: u64,
    /// `true` for ODP communication buffers, `false` for the pinned
    /// baseline.
    pub odp: bool,
    /// Free memory the pinned tgt needs besides its locked pool (heap,
    /// per-initiator structures, kernel watermarks). Calibrated so the
    /// pinned service "fails to load" below 5 GB, as §6.1 reports.
    pub pinned_headroom: ByteSize,
    /// Disk model (the paper's "high-performance hard drive").
    pub disk: DiskConfig,
    /// Optional NVM backing tier in front of the swap disk.
    pub tier: Option<TierConfig>,
    /// NPF engine configuration (huge pages, prefetch, backend).
    pub npf: NpfConfig,
    /// Warm the page cache to steady state before measuring (fio runs
    /// for minutes; the measured window is steady state).
    pub warm_cache: bool,
}

impl Default for StorageBedConfig {
    fn default() -> Self {
        StorageBedConfig {
            target_memory: ByteSize::gib(6),
            reserved: ByteSize::mib(900),
            block_size: 512 * 1024,
            sessions: 1,
            total_ios: 2000,
            odp: true,
            pinned_headroom: ByteSize::gib(3),
            disk: DiskConfig::hard_drive(),
            tier: None,
            npf: NpfConfig::default(),
            warm_cache: false,
        }
    }
}

/// Result of one storage run.
#[derive(Debug, Clone, Copy)]
pub struct StorageBedResult {
    /// Read bandwidth in GB/s.
    pub bandwidth_gb_s: f64,
    /// Target process resident memory at the end (Figure 8(b)).
    pub resident: ByteSize,
    /// Target pinned memory at the end.
    pub pinned: ByteSize,
    /// Page-cache hit ratio.
    pub cache_hit_ratio: f64,
    /// NPF events at the target.
    pub npf_events: u64,
    /// Total simulated time.
    pub elapsed: SimDuration,
}

/// Checks what the target can serve: a block fits one chunk, and every
/// session's reads in flight fit the pool together.
fn validate(config: &StorageBedConfig) -> Result<(), ScenarioError> {
    if config.block_size == 0 || config.block_size > CHUNK_SIZE {
        return Err(ScenarioError::BlockSizeOutOfRange {
            block_size: config.block_size,
        });
    }
    if config.sessions == 0 {
        return Err(ScenarioError::NoSessions);
    }
    if u64::from(config.sessions) * u64::from(QUEUE_DEPTH) > TOTAL_CHUNKS {
        return Err(ScenarioError::PoolExhausted {
            sessions: config.sessions,
        });
    }
    Ok(())
}

/// Runs the storage benchmark.
///
/// # Errors
///
/// Returns [`ScenarioError::Mem`] with the pinning failure when the
/// pinned configuration does not fit in memory — the paper's "fails to
/// load the tgt service" outcome below 5 GB — and a typed error for a
/// configuration the target cannot serve: a block larger than a chunk
/// or empty, no sessions, more reads in flight than the pool has
/// chunks, or a cluster the InfiniBand builder rejects.
pub fn run_storage(config: StorageBedConfig) -> Result<StorageBedResult, ScenarioError> {
    validate(&config)?;
    let mut cluster = IbScenario::from_config(IbConfig {
        nodes: 2,
        node_memory: config.target_memory,
        seed: SEED,
        npf: config.npf,
        disk: config.disk,
        tier: config.tier,
        ..IbConfig::default()
    })
    .build()?;

    // OS + daemon baseline: pinned, unreclaimable.
    {
        let node = cluster.node_mut(0);
        let space = node.space();
        let range =
            node.engine_mut()
                .memory_mut()
                .mmap(space, config.reserved, Backing::Anonymous)?;
        node.engine_mut().memory_mut().pin_range(space, range)?;
    }

    // Communication chunk pool.
    let mut target = StorageTarget::default();
    let pool = PageRange::new(COMM_BASE.vpn(), COMM_POOL.pages());
    {
        let node = cluster.node_mut(0);
        let space = node.space();
        node.engine_mut()
            .memory_mut()
            .mmap_fixed(space, pool, Backing::Anonymous)?;
    }
    let (q_target, _q_init) = cluster.connect_shared(0, 1);
    if !config.odp {
        // tgt baseline: the entire pool pinned up front. The daemon
        // needs headroom beyond the pool; without it the service fails
        // to load (the paper's <5 GB outcome).
        let free_after = config
            .target_memory
            .saturating_sub(config.reserved)
            .saturating_sub(COMM_POOL);
        if free_after < config.pinned_headroom {
            return Err(MemError::OutOfMemory.into());
        }
        let domain = cluster.node(0).default_domain();
        cluster.node_mut(0).engine_mut().pin_and_map(domain, pool)?;
    }

    // Initiator-side landing buffers: pinned (unmodified initiator).
    let init_buf = cluster.alloc_buffers(1, ByteSize::bytes_exact(config.block_size * 64));
    let init_domain = cluster.node(1).default_domain();
    cluster.node_mut(1).engine_mut().pin_and_map(
        init_domain,
        PageRange::covering(init_buf, config.block_size * 64),
    )?;

    if config.warm_cache {
        // Fill the cache to its steady-state content: one sequential
        // pass over the LUN (LRU keeps the tail up to capacity). Wall
        // time only; the simulated clock does not advance.
        let node = cluster.node_mut(0);
        let pages = LUN_SIZE.bytes() / memsim::PAGE_SIZE;
        let chunk = 1024;
        let mut p = 0;
        while p < pages {
            let n = chunk.min(pages - p);
            let _ = node
                .engine_mut()
                .memory_mut()
                .read_file_block(LUN_FILE, p, n);
            p += n;
        }
    }

    let mut fio = FioClient::new(config.block_size, SimRng::new(SEED ^ 0xf10));

    // The single disk serializes.
    let mut disk_free = SimTime::ZERO;
    let mut chunk_of_wr: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut issued = 0u64;
    let mut completed = 0u64;
    let mut outstanding = 0u32;
    let start = cluster.now();
    let depth = QUEUE_DEPTH * config.sessions;

    let issue = |cluster: &mut IbCluster,
                 target: &mut StorageTarget,
                 fio: &mut FioClient,
                 disk_free: &mut SimTime,
                 chunk_of_wr: &mut std::collections::HashMap<u64, u64>,
                 issued: &mut u64| {
        let (offset, len) = fio.next_read();
        let plan = target.plan_read(offset, len);
        chunk_of_wr.insert(*issued, plan.chunk);
        let now = cluster.now();
        // Page-cache read (single disk serializes misses).
        let node = cluster.node_mut(0);
        let read = node
            .engine_mut()
            .memory_mut()
            .read_file_block(LUN_FILE, plan.first_page, plan.pages)
            .expect("LUN read");
        let mut delay = plan.cpu;
        if !read.hit {
            let io_start = (*disk_free).max(now);
            let io_end = io_start + read.cost;
            *disk_free = io_end;
            delay += io_end.saturating_since(now);
        }
        // Stage the payload into the communication chunk (CPU copy;
        // demand-allocates chunk pages under ODP).
        let space = node.space();
        let touch = node
            .engine_mut()
            .touch_range(space, plan.comm_buffer, plan.touch_len, true)
            .expect("comm buffer touch");
        delay += touch + COST.memcpy(plan.touch_len);
        // RDMA-write the block to the initiator.
        let remote = VirtAddr(init_buf.0 + (*issued % 64) * config.block_size);
        cluster.post_send_after(
            delay,
            0,
            q_target,
            *issued,
            SendOp::Write {
                local: plan.comm_buffer,
                remote,
                len: plan.touch_len,
            },
        );
        *issued += 1;
    };

    while completed < config.total_ios {
        while outstanding < depth && issued < config.total_ios {
            issue(
                &mut cluster,
                &mut target,
                &mut fio,
                &mut disk_free,
                &mut chunk_of_wr,
                &mut issued,
            );
            outstanding += 1;
        }
        // Wait for at least one write completion at the target.
        let written = |c: &IbCluster| c.completions(0).iter().any(|c| c.opcode == WcOpcode::Write);
        assert!(
            cluster.run_until(written, u64::MAX),
            "storage bed deadlocked"
        );
        let comps = cluster.drain_completions(0);
        let mut n = 0u32;
        for c in &comps {
            if c.opcode == WcOpcode::Write {
                n += 1;
                if let Some(chunk) = chunk_of_wr.remove(&c.wr_id) {
                    target.release_chunk(chunk);
                }
            }
        }
        outstanding -= n;
        completed += u64::from(n);
    }

    let elapsed = cluster.now().saturating_since(start);
    let bytes = completed * config.block_size;
    let node = cluster.node(0);
    let space = node.space();
    Ok(StorageBedResult {
        bandwidth_gb_s: bytes as f64 / 1e9 / elapsed.as_secs_f64().max(1e-12),
        resident: node
            .engine()
            .memory()
            .resident_bytes(space)
            .unwrap_or(ByteSize::ZERO),
        pinned: node
            .engine()
            .memory()
            .pinned_bytes(space)
            .unwrap_or(ByteSize::ZERO),
        cache_hit_ratio: node.engine().memory().cache_hit_ratio(),
        npf_events: node.engine().counters().get("npf_events"),
        elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(memory_gib: u64, odp: bool) -> Result<StorageBedResult, ScenarioError> {
        run_storage(StorageBedConfig {
            target_memory: ByteSize::gib(memory_gib),
            reserved: ByteSize::mib(900),
            total_ios: 2500,
            odp,
            pinned_headroom: ByteSize::ZERO,
            ..StorageBedConfig::default()
        })
    }

    #[test]
    fn odp_runs_in_low_memory_where_pinning_fails() {
        let cfg = |odp| StorageBedConfig {
            target_memory: ByteSize::gib(1),
            reserved: ByteSize::mib(900),
            total_ios: 50,
            odp,
            pinned_headroom: ByteSize::mib(256),
            sessions: 4,
            ..StorageBedConfig::default()
        };
        // The 1 GiB pool pinned on top of 900 MiB reserved in a 1 GiB
        // host leaves no headroom: fails.
        let r = run_storage(cfg(false));
        assert_eq!(r.err(), Some(ScenarioError::Mem(MemError::OutOfMemory)));
        // ODP backs only the 4 x 16 chunks in flight.
        let r = run_storage(cfg(true));
        assert!(r.is_ok(), "ODP must run: {r:?}");
    }

    #[test]
    fn more_memory_means_more_bandwidth() {
        // 1 GiB host: ~124 MiB of cache for the 4 GiB LUN; 2 GiB host:
        // ~1.1 GiB, enough to keep every block read so far.
        let small = quick(1, true).expect("small run");
        let large = quick(2, true).expect("large run");
        assert!(
            large.bandwidth_gb_s > small.bandwidth_gb_s,
            "cache economics: {} vs {}",
            large.bandwidth_gb_s,
            small.bandwidth_gb_s
        );
        assert!(large.cache_hit_ratio > small.cache_hit_ratio);
    }

    #[test]
    fn odp_beats_pinned_at_equal_memory() {
        // The pinned pool steals page-cache memory; with 64 KB reads
        // into 512 KB chunks, ODP backs only the touched eighth of the
        // chunks in flight, leaving far more cache.
        let cfg = |odp| StorageBedConfig {
            target_memory: ByteSize::mib(1536),
            reserved: ByteSize::mib(64),
            total_ios: 3000,
            odp,
            pinned_headroom: ByteSize::ZERO,
            block_size: 64 * 1024,
            sessions: 8,
            warm_cache: true,
            ..StorageBedConfig::default()
        };
        let pinned = run_storage(cfg(false)).expect("pinned run");
        let odp = run_storage(cfg(true)).expect("odp run");
        assert!(
            odp.bandwidth_gb_s > pinned.bandwidth_gb_s,
            "odp {} vs pinned {}",
            odp.bandwidth_gb_s,
            pinned.bandwidth_gb_s
        );
        assert!(odp.pinned < pinned.pinned);
    }

    #[test]
    fn small_blocks_leave_chunks_unbacked() {
        // 64 KB reads into 512 KB chunks: ODP backs only what is
        // touched.
        let run = |block_size| StorageBedConfig {
            block_size,
            total_ios: 300,
            odp: true,
            target_memory: ByteSize::gib(6),
            ..StorageBedConfig::default()
        };
        let small_blocks = run_storage(run(64 * 1024)).expect("64k run");
        let large_blocks = run_storage(run(512 * 1024)).expect("512k run");
        // Figure 8(b): memory usage with 64 KB blocks is far below the
        // 512 KB configuration. The page cache is not in `resident`, so
        // resident reflects touched chunk pages.
        assert!(small_blocks.resident < large_blocks.resident);
    }

    #[test]
    fn unservable_configs_are_typed_errors() {
        // Enough reads to exhaust the pool if the run started.
        let run = |block_size, sessions| {
            run_storage(StorageBedConfig {
                block_size,
                sessions,
                total_ios: 4096,
                ..StorageBedConfig::default()
            })
            .err()
        };
        let too_big = CHUNK_SIZE + 4096;
        assert_eq!(
            run(too_big, 1),
            Some(ScenarioError::BlockSizeOutOfRange {
                block_size: too_big
            })
        );
        assert_eq!(
            run(0, 1),
            Some(ScenarioError::BlockSizeOutOfRange { block_size: 0 })
        );
        assert_eq!(run(64 * 1024, 0), Some(ScenarioError::NoSessions));
        assert_eq!(
            run(64 * 1024, 129),
            Some(ScenarioError::PoolExhausted { sessions: 129 })
        );
        let rejected = run_storage(StorageBedConfig {
            npf: NpfConfig::default().with_arbiter(npf_core::ArbiterPolicy::RoundRobin),
            ..StorageBedConfig::default()
        });
        assert_eq!(rejected.err(), Some(ScenarioError::ArbiterWithoutSlots));
        // 128 sessions x 16 reads fill the pool exactly.
        let full = run_storage(StorageBedConfig {
            block_size: 64 * 1024,
            sessions: 128,
            total_ios: 10,
            ..StorageBedConfig::default()
        });
        assert!(full.is_ok(), "{full:?}");
    }
}
