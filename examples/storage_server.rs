//! An iSER storage target with on-demand-paged communication buffers
//! (§6.1 "Storage", Figure 8).
//!
//! The tgt-like target statically allocates a 1 GB pool of 512 KB
//! per-transaction chunks. Pinned, that pool starves the page cache;
//! under ODP only the chunks actually in flight are backed by frames.
//!
//! Run with: `cargo run --release --example storage_server`

use simcore::ByteSize;
use testbed::storage_bed::{run_storage, StorageBedConfig};

fn main() {
    let cfg = |odp: bool, block: u64| StorageBedConfig {
        target_memory: ByteSize::gib(6),
        reserved: ByteSize::mib(900),
        block_size: block,
        sessions: 8,
        total_ios: 2000,
        odp,
        pinned_headroom: ByteSize::ZERO,
        warm_cache: true,
        ..StorageBedConfig::default()
    };

    println!("tgt-like target, 4 GB LUN, 1 GiB chunk pool, 8 initiator sessions, 6 GB host\n");
    for (label, odp, block) in [
        ("pinned pool, 512 KB reads", false, 512 * 1024u64),
        ("ODP pool,    512 KB reads", true, 512 * 1024),
        ("ODP pool,     64 KB reads", true, 64 * 1024),
    ] {
        match run_storage(cfg(odp, block)) {
            Ok(res) => println!(
                "{label}: {:.2} GB/s, daemon resident {}, pinned {}, cache hit {:.0}%, {} NPFs",
                res.bandwidth_gb_s,
                res.resident,
                res.pinned,
                res.cache_hit_ratio * 100.0,
                res.npf_events,
            ),
            Err(e) => println!("{label}: failed to load ({e})"),
        }
    }
    println!("\nODP backs only in-flight chunks; with 64 KB reads, 7/8 of every chunk");
    println!("is never touched and never consumes a frame (Figure 8b)");
}
