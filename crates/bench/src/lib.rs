//! # npf-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | module | experiments |
//! |---|---|
//! | [`micro`] | Figure 3 (NPF/invalidation breakdown), Table 4 (tails) |
//! | [`eth_experiments`] | Figure 4 (cold ring), Table 5 (overcommit), Figure 7 (working sets) |
//! | [`ib_experiments`] | Figure 8 (storage), Figure 9 (IMB), Table 6 (beff), Figure 10 (what-if) |
//! | [`ablations`] | §4 optimization ablations, §2.2 pinning continuum |
//!
//! Each experiment returns a [`report::Report`]; the `bin/` targets
//! print them, and `bin/all_experiments` emits the full document used
//! for `EXPERIMENTS.md`.

pub mod ablations;
pub mod backends;
pub mod eth_experiments;
pub mod ib_experiments;
pub mod lossy;
pub mod micro;
pub mod report;
pub mod scale;
pub mod tracectl;
pub mod whyslow;

pub use report::Report;
pub use tracectl::{RunCtx, RunOpts};
