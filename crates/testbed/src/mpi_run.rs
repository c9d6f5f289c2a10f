//! MPI collective execution over the InfiniBand cluster (§6.2,
//! Figure 9 / Table 6).
//!
//! Executes a [`Collective`] schedule round by round: receives are
//! posted first, sends are delayed by the registration strategy's
//! preparation cost (pinning, cache lookups, or copying), and a round
//! barrier waits for every completion. The same runner executes every
//! strategy, so differences in runtime come only from registration
//! economics and page faults.

use std::collections::HashMap;

use memsim::types::VirtAddr;
use npf_core::pinning::{Registrar, Strategy};
use rdmasim::types::{QpId, SendOp, WcOpcode};
use simcore::time::SimDuration;
use simcore::units::ByteSize;
use workloads::mpi::{BufferPool, Collective};

use crate::builder::ScenarioBuilder;
use crate::ib::IbCluster;

/// Unmeasured warm-up iterations before the measured ones: buffers
/// become hot / registered, as in a long IMB run's steady state.
const WARMUP_ITERATIONS: u32 = 18;

/// Buffers rotated per rank (IMB `off_cache`: fresh buffers each
/// iteration until the rotation wraps).
const OFF_CACHE_BUFFERS: u64 = 16;

/// Configuration of one collective run.
#[derive(Debug, Clone, Copy)]
pub struct MpiRunConfig {
    /// Ranks (= cluster nodes).
    pub ranks: u32,
    /// Message bytes per rank.
    pub message_bytes: u64,
    /// Measured iterations (IMB style), after 18 unmeasured warm-up
    /// iterations.
    pub iterations: u32,
    /// Registration strategy under test.
    pub strategy: Strategy,
    /// The collective.
    pub collective: Collective,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MpiRunConfig {
    fn default() -> Self {
        MpiRunConfig {
            ranks: 8,
            message_bytes: 64 * 1024,
            iterations: 10,
            strategy: Strategy::Odp,
            collective: Collective::SendRecv,
            seed: 1,
        }
    }
}

/// Result of a collective run.
#[derive(Debug, Clone, Copy)]
pub struct MpiRunResult {
    /// Total simulated time.
    pub total: SimDuration,
    /// Mean time per iteration.
    pub per_iteration: SimDuration,
    /// NPF events across all nodes.
    pub npf_events: u64,
    /// Bytes moved end-to-end (payload).
    pub bytes_moved: u64,
}

/// Executes one collective benchmark.
///
/// # Panics
///
/// Panics if the cluster deadlocks (event budget exhausted) — a bug,
/// not a measurement.
pub fn run_collective(config: MpiRunConfig) -> MpiRunResult {
    let mut cluster = ScenarioBuilder::infiniband()
        .nodes(config.ranks)
        .seed(config.seed)
        .build()
        .unwrap_or_else(|e| panic!("invalid collective run: {e}"));

    // Connect every (src, dst) pair the schedule uses, sharing each
    // node's protection domain.
    let schedule = config
        .collective
        .schedule(config.ranks, config.message_bytes);
    let mut qps: HashMap<(u32, u32), (QpId, QpId)> = HashMap::new();
    for t in &schedule {
        qps.entry((t.src, t.dst))
            .or_insert_with(|| cluster.connect_shared(t.src, t.dst));
    }

    // Per-rank buffer pools (send + recv halves) and registrars.
    let mut send_pools = Vec::new();
    let mut recv_pools = Vec::new();
    let mut registrars = Vec::new();
    for r in 0..config.ranks {
        let pool_bytes = ByteSize::bytes_exact(
            (config.message_bytes.div_ceil(memsim::PAGE_SIZE) * memsim::PAGE_SIZE)
                * OFF_CACHE_BUFFERS
                * 2,
        );
        let base = cluster.alloc_buffers(r, pool_bytes);
        let half = pool_bytes.bytes() / 2;
        send_pools.push(BufferPool::new(
            base.0,
            config.message_bytes,
            OFF_CACHE_BUFFERS,
        ));
        recv_pools.push(BufferPool::new(
            base.0 + half,
            config.message_bytes,
            OFF_CACHE_BUFFERS,
        ));
        let domain = cluster.node(r).default_domain();
        registrars.push(Registrar::new(config.strategy, domain));
    }

    let mut start = cluster.now();
    let mut bytes_moved = 0u64;
    let rounds = config.collective.rounds(config.ranks);
    // CPU-side reduction bandwidth for allreduce (data must cross the
    // CPU caches, §6.2).
    let reduce_bw_bytes_per_sec: f64 = 3.0e9;
    let mut wr_id = 0u64;

    for iter in 0..WARMUP_ITERATIONS + config.iterations {
        if iter == WARMUP_ITERATIONS {
            start = cluster.now();
            bytes_moved = 0;
        }
        for round in 0..rounds {
            let transfers: Vec<_> = schedule.iter().filter(|t| t.round == round).collect();
            let mut expected_sends: HashMap<u32, usize> = HashMap::new();
            let mut expected_recvs: HashMap<u32, usize> = HashMap::new();

            let mut finishes: Vec<(u32, VirtAddr, u64)> = Vec::new();
            for t in &transfers {
                let (q_src, q_dst) = qps[&(t.src, t.dst)];
                let recv_addr = VirtAddr(recv_pools[t.dst as usize].next_buffer());
                let send_addr = VirtAddr(send_pools[t.src as usize].next_buffer());
                finishes.push((t.src, send_addr, t.bytes));
                finishes.push((t.dst, recv_addr, t.bytes));

                // Receive side preparation (pinning strategies must make
                // the receive buffer DMA-able too).
                let dst_prep = registrars[t.dst as usize]
                    .prepare_transfer(cluster.node_mut(t.dst).engine_mut(), recv_addr, t.bytes)
                    .expect("recv prepare");
                cluster.post_recv(t.dst, q_dst, wr_id, recv_addr, t.bytes.max(1));

                // Send side preparation.
                let src_prep = registrars[t.src as usize]
                    .prepare_transfer(cluster.node_mut(t.src).engine_mut(), send_addr, t.bytes)
                    .expect("send prepare");

                cluster.post_send_after(
                    src_prep + dst_prep,
                    t.src,
                    q_src,
                    wr_id,
                    SendOp::Send {
                        local: send_addr,
                        len: t.bytes,
                    },
                );
                wr_id += 1;
                bytes_moved += t.bytes;
                *expected_sends.entry(t.src).or_default() += 1;
                *expected_recvs.entry(t.dst).or_default() += 1;
            }

            // Round barrier: wait for all completions.
            let arrived = |c: &IbCluster, expected: &HashMap<u32, usize>, opcode| {
                expected.iter().all(|(&n, &want)| {
                    let done = c.completions(n).iter().filter(|c| c.opcode == opcode);
                    done.count() >= want
                })
            };
            let round_done = |c: &IbCluster| {
                arrived(c, &expected_sends, WcOpcode::Send)
                    && arrived(c, &expected_recvs, WcOpcode::Recv)
            };
            assert!(
                cluster.run_until(round_done, 50_000_000),
                "cluster deadlocked mid-round or event budget exhausted"
            );

            // Post-round cleanup: fine-grained unpinning / copy-out, and
            // the allreduce CPU reduction.
            let mut max_finish = SimDuration::ZERO;
            for t in &transfers {
                let finish_dst = registrars[t.dst as usize]
                    .finish_transfer(cluster.node_mut(t.dst).engine_mut(), VirtAddr(0), 0, false)
                    .expect("noop finish");
                max_finish = max_finish.max(finish_dst);
            }
            if config.collective.reduces_on_cpu()
                && config.strategy != npf_core::pinning::Strategy::Copy
            {
                // Zero-copy strategies pay the CPU reduction separately;
                // the Copy strategy's bounce copies already stream the
                // data through the CPU (which is why the paper sees
                // little difference for allreduce).
                let reduce = SimDuration::from_secs_f64(
                    config.message_bytes as f64 / reduce_bw_bytes_per_sec,
                );
                max_finish = max_finish.max(reduce);
            }
            for (n, _) in expected_sends.iter().chain(expected_recvs.iter()) {
                cluster.drain_completions(*n);
            }
            // Advance the barrier by the finish costs: a sentinel no-op
            // event keeps the clock honest.
            if !max_finish.is_zero() {
                let target = cluster.now() + max_finish;
                cluster.run_idle_until(target);
            }
        }
    }

    let total = cluster.now().saturating_since(start);
    let npf_events = (0..config.ranks)
        .map(|n| cluster.node(n).engine().counters().get("npf_events"))
        .sum();
    MpiRunResult {
        total,
        per_iteration: total / u64::from(config.iterations.max(1)),
        npf_events,
        bytes_moved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(strategy: Strategy, collective: Collective) -> MpiRunResult {
        run_collective(MpiRunConfig {
            ranks: 4,
            message_bytes: 64 * 1024,
            iterations: 4,
            strategy,
            collective,
            seed: 3,
        })
    }

    #[test]
    fn all_collectives_complete_under_odp() {
        for c in [
            Collective::SendRecv,
            Collective::Bcast,
            Collective::AllToAll,
            Collective::AllReduce,
        ] {
            let r = quick(Strategy::Odp, c);
            assert!(r.total > SimDuration::ZERO, "{}", c.name());
            assert!(r.bytes_moved > 0, "{}", c.name());
        }
    }

    #[test]
    fn odp_faults_then_stops_faulting() {
        // Once the pool has been cycled, no further faults occur.
        let few_iters = run_collective(MpiRunConfig {
            iterations: 4,
            ranks: 4,
            ..MpiRunConfig::default()
        });
        let many_iters = run_collective(MpiRunConfig {
            iterations: 40,
            ranks: 4,
            ..MpiRunConfig::default()
        });
        assert_eq!(
            few_iters.npf_events, many_iters.npf_events,
            "faults are first-touch only"
        );
    }

    #[test]
    fn copy_is_slower_than_pinning_for_large_messages() {
        let copy = run_collective(MpiRunConfig {
            message_bytes: 128 * 1024,
            strategy: Strategy::Copy,
            ranks: 4,
            iterations: 6,
            ..MpiRunConfig::default()
        });
        let pin = run_collective(MpiRunConfig {
            message_bytes: 128 * 1024,
            strategy: Strategy::PinDownCache {
                capacity: ByteSize::mib(64),
            },
            ranks: 4,
            iterations: 6,
            ..MpiRunConfig::default()
        });
        assert!(
            copy.per_iteration > pin.per_iteration,
            "copy {} vs pin {}",
            copy.per_iteration,
            pin.per_iteration
        );
    }

    #[test]
    fn odp_close_to_pindown_cache() {
        // Steady state (after both have cycled the pool once).
        let odp = run_collective(MpiRunConfig {
            message_bytes: 64 * 1024,
            iterations: 12,
            ranks: 4,
            ..MpiRunConfig::default()
        });
        let pin = run_collective(MpiRunConfig {
            message_bytes: 64 * 1024,
            iterations: 12,
            ranks: 4,
            strategy: Strategy::PinDownCache {
                capacity: ByteSize::mib(64),
            },
            ..MpiRunConfig::default()
        });
        let ratio = odp.per_iteration.as_secs_f64() / pin.per_iteration.as_secs_f64();
        assert!(
            (0.8..1.3).contains(&ratio),
            "ODP should match the pin-down cache in steady state: {ratio:.2}"
        );
    }
}
