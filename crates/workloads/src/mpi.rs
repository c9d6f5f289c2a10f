//! MPI collective schedules (§6.2, Figure 9 / Table 6).
//!
//! Each collective is compiled into rounds of point-to-point transfers;
//! the testbed executes one round at a time over RC QPs (all transfers
//! of a round proceed in parallel, rounds synchronize — the standard
//! way MPI libraries schedule collectives).
//!
//! The IMB "off_cache" mode is modelled by rotating through a pool of
//! send/receive buffers so that each iteration touches different pages —
//! this is what forces pin-down caches to register many buffers and ODP
//! to fault on first touch.

/// One point-to-point transfer inside a collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Synchronization round this transfer belongs to.
    pub round: u32,
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Bytes moved.
    pub bytes: u64,
}

/// The collectives the paper benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collective {
    /// IMB `sendrecv`: a ring where every rank sends to its right
    /// neighbour and receives from its left, simultaneously.
    SendRecv,
    /// IMB `bcast`: binomial tree from rank 0.
    Bcast,
    /// IMB `alltoall`: every rank sends a distinct block to every other
    /// rank, in `n-1` balanced rounds.
    AllToAll,
    /// IMB `allreduce`: recursive doubling; each round exchanges the
    /// full vector and reduces on the CPU.
    AllReduce,
}

impl Collective {
    /// Human-readable name matching the IMB benchmark.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Collective::SendRecv => "sendrecv",
            Collective::Bcast => "bcast",
            Collective::AllToAll => "alltoall",
            Collective::AllReduce => "allreduce",
        }
    }

    /// `true` when the collective reduces on the CPU (forcing the data
    /// through the cache, which is why allreduce shows little benefit
    /// from zero copy — §6.2).
    #[must_use]
    pub fn reduces_on_cpu(self) -> bool {
        matches!(self, Collective::AllReduce)
    }

    /// Compiles the schedule for `ranks` ranks moving `bytes` per rank.
    ///
    /// # Panics
    ///
    /// Panics when `ranks < 2`.
    #[must_use]
    pub fn schedule(self, ranks: u32, bytes: u64) -> Vec<Transfer> {
        assert!(ranks >= 2, "collectives need at least two ranks");
        match self {
            Collective::SendRecv => (0..ranks)
                .map(|r| Transfer {
                    round: 0,
                    src: r,
                    dst: (r + 1) % ranks,
                    bytes,
                })
                .collect(),
            Collective::Bcast => {
                // Binomial tree: in round k, ranks < 2^k forward to
                // rank + 2^k.
                let mut out = Vec::new();
                let mut round = 0;
                let mut reach = 1;
                while reach < ranks {
                    for src in 0..reach.min(ranks) {
                        let dst = src + reach;
                        if dst < ranks {
                            out.push(Transfer {
                                round,
                                src,
                                dst,
                                bytes,
                            });
                        }
                    }
                    reach *= 2;
                    round += 1;
                }
                out
            }
            Collective::AllToAll => {
                // Balanced pairwise rounds: in round k, rank r exchanges
                // a block with rank r XOR k (power-of-two ranks) or the
                // rotation (r + k) % n otherwise.
                let mut out = Vec::new();
                let per_peer = bytes / u64::from(ranks.max(1));
                for k in 1..ranks {
                    for r in 0..ranks {
                        let dst = (r + k) % ranks;
                        out.push(Transfer {
                            round: k - 1,
                            src: r,
                            dst,
                            bytes: per_peer.max(1),
                        });
                    }
                }
                out
            }
            Collective::AllReduce => {
                // Recursive doubling over the next power of two; ranks
                // beyond it fold into partners first (simplified:
                // schedule only the power-of-two core when not exact).
                let mut out = Vec::new();
                let p = ranks.next_power_of_two().min(ranks);
                let core = if p == ranks { ranks } else { ranks / 2 * 2 };
                let mut stride = 1;
                let mut round = 0;
                while stride < core {
                    for r in 0..core {
                        let partner = r ^ stride;
                        if partner < core && r < partner {
                            // Both directions exchange simultaneously.
                            out.push(Transfer {
                                round,
                                src: r,
                                dst: partner,
                                bytes,
                            });
                            out.push(Transfer {
                                round,
                                src: partner,
                                dst: r,
                                bytes,
                            });
                        }
                    }
                    stride *= 2;
                    round += 1;
                }
                out
            }
        }
    }

    /// Number of synchronization rounds in the schedule.
    #[must_use]
    pub fn rounds(self, ranks: u32) -> u32 {
        self.schedule(ranks, 1)
            .iter()
            .map(|t| t.round + 1)
            .max()
            .unwrap_or(0)
    }
}

/// Buffer rotation for IMB `off_cache` mode.
#[derive(Debug, Clone)]
pub struct BufferPool {
    /// Base of the pool in the rank's address space.
    pub base: u64,
    /// Size of one buffer (= message size, page aligned up).
    pub buffer_stride: u64,
    /// Number of buffers rotated through.
    pub buffers: u64,
    cursor: u64,
}

impl BufferPool {
    /// A pool of `buffers` buffers of `message_bytes` each.
    #[must_use]
    pub fn new(base: u64, message_bytes: u64, buffers: u64) -> Self {
        let stride = message_bytes.div_ceil(memsim::PAGE_SIZE) * memsim::PAGE_SIZE;
        BufferPool {
            base,
            buffer_stride: stride.max(memsim::PAGE_SIZE),
            buffers: buffers.max(1),
            cursor: 0,
        }
    }

    /// The next buffer address (rotating).
    pub fn next_buffer(&mut self) -> u64 {
        let addr = self.base + (self.cursor % self.buffers) * self.buffer_stride;
        self.cursor += 1;
        addr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sendrecv_is_a_ring() {
        let s = Collective::SendRecv.schedule(4, 1000);
        assert_eq!(s.len(), 4);
        assert!(s.iter().all(|t| t.dst == (t.src + 1) % 4));
        assert_eq!(Collective::SendRecv.rounds(4), 1);
    }

    #[test]
    fn bcast_tree_reaches_everyone_once() {
        let s = Collective::Bcast.schedule(8, 1000);
        // 7 transfers reach 7 non-root ranks.
        assert_eq!(s.len(), 7);
        let mut reached = [false; 8];
        reached[0] = true;
        let mut by_round = s.clone();
        by_round.sort_by_key(|t| t.round);
        for t in by_round {
            assert!(reached[t.src as usize], "src must already hold the data");
            assert!(!reached[t.dst as usize], "no duplicate delivery");
            reached[t.dst as usize] = true;
        }
        assert!(reached.iter().all(|&r| r));
        assert_eq!(Collective::Bcast.rounds(8), 3, "log2(8) rounds");
    }

    #[test]
    fn bcast_handles_non_power_of_two() {
        let s = Collective::Bcast.schedule(6, 1);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn alltoall_exchanges_all_pairs() {
        let s = Collective::AllToAll.schedule(4, 4000);
        assert_eq!(s.len(), 12, "4 ranks x 3 peers");
        for t in &s {
            assert_ne!(t.src, t.dst);
            assert_eq!(t.bytes, 1000, "per-peer block");
        }
        assert_eq!(Collective::AllToAll.rounds(4), 3);
    }

    #[test]
    fn allreduce_is_symmetric_log_rounds() {
        let s = Collective::AllReduce.schedule(8, 1000);
        assert_eq!(Collective::AllReduce.rounds(8), 3);
        // Every rank sends exactly once per round.
        for round in 0..3 {
            let mut senders: Vec<u32> = s
                .iter()
                .filter(|t| t.round == round)
                .map(|t| t.src)
                .collect();
            senders.sort_unstable();
            assert_eq!(senders, (0..8).collect::<Vec<_>>());
        }
        assert!(Collective::AllReduce.reduces_on_cpu());
    }

    #[test]
    fn buffer_pool_rotates_and_wraps() {
        let mut p = BufferPool::new(0x1000_0000, 10_000, 4);
        let a = p.next_buffer();
        let b = p.next_buffer();
        assert_ne!(a, b);
        assert_eq!(b - a, 12288, "10 KB rounds up to 3 pages");
        p.next_buffer();
        p.next_buffer();
        assert_eq!(p.next_buffer(), a, "wraps after 4");
    }
}
