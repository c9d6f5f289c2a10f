//! Property-based tests over the core invariants.
//!
//! These check the properties the paper's mechanisms *guarantee*:
//! in-order delivery across arbitrary fault patterns (backup ring),
//! frame-accounting conservation under arbitrary touch sequences, exact
//! reassembly under arbitrary segment arrival orders, and LRU
//! consistency.

use proptest::prelude::*;

use memsim::manager::{MemConfig, MemoryManager};
use memsim::space::Backing;
use memsim::types::{VirtAddr, Vpn};
use nicsim::rx::{RingId, RxDescriptor, RxEngine, RxFaultMode, RxVerdict};
use simcore::units::ByteSize;

const R: RingId = RingId(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The backup ring preserves in-order delivery for every pattern of
    /// faults and every resolution order.
    #[test]
    fn backup_ring_delivers_in_order(
        faults in proptest::collection::vec(any::<bool>(), 1..100),
        resolve_order in proptest::collection::vec(any::<u16>(), 100),
    ) {
        let mut rx: RxEngine<u64> = RxEngine::new(RxFaultMode::BackupRing { capacity: 512 });
        rx.create_ring(R, 128, 256);
        for i in 0..128u64 {
            rx.post_descriptor(R, RxDescriptor { addr: VirtAddr(0x1000 * i), capacity: 4096 });
        }
        let mut pending = Vec::new();
        for (seq, &faulting) in faults.iter().enumerate() {
            let seq = seq as u64;
            match rx.recv(R, seq, 100, !faulting) {
                RxVerdict::Backup { bit_index, target_index, .. } => {
                    pending.push((bit_index, target_index));
                }
                RxVerdict::Stored { .. } => {}
                RxVerdict::Dropped { .. } => prop_assert!(false, "nothing should drop"),
            }
        }
        // Resolve in an arbitrary permutation; delivery order must not
        // change.
        let mut entries = Vec::new();
        while let Some(e) = rx.pop_backup() {
            entries.push(e);
        }
        // Sort by the random keys to get an arbitrary permutation.
        let mut keyed: Vec<(u16, _)> = entries
            .into_iter()
            .enumerate()
            .map(|(i, e)| (resolve_order.get(i).copied().unwrap_or(0), e))
            .collect();
        keyed.sort_by_key(|&(k, _)| k);
        let entries: Vec<_> = keyed.into_iter().map(|(_, e)| e).collect();
        for e in entries {
            prop_assert!(rx.place_resolved(R, e.target_index, e.payload, e.len));
            rx.resolve_rnpfs(R, e.bit_index);
        }
        let mut delivered = Vec::new();
        while let Some((p, _)) = rx.consume(R) {
            delivered.push(p);
        }
        let expected: Vec<u64> = (0..faults.len() as u64).collect();
        prop_assert_eq!(delivered, expected);
    }

    /// Frame accounting never leaks: allocated = sum of resident pages
    /// plus page-cache pages, under any interleaving of touches.
    #[test]
    fn frame_accounting_conserved(
        ops in proptest::collection::vec((0u64..64, any::<bool>()), 1..200),
    ) {
        let mut mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::kib(64), // 16 frames: heavy pressure
            ..MemConfig::default()
        });
        let space = mm.create_space();
        let range = mm.mmap(space, ByteSize::kib(256), Backing::Anonymous).unwrap();
        for (page, write) in ops {
            let vpn = Vpn(range.start.0 + page);
            mm.touch(space, vpn, write).unwrap();
            let resident = mm.space(space).unwrap().resident_pages();
            let free = mm.free_frames();
            let cached = mm.cache_pages();
            prop_assert_eq!(resident + free + cached, mm.total_frames());
            prop_assert!(resident <= mm.total_frames());
        }
    }

    /// A touched page is always resident immediately afterwards, and
    /// re-touching is free.
    #[test]
    fn touch_makes_resident(pages in proptest::collection::vec(0u64..32, 1..64)) {
        let mut mm = MemoryManager::new(MemConfig {
            total_memory: ByteSize::mib(1),
            ..MemConfig::default()
        });
        let space = mm.create_space();
        let range = mm.mmap(space, ByteSize::kib(128), Backing::Anonymous).unwrap();
        for page in pages {
            let vpn = Vpn(range.start.0 + page);
            mm.touch(space, vpn, true).unwrap();
            prop_assert!(mm.space(space).unwrap().is_resident(vpn));
            let again = mm.touch(space, vpn, false).unwrap();
            prop_assert!(again.fault.is_none(), "second touch must not fault");
        }
    }

    /// TCP reassembly: any arrival order of segments yields the exact
    /// byte count, exactly once.
    #[test]
    fn tcp_reassembles_any_order(order in proptest::collection::vec(0usize..8, 16)) {
        use simcore::SimTime;
        use tcpsim::{TcpConfig, TcpConnection, TcpOutput};

        let mut client = TcpConnection::new(TcpConfig::linux(), 1, 2);
        let mut server = TcpConnection::new(TcpConfig::lwip(), 2, 1);
        server.listen();
        // Handshake.
        let mut wire: Vec<_> = client.connect(SimTime::ZERO).into_iter().filter_map(|o| match o {
            TcpOutput::Send(s) => Some(s),
            _ => None,
        }).collect();
        for _ in 0..6 {
            let mut next = Vec::new();
            for seg in wire.drain(..) {
                let outs = if seg.dst_port == 2 {
                    server.on_segment(SimTime::ZERO, seg, false)
                } else {
                    client.on_segment(SimTime::ZERO, seg, false)
                };
                next.extend(outs.into_iter().filter_map(|o| match o {
                    TcpOutput::Send(s) => Some(s),
                    _ => None,
                }));
            }
            wire = next;
        }
        // 8 segments of data (inside the initial window); deliver in an
        // arbitrary (possibly duplicated) order, then deliver any
        // stragglers.
        let mss = tcpsim::types::MSS;
        let segs: Vec<_> = client.write(SimTime::ZERO, 8 * mss).into_iter().filter_map(|o| match o {
            TcpOutput::Send(s) => Some(s),
            _ => None,
        }).collect();
        prop_assert_eq!(segs.len(), 8);
        let mut delivered = std::collections::HashSet::new();
        for &i in &order {
            server.on_segment(SimTime::ZERO, segs[i], false);
            delivered.insert(i);
        }
        for (i, seg) in segs.iter().enumerate() {
            if !delivered.contains(&i) {
                server.on_segment(SimTime::ZERO, *seg, false);
            }
        }
        prop_assert_eq!(server.readable_bytes(), 8 * mss);
        prop_assert_eq!(server.delivered_bytes(), 8 * mss);
    }
}
