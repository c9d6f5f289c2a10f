//! Differential test of [`TcpStack`]'s connection slab against a
//! `BTreeMap<ConnId, TcpConnection>`.
//!
//! The reference is the stack written the obvious way: one ordered map
//! keyed by connection id, probed on every call. The slab names
//! connections by a [`ConnSlot`] resolved once, on the promise that
//! nothing observable changes. Random sequences of connects (a small
//! port space, so ids repeat), inbound segments (listener-spawned
//! accepts, segments for known connections, demux misses) and timer
//! expiries must yield the same effects from both, the same connection
//! behind every id, and — the slab's own contract — a slot handed out
//! once keeps naming its connection for the stack's lifetime, failed
//! or not, whatever happens to its neighbours.

use std::collections::BTreeMap;

use proptest::prelude::*;
use simcore::time::SimTime;
use tcpsim::{
    ConnId, ConnSlot, TcpConfig, TcpConnection, TcpFlags, TcpOutput, TcpSegment, TcpStack,
};

const LISTENING: u16 = 80;
const CLOSED: u16 = 81;

/// Runs one `_into` call against a fresh buffer.
fn collect<R>(call: impl FnOnce(&mut Vec<TcpOutput>) -> R) -> (R, Vec<TcpOutput>) {
    let mut out = Vec::new();
    let result = call(&mut out);
    (result, out)
}

/// A TCP stack with no handles: every call looks the id up.
#[derive(Default)]
struct Reference {
    conns: BTreeMap<ConnId, TcpConnection>,
    listeners: BTreeMap<u16, TcpConfig>,
}

impl Reference {
    fn connect(&mut self, now: SimTime, local: u16, remote: u16) -> Vec<TcpOutput> {
        let mut conn = TcpConnection::new(TcpConfig::linux(), local, remote);
        let outs = conn.connect(now);
        self.conns.insert((local, remote), conn);
        outs
    }

    fn on_segment(&mut self, now: SimTime, seg: TcpSegment) -> Option<(ConnId, Vec<TcpOutput>)> {
        let id = (seg.dst_port, seg.src_port);
        if let Some(conn) = self.conns.get_mut(&id) {
            return Some((id, conn.on_segment(now, seg, false)));
        }
        if seg.flags.syn && !seg.flags.ack {
            if let Some(&config) = self.listeners.get(&seg.dst_port) {
                let mut conn = TcpConnection::new(config, seg.dst_port, seg.src_port);
                conn.listen();
                let outs = conn.on_segment(now, seg, false);
                self.conns.insert(id, conn);
                return Some((id, outs));
            }
        }
        None
    }

    fn on_timer(&mut self, now: SimTime, id: ConnId) -> Vec<TcpOutput> {
        self.conns.get_mut(&id).map_or_else(Vec::new, |conn| {
            collect(|out| conn.on_timer_into(now, out)).1
        })
    }
}

/// The slab agrees with the reference on everything an id can see, and
/// every held slot still names the connection it was handed out for.
fn assert_same_state(
    stack: &TcpStack,
    reference: &Reference,
    held: &BTreeMap<ConnId, ConnSlot>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(stack.len(), reference.conns.len());
    prop_assert_eq!(stack.is_empty(), reference.conns.is_empty());
    prop_assert_eq!(
        held.keys().collect::<Vec<_>>(),
        reference.conns.keys().collect::<Vec<_>>()
    );
    for (&id, expected) in &reference.conns {
        let slot = held[&id];
        prop_assert_eq!(stack.slot_of(id), Some(slot));
        let by_slot = stack.conn_at(slot);
        prop_assert_eq!((by_slot.local_port(), by_slot.remote_port()), id);
        // Every field of the state machine, through its `Debug` form.
        prop_assert_eq!(format!("{by_slot:?}"), format!("{expected:?}"));
    }
    for port in [LISTENING, CLOSED] {
        let absent = (port, 9);
        prop_assert_eq!(stack.slot_of(absent), None);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn slab_matches_ordered_map_reference(
        ops in proptest::collection::vec((0u8..18, any::<u64>(), any::<u64>()), 1..250),
    ) {
        let mut stack = TcpStack::new();
        let mut reference = Reference::default();
        stack.listen(LISTENING, TcpConfig::lwip());
        reference.listeners.insert(LISTENING, TcpConfig::lwip());
        // The slot each connection was handed out under: what a
        // testbed keeps for the stack's lifetime.
        let mut held: BTreeMap<ConnId, ConnSlot> = BTreeMap::new();
        let mut now = SimTime::ZERO;
        for (op, a, b) in ops {
            now += simcore::time::SimDuration::from_millis(a % 3);
            // Ports from a small space, so ids repeat and collide.
            let low_port = 4000 + (a % 6) as u16;
            match op {
                // Active open; reopening a live id replaces it in place.
                0..=3 => {
                    let remote = if b % 4 == 0 { CLOSED } else { LISTENING };
                    let (slot, outs) = collect(|out| {
                        stack.connect_into(now, low_port, remote, TcpConfig::linux(), out)
                    });
                    prop_assert_eq!(outs, reference.connect(now, low_port, remote));
                    if let Some(&before) = held.get(&(low_port, remote)) {
                        prop_assert_eq!(slot, before);
                    }
                    held.insert((low_port, remote), slot);
                }
                // A SYN: accepted on the listening port, a demux miss on
                // the closed one, a duplicate for an accepted peer.
                4..=7 => {
                    let seg = TcpSegment {
                        src_port: low_port,
                        dst_port: if b % 5 == 0 { CLOSED } else { LISTENING },
                        seq: 1,
                        ack: 0,
                        len: 0,
                        window: 65_535,
                        flags: TcpFlags::syn(),
                    };
                    let (got, outs) = collect(|out| stack.on_segment_into(now, seg, out));
                    let expected = reference.on_segment(now, seg);
                    prop_assert_eq!(got.is_some(), expected.is_some());
                    prop_assert!(got.is_some() || outs.is_empty(), "a demux miss has no effects");
                    if let (Some(slot), Some((id, expected_outs))) = (got, expected) {
                        prop_assert_eq!(outs, expected_outs);
                        prop_assert_eq!(*held.entry(id).or_insert(slot), slot);
                    }
                }
                // A segment for (usually) some known connection: the
                // handshake's next step, data or a stray ACK.
                8..=13 => {
                    let ids: Vec<ConnId> = held.keys().copied().collect();
                    let (local, remote) = if ids.is_empty() || b % 7 == 0 {
                        (CLOSED, low_port)
                    } else {
                        ids[(a % ids.len() as u64) as usize]
                    };
                    let flags = match b % 5 {
                        0 => TcpFlags::syn_ack(),
                        _ => TcpFlags::ack(),
                    };
                    let seg = TcpSegment {
                        src_port: remote,
                        dst_port: local,
                        seq: 1 + b % 3,
                        ack: 1 + a % 3,
                        len: (b % 4) * 500,
                        window: 65_535,
                        flags,
                    };
                    let (got, outs) = collect(|out| stack.on_segment_into(now, seg, out));
                    let expected = reference.on_segment(now, seg);
                    prop_assert_eq!(got.is_some(), expected.is_some());
                    prop_assert!(got.is_some() || outs.is_empty(), "a demux miss has no effects");
                    if let (Some(slot), Some((id, expected_outs))) = (got, expected) {
                        prop_assert_eq!(outs, expected_outs);
                        prop_assert_eq!(held.get(&id), Some(&slot));
                    }
                }
                // A retransmission timer fires (SYN retries run out
                // after a few, failing the connection; its slot stays).
                _ => {
                    let ids: Vec<ConnId> = held.keys().copied().collect();
                    if !ids.is_empty() {
                        let id = ids[(a % ids.len() as u64) as usize];
                        prop_assert_eq!(
                            collect(|out| stack.on_timer_into(now, held[&id], out)).1,
                            reference.on_timer(now, id)
                        );
                    }
                }
            }
            assert_same_state(&stack, &reference, &held)?;
        }
    }
}
