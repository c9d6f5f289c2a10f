//! A multi-connection TCP stack: demultiplexing and listeners.
//!
//! Hosts own one [`TcpStack`] per network interface. Segments are
//! demultiplexed by `(local port, remote port)`; SYNs to a listening
//! port spawn new connections. All effects bubble up tagged with the
//! connection they belong to.
//!
//! Connections live in a slab and are named by a dense [`ConnSlot`]:
//! `connect` and `on_segment` resolve it once, and every later call
//! (`on_timer`, `conn_at_mut`) indexes the slab with it. A slot is
//! never freed, so a handle stays valid for the stack's lifetime. The only
//! [`ConnId`] hash is the demux index, consulted once per received
//! segment (and by [`TcpStack::slot_of`]). Effects are appended to a
//! buffer the caller owns, so no call allocates.

use simcore::fxhash::FxHashMap;
use simcore::time::SimTime;

use crate::conn::{TcpConnection, TcpOutput};
use crate::types::{TcpConfig, TcpSegment};

/// Identifies a connection within a stack: `(local_port, remote_port)`.
pub type ConnId = (u16, u16);

/// Dense handle of one connection inside the [`TcpStack`] that handed
/// it out, valid for the stack's lifetime: slots are handed out in
/// order and never freed, so callers keep their own per-connection
/// state in a `Vec` indexed by [`ConnSlot::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnSlot(u32);

impl ConnSlot {
    /// The slot's index into the slab (and into caller-side tables).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A TCP stack instance.
#[derive(Debug, Default)]
pub struct TcpStack {
    /// The connection slab, indexed by [`ConnSlot`]. A failed
    /// connection keeps its slot.
    conns: Vec<TcpConnection>,
    /// The demux index, one entry per slot. Only probed, never
    /// iterated.
    index: FxHashMap<ConnId, ConnSlot>,
    listeners: FxHashMap<u16, TcpConfig>,
}

impl TcpStack {
    /// Creates an empty stack.
    #[must_use]
    pub fn new() -> Self {
        TcpStack::default()
    }

    /// Starts listening on `port`; inbound connections adopt `config`.
    pub fn listen(&mut self, port: u16, config: TcpConfig) {
        self.listeners.insert(port, config);
    }

    /// Stores a new connection under `id`: in the slot `id` already
    /// names, else in the next one.
    fn insert(&mut self, id: ConnId, conn: TcpConnection) -> ConnSlot {
        if let Some(&slot) = self.index.get(&id) {
            self.conns[slot.index()] = conn;
            return slot;
        }
        let slot = ConnSlot(u32::try_from(self.conns.len()).expect("connection slots fit u32"));
        self.conns.push(conn);
        self.index.insert(id, slot);
        slot
    }

    /// Opens a connection from `local` to `remote`, returning its slot
    /// and appending the initial effects (SYN + timer) to `out`.
    pub fn connect_into(
        &mut self,
        now: SimTime,
        local: u16,
        remote: u16,
        config: TcpConfig,
        out: &mut Vec<TcpOutput>,
    ) -> ConnSlot {
        let mut conn = TcpConnection::new(config, local, remote);
        conn.connect_into(now, out);
        self.insert((local, remote), conn)
    }

    /// The slot of the connection with this id, if it exists.
    #[must_use]
    pub fn slot_of(&self, id: ConnId) -> Option<ConnSlot> {
        self.index.get(&id).copied()
    }

    /// The connection in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if no connection of this stack was handed `slot`.
    #[must_use]
    pub fn conn_at(&self, slot: ConnSlot) -> &TcpConnection {
        &self.conns[slot.index()]
    }

    /// Mutable access to the connection in `slot` (for
    /// `write`/`read`/`close`).
    ///
    /// # Panics
    ///
    /// Panics if no connection of this stack was handed `slot`.
    pub fn conn_at_mut(&mut self, slot: ConnSlot) -> &mut TcpConnection {
        &mut self.conns[slot.index()]
    }

    /// Number of connections (any state).
    #[must_use]
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// `true` when no connections exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Handles an inbound segment, returning its connection and
    /// appending the effects to `out`. Segments to unknown ports are
    /// dropped silently (no RST generation — the experiments never need
    /// it). This is the one place the steady-state path hashes a
    /// [`ConnId`].
    pub fn on_segment_into(
        &mut self,
        now: SimTime,
        seg: TcpSegment,
        out: &mut Vec<TcpOutput>,
    ) -> Option<ConnSlot> {
        let id = (seg.dst_port, seg.src_port);
        if let Some(&slot) = self.index.get(&id) {
            self.conns[slot.index()].on_segment_into(now, seg, out);
            return Some(slot);
        }
        if seg.flags.syn && !seg.flags.ack {
            if let Some(&config) = self.listeners.get(&seg.dst_port) {
                let mut conn = TcpConnection::new(config, seg.dst_port, seg.src_port);
                conn.listen();
                conn.on_segment_into(now, seg, out);
                return Some(self.insert(id, conn));
            }
        }
        None
    }

    /// Handles the retransmission timer of one connection, appending
    /// the effects to `out`.
    pub fn on_timer_into(&mut self, now: SimTime, slot: ConnSlot, out: &mut Vec<TcpOutput>) {
        self.conn_at_mut(slot).on_timer_into(now, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::TcpState;

    fn connect(stack: &mut TcpStack, local: u16, remote: u16) -> (ConnSlot, Vec<TcpOutput>) {
        let mut outs = Vec::new();
        let slot = stack.connect_into(SimTime::ZERO, local, remote, TcpConfig::linux(), &mut outs);
        (slot, outs)
    }

    fn deliver(stack: &mut TcpStack, seg: TcpSegment) -> Option<(ConnSlot, Vec<TcpOutput>)> {
        let mut outs = Vec::new();
        let slot = stack.on_segment_into(SimTime::ZERO, seg, &mut outs)?;
        Some((slot, outs))
    }

    fn by_id(stack: &TcpStack, id: ConnId) -> &TcpConnection {
        stack.conn_at(stack.slot_of(id).expect("a known id"))
    }

    /// Shuttles segments between two stacks until quiescent.
    fn pump(a: &mut TcpStack, b: &mut TcpStack, mut from_a: Vec<TcpSegment>) {
        let mut from_b: Vec<TcpSegment> = Vec::new();
        for _ in 0..100 {
            if from_a.is_empty() && from_b.is_empty() {
                return;
            }
            for seg in std::mem::take(&mut from_a) {
                if let Some((_, outs)) = deliver(b, seg) {
                    for o in outs {
                        if let TcpOutput::Send(s) = o {
                            from_b.push(s);
                        }
                    }
                }
            }
            for seg in std::mem::take(&mut from_b) {
                if let Some((_, outs)) = deliver(a, seg) {
                    for o in outs {
                        if let TcpOutput::Send(s) = o {
                            from_a.push(s);
                        }
                    }
                }
            }
        }
    }

    fn sends(outs: &[TcpOutput]) -> Vec<TcpSegment> {
        outs.iter()
            .filter_map(|o| match o {
                TcpOutput::Send(s) => Some(*s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn listener_accepts_connection() {
        let mut client = TcpStack::new();
        let mut server = TcpStack::new();
        server.listen(80, TcpConfig::lwip());
        let (id, outs) = connect(&mut client, 4000, 80);
        pump(&mut client, &mut server, sends(&outs));
        assert_eq!(client.conn_at(id).state(), TcpState::Established);
        assert_eq!(by_id(&server, (80, 4000)).state(), TcpState::Established);
    }

    #[test]
    fn syn_to_closed_port_is_ignored() {
        let mut client = TcpStack::new();
        let mut server = TcpStack::new();
        let (_, outs) = connect(&mut client, 4000, 81);
        for seg in sends(&outs) {
            assert!(deliver(&mut server, seg).is_none());
        }
    }

    #[test]
    fn multiple_connections_demux() {
        let mut client = TcpStack::new();
        let mut server = TcpStack::new();
        server.listen(80, TcpConfig::lwip());
        let (a, outs_a) = connect(&mut client, 4000, 80);
        let (b, outs_b) = connect(&mut client, 4001, 80);
        pump(&mut client, &mut server, sends(&outs_a));
        pump(&mut client, &mut server, sends(&outs_b));
        let outs = client.conn_at_mut(a).write(SimTime::ZERO, 500);
        pump(&mut client, &mut server, sends(&outs));
        assert_eq!(by_id(&server, (80, 4000)).readable_bytes(), 500);
        assert_eq!(by_id(&server, (80, 4001)).readable_bytes(), 0);
        assert_ne!(a, b);
        assert_eq!(server.len(), 2);
    }
}
