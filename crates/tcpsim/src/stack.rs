//! A multi-connection TCP stack: demultiplexing and listeners.
//!
//! Hosts own one [`TcpStack`] per network interface. Segments are
//! demultiplexed by `(local port, remote port)`; SYNs to a listening
//! port spawn new connections. All effects bubble up tagged with the
//! connection they belong to.
//!
//! Connections live in a slab and are named by a dense [`ConnSlot`]:
//! `connect` and `on_segment` resolve it once, and every later call
//! (`on_timer`, `conn_at_mut`) indexes the slab with it. The only
//! [`ConnId`] hash is the demux index, consulted once per received
//! segment (and by [`TcpStack::slot_of`]). Effects are appended to a
//! buffer the caller owns, so no call allocates.

use simcore::fxhash::FxHashMap;
use simcore::time::SimTime;

use crate::conn::{TcpConnection, TcpOutput, TcpState};
use crate::types::{TcpConfig, TcpSegment};

/// Identifies a connection within a stack: `(local_port, remote_port)`.
pub type ConnId = (u16, u16);

/// Dense handle of one connection inside the [`TcpStack`] that handed
/// it out, valid until that connection is reaped. Callers keep their
/// own per-connection state in a `Vec` indexed by [`ConnSlot::index`].
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
    /// The connection slab, indexed by [`ConnSlot`]. A reaped
    /// connection leaves `None` behind; live slots are never renumbered.
    conns: Vec<Option<TcpConnection>>,
    /// Reaped slots, reusable only by a new connection.
    free: Vec<ConnSlot>,
    /// The demux index, holding exactly the live connections. Only
    /// probed, never iterated.
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
    /// names, else in a reaped slot, else in a fresh one.
    fn insert(&mut self, id: ConnId, conn: TcpConnection) -> ConnSlot {
        if let Some(&slot) = self.index.get(&id) {
            self.conns[slot.index()] = Some(conn);
            return slot;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            ConnSlot(u32::try_from(self.conns.len() - 1).expect("connection slots fit u32"))
        });
        self.conns[slot.index()] = Some(conn);
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

    /// The connection in `slot`, unless it was reaped.
    #[must_use]
    pub fn conn_at(&self, slot: ConnSlot) -> Option<&TcpConnection> {
        self.conns.get(slot.index())?.as_ref()
    }

    /// Mutable access to the connection in `slot` (for
    /// `write`/`read`/`close`), unless it was reaped.
    pub fn conn_at_mut(&mut self, slot: ConnSlot) -> Option<&mut TcpConnection> {
        self.conns.get_mut(slot.index())?.as_mut()
    }

    /// Number of connections (any state).
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when no connections exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
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
            let conn = self.conns[slot.index()]
                .as_mut()
                .expect("the index holds live connections only");
            conn.on_segment_into(now, seg, out);
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
    /// the effects to `out` (nothing for a reaped slot).
    pub fn on_timer_into(&mut self, now: SimTime, slot: ConnSlot, out: &mut Vec<TcpOutput>) {
        if let Some(conn) = self.conn_at_mut(slot) {
            conn.on_timer_into(now, out);
        }
    }

    /// Drops connections that failed, returning how many were reaped.
    /// Every other connection keeps its slot; a freed slot is handed
    /// out again only to a new connection.
    pub fn reap(&mut self) -> usize {
        let before = self.index.len();
        for (i, entry) in self.conns.iter_mut().enumerate() {
            let failed = |c: &mut TcpConnection| c.state() == TcpState::Failed;
            if let Some(conn) = entry.take_if(failed) {
                self.index.remove(&(conn.local_port(), conn.remote_port()));
                self.free
                    .push(ConnSlot(u32::try_from(i).expect("slots fit u32")));
            }
        }
        before - self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn timer(stack: &mut TcpStack, at: SimTime, slot: ConnSlot) -> Vec<TcpOutput> {
        let mut outs = Vec::new();
        stack.on_timer_into(at, slot, &mut outs);
        outs
    }

    fn by_id(stack: &TcpStack, id: ConnId) -> &TcpConnection {
        stack
            .conn_at(stack.slot_of(id).expect("a live id"))
            .expect("a live slot")
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
        assert_eq!(
            client.conn_at(id).expect("conn").state(),
            TcpState::Established
        );
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
        let outs = client
            .conn_at_mut(a)
            .expect("conn")
            .write(SimTime::ZERO, 500);
        pump(&mut client, &mut server, sends(&outs));
        assert_eq!(by_id(&server, (80, 4000)).readable_bytes(), 500);
        assert_eq!(by_id(&server, (80, 4001)).readable_bytes(), 0);
        assert_ne!(a, b);
        assert_eq!(server.len(), 2);
    }

    #[test]
    fn reap_removes_failed() {
        let mut client = TcpStack::new();
        let (slot, outs) = connect(&mut client, 4000, 80);
        // Never deliver anything; fire the timer past the SYN retry limit.
        fail(&mut client, slot, &outs);
        assert_eq!(client.reap(), 1);
        assert!(client.is_empty());
    }

    /// Fires `slot`'s timer until the connection gives up.
    fn fail(stack: &mut TcpStack, slot: ConnSlot, first: &[TcpOutput]) {
        let next_timer = |outs: &[TcpOutput]| {
            outs.iter().find_map(|o| match o {
                TcpOutput::SetTimer(t) => Some(*t),
                _ => None,
            })
        };
        let mut deadline = next_timer(first);
        while let Some(at) = deadline {
            deadline = next_timer(&timer(stack, at, slot));
        }
        assert_eq!(stack.conn_at(slot).expect("conn").state(), TcpState::Failed);
    }

    #[test]
    fn reap_never_renumbers_a_live_slot() {
        let mut client = TcpStack::new();
        let (doomed, outs) = connect(&mut client, 4000, 80);
        let (held, _) = connect(&mut client, 4001, 80);
        fail(&mut client, doomed, &outs);
        assert_eq!(client.reap(), 1);
        // The neighbour a caller still holds names the same connection.
        assert_eq!(client.slot_of((4001, 80)), Some(held));
        assert_eq!(client.conn_at(held).expect("conn").local_port(), 4001);
        // The reaped slot is gone: no connection, no id, a silent timer.
        assert!(client.conn_at(doomed).is_none());
        assert_eq!(client.slot_of((4000, 80)), None);
        assert!(timer(&mut client, SimTime::from_secs(1), doomed).is_empty());
        assert_eq!(client.len(), 1);
        // Only a new connection takes the slot over.
        let (reused, _) = connect(&mut client, 4002, 80);
        assert_eq!(reused, doomed);
        assert_eq!(client.conn_at(held).expect("conn").local_port(), 4001);
        assert_eq!(client.conn_at(reused).expect("conn").local_port(), 4002);
    }
}
