//! A multi-connection TCP stack: demultiplexing and listeners.
//!
//! Hosts own one [`TcpStack`] per network interface. Segments are
//! demultiplexed by `(local port, remote port)`; SYNs to a listening
//! port spawn new connections. All effects bubble up tagged with the
//! connection they belong to.

use simcore::fxhash::FxHashMap;
use simcore::time::SimTime;

use crate::conn::{TcpConnection, TcpOutput, TcpState};
use crate::types::{TcpConfig, TcpSegment};

/// Identifies a connection within a stack: `(local_port, remote_port)`.
pub type ConnId = (u16, u16);

/// A TCP stack instance.
#[derive(Debug, Default)]
pub struct TcpStack {
    /// Looked up on every segment and every application call. Nothing
    /// iterates it in an order a caller can see (`reap` only filters),
    /// so the seed-free hash keeps runs deterministic.
    conns: FxHashMap<ConnId, TcpConnection>,
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

    /// Opens a connection from `local` to `remote`, returning its id and
    /// the initial effects (SYN + timer).
    pub fn connect(
        &mut self,
        now: SimTime,
        local: u16,
        remote: u16,
        config: TcpConfig,
    ) -> (ConnId, Vec<TcpOutput>) {
        let id = (local, remote);
        let mut conn = TcpConnection::new(config, local, remote);
        let outs = conn.connect(now);
        self.conns.insert(id, conn);
        (id, outs)
    }

    /// The connection with this id, if it exists.
    #[must_use]
    pub fn conn(&self, id: ConnId) -> Option<&TcpConnection> {
        self.conns.get(&id)
    }

    /// Mutable access to a connection (for `write`/`read`/`close`).
    pub fn conn_mut(&mut self, id: ConnId) -> Option<&mut TcpConnection> {
        self.conns.get_mut(&id)
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

    /// Handles an inbound segment, returning `(connection, effects)`.
    /// Segments to unknown ports are dropped silently (no RST generation
    /// — the experiments never need it).
    pub fn on_segment(
        &mut self,
        now: SimTime,
        seg: TcpSegment,
        ecn_marked: bool,
    ) -> Option<(ConnId, Vec<TcpOutput>)> {
        let id = (seg.dst_port, seg.src_port);
        if let Some(conn) = self.conns.get_mut(&id) {
            return Some((id, conn.on_segment(now, seg, ecn_marked)));
        }
        if seg.flags.syn && !seg.flags.ack {
            if let Some(&config) = self.listeners.get(&seg.dst_port) {
                let mut conn = TcpConnection::new(config, seg.dst_port, seg.src_port);
                conn.listen();
                let outs = conn.on_segment(now, seg, ecn_marked);
                self.conns.insert(id, conn);
                return Some((id, outs));
            }
        }
        None
    }

    /// Handles the retransmission timer of one connection.
    pub fn on_timer(&mut self, now: SimTime, id: ConnId) -> Vec<TcpOutput> {
        match self.conns.get_mut(&id) {
            Some(conn) => conn.on_timer(now),
            None => Vec::new(),
        }
    }

    /// Drops connections that are finished or failed, returning how many
    /// were reaped.
    pub fn reap(&mut self) -> usize {
        let before = self.conns.len();
        self.conns
            .retain(|_, c| !matches!(c.state(), TcpState::Done | TcpState::Failed));
        before - self.conns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::TcpOutput;

    /// Shuttles segments between two stacks until quiescent.
    fn pump(a: &mut TcpStack, b: &mut TcpStack, mut from_a: Vec<TcpSegment>) {
        let mut from_b: Vec<TcpSegment> = Vec::new();
        for _ in 0..100 {
            if from_a.is_empty() && from_b.is_empty() {
                return;
            }
            for seg in std::mem::take(&mut from_a) {
                if let Some((_, outs)) = b.on_segment(SimTime::ZERO, seg, false) {
                    for o in outs {
                        if let TcpOutput::Send(s) = o {
                            from_b.push(s);
                        }
                    }
                }
            }
            for seg in std::mem::take(&mut from_b) {
                if let Some((_, outs)) = a.on_segment(SimTime::ZERO, seg, false) {
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
        let (id, outs) = client.connect(SimTime::ZERO, 4000, 80, TcpConfig::linux());
        pump(&mut client, &mut server, sends(&outs));
        assert_eq!(
            client.conn(id).expect("conn").state(),
            TcpState::Established
        );
        assert_eq!(
            server.conn((80, 4000)).expect("conn").state(),
            TcpState::Established
        );
    }

    #[test]
    fn syn_to_closed_port_is_ignored() {
        let mut client = TcpStack::new();
        let mut server = TcpStack::new();
        let (_, outs) = client.connect(SimTime::ZERO, 4000, 81, TcpConfig::linux());
        for seg in sends(&outs) {
            assert!(server.on_segment(SimTime::ZERO, seg, false).is_none());
        }
    }

    #[test]
    fn multiple_connections_demux() {
        let mut client = TcpStack::new();
        let mut server = TcpStack::new();
        server.listen(80, TcpConfig::lwip());
        let (a, outs_a) = client.connect(SimTime::ZERO, 4000, 80, TcpConfig::linux());
        let (b, outs_b) = client.connect(SimTime::ZERO, 4001, 80, TcpConfig::linux());
        pump(&mut client, &mut server, sends(&outs_a));
        pump(&mut client, &mut server, sends(&outs_b));
        let outs = client.conn_mut(a).expect("conn").write(SimTime::ZERO, 500);
        pump(&mut client, &mut server, sends(&outs));
        assert_eq!(server.conn((80, 4000)).expect("conn").readable_bytes(), 500);
        assert_eq!(server.conn((80, 4001)).expect("conn").readable_bytes(), 0);
        assert_ne!(a, b);
        assert_eq!(server.len(), 2);
    }

    #[test]
    fn reap_removes_failed() {
        let mut client = TcpStack::new();
        let (id, outs) = client.connect(SimTime::ZERO, 4000, 80, TcpConfig::linux());
        // Never deliver anything; fire the timer past the SYN retry limit.
        let mut deadline = outs
            .iter()
            .find_map(|o| match o {
                TcpOutput::SetTimer(t) => Some(*t),
                _ => None,
            })
            .expect("timer");
        for _ in 0..10 {
            let outs = client.on_timer(deadline, id);
            match outs.iter().find_map(|o| match o {
                TcpOutput::SetTimer(t) => Some(*t),
                _ => None,
            }) {
                Some(t) => deadline = t,
                None => break,
            }
        }
        assert_eq!(client.conn(id).expect("conn").state(), TcpState::Failed);
        assert_eq!(client.reap(), 1);
        assert!(client.is_empty());
    }
}
