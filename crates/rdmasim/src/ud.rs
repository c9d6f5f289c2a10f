//! Unreliable datagram (UD) queue pairs.
//!
//! UD gives no delivery or ordering guarantees: a datagram that cannot
//! be placed (no receive buffer, or an rNPF with no backup ring) is
//! simply lost. §4 notes that the Ethernet backup-ring solution (§5) is
//! what applies to UD — there is no connection to suspend.

use memsim::types::VirtAddr;
use netsim::packet::NodeId;

use std::collections::VecDeque;

use crate::types::{
    Completion, DmaGate, GateDecision, MessageRange, QpId, RecvWqe, WcOpcode, WcStatus,
};

/// A UD datagram on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdDatagram {
    /// Destination QP.
    pub dst_qp: QpId,
    /// Source QP.
    pub src_qp: QpId,
    /// Payload length (must fit one MTU).
    pub len: u64,
}

impl UdDatagram {
    /// On-wire size (payload + headers).
    #[must_use]
    pub fn wire_size(&self) -> u64 {
        self.len + 64
    }
}

/// Outcome of receiving a datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdRecvOutcome {
    /// Landed in a receive buffer.
    Delivered(Completion),
    /// Lost: no receive buffer was posted.
    DroppedNoBuffer,
    /// Lost: the scatter DMA faulted (an rNPF with nowhere to go).
    DroppedFault {
        /// Correlation id from the gate.
        fault_id: u64,
    },
}

/// An unreliable-datagram queue pair.
#[derive(Debug)]
pub struct UdQp {
    qpn: QpId,
    mtu: u64,
    rq: VecDeque<RecvWqe>,
    delivered: u64,
    dropped: u64,
}

impl UdQp {
    /// Creates a UD QP with the given path MTU.
    #[must_use]
    pub fn new(qpn: QpId, mtu: u64) -> Self {
        UdQp {
            qpn,
            mtu,
            rq: VecDeque::new(),
            delivered: 0,
            dropped: 0,
        }
    }

    /// Datagrams delivered into buffers.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Datagrams lost on the receive side.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Posts a receive buffer.
    pub fn post_recv(&mut self, wqe: RecvWqe) {
        self.rq.push_back(wqe);
    }

    /// Builds a datagram toward `(node, qp)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the MTU — UD does not segment.
    pub fn send(&mut self, to_qp: QpId, _to_node: NodeId, len: u64) -> UdDatagram {
        assert!(len <= self.mtu, "UD datagrams must fit one MTU");
        UdDatagram {
            dst_qp: to_qp,
            src_qp: self.qpn,
            len,
        }
    }

    /// Receives a datagram: consumes a receive buffer and scatters, or
    /// drops.
    pub fn on_datagram(&mut self, dg: UdDatagram, gate: &mut dyn DmaGate) -> UdRecvOutcome {
        let Some(wqe) = self.rq.pop_front() else {
            self.dropped += 1;
            return UdRecvOutcome::DroppedNoBuffer;
        };
        let message = MessageRange::new(wqe.addr, dg.len);
        match gate.scatter(self.qpn, VirtAddr(wqe.addr.0), dg.len, message) {
            GateDecision::Ok => {
                self.delivered += 1;
                UdRecvOutcome::Delivered(Completion {
                    wr_id: wqe.wr_id,
                    opcode: WcOpcode::Recv,
                    status: WcStatus::Success,
                    len: dg.len,
                })
            }
            GateDecision::Fault { fault_id } => {
                // The buffer is consumed and the data is gone — exactly
                // the failure mode the backup ring exists to fix.
                self.dropped += 1;
                UdRecvOutcome::DroppedFault { fault_id }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PinnedGate;

    #[test]
    fn datagram_delivery() {
        let mut tx = UdQp::new(QpId(1), 4096);
        let mut rx = UdQp::new(QpId(2), 4096);
        rx.post_recv(RecvWqe {
            wr_id: 1,
            addr: VirtAddr(0x1000),
            capacity: 4096,
        });
        let dg = tx.send(QpId(2), NodeId(1), 512);
        let out = rx.on_datagram(dg, &mut PinnedGate);
        assert!(matches!(out, UdRecvOutcome::Delivered(c) if c.len == 512));
        assert_eq!(rx.delivered(), 1);
    }

    #[test]
    fn no_buffer_drops() {
        let mut tx = UdQp::new(QpId(1), 4096);
        let mut rx = UdQp::new(QpId(2), 4096);
        let dg = tx.send(QpId(2), NodeId(1), 512);
        assert_eq!(
            rx.on_datagram(dg, &mut PinnedGate),
            UdRecvOutcome::DroppedNoBuffer
        );
        assert_eq!(rx.dropped(), 1);
    }

    #[test]
    fn fault_drops_datagram() {
        struct AlwaysFault;
        impl DmaGate for AlwaysFault {
            fn gather(&mut self, _: QpId, _: VirtAddr, _: u64, _: MessageRange) -> GateDecision {
                GateDecision::Ok
            }
            fn scatter(&mut self, _: QpId, _: VirtAddr, _: u64, _: MessageRange) -> GateDecision {
                GateDecision::Fault { fault_id: 9 }
            }
        }
        let mut tx = UdQp::new(QpId(1), 4096);
        let mut rx = UdQp::new(QpId(2), 4096);
        rx.post_recv(RecvWqe {
            wr_id: 1,
            addr: VirtAddr(0x1000),
            capacity: 4096,
        });
        let dg = tx.send(QpId(2), NodeId(1), 100);
        assert_eq!(
            rx.on_datagram(dg, &mut AlwaysFault),
            UdRecvOutcome::DroppedFault { fault_id: 9 }
        );
    }

    #[test]
    #[should_panic(expected = "MTU")]
    fn oversized_datagram_panics() {
        let mut tx = UdQp::new(QpId(1), 4096);
        tx.send(QpId(2), NodeId(1), 5000);
    }
}
