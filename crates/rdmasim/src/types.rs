//! Verbs-level and wire-level types for the InfiniBand model.
//!
//! Simplifications relative to real IBA, none of which affect the
//! reproduced behaviour: PSNs are 64-bit (no 24-bit wraparound
//! handling), an RDMA read *reserves* one PSN per response packet up
//! front, and payload bytes are logical.

use memsim::types::VirtAddr;
use netsim::packet::NodeId;
use simcore::time::{SimDuration, SimTime};

/// Queue pair number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct QpId(pub u32);

impl std::fmt::Display for QpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "qp{}", self.0)
    }
}

/// A work-request identifier chosen by the application.
pub type WrId = u64;

/// Operations an application can post to the send queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOp {
    /// Two-sided send: consumes a receive WQE at the responder.
    Send {
        /// Local gather address.
        local: VirtAddr,
        /// Message length in bytes.
        len: u64,
    },
    /// One-sided RDMA write to remote virtual memory.
    Write {
        /// Local gather address.
        local: VirtAddr,
        /// Remote scatter address.
        remote: VirtAddr,
        /// Length in bytes.
        len: u64,
    },
    /// One-sided RDMA read from remote virtual memory.
    Read {
        /// Local scatter address (where responses land).
        local: VirtAddr,
        /// Remote gather address.
        remote: VirtAddr,
        /// Length in bytes.
        len: u64,
    },
}

impl SendOp {
    /// Message length in bytes.
    #[must_use]
    pub fn len(&self) -> u64 {
        match *self {
            SendOp::Send { len, .. } | SendOp::Write { len, .. } | SendOp::Read { len, .. } => len,
        }
    }

    /// `true` for zero-length operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A posted receive buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvWqe {
    /// Application identifier reported in the completion.
    pub wr_id: WrId,
    /// Scatter address.
    pub addr: VirtAddr,
    /// Buffer capacity in bytes.
    pub capacity: u64,
}

/// Completion status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WcStatus {
    /// Operation finished.
    Success,
    /// Transport retries exhausted.
    RetryExceeded,
    /// RNR retries exhausted.
    RnrRetryExceeded,
}

/// What completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WcOpcode {
    /// A posted send finished (acked end to end).
    Send,
    /// An RDMA write finished.
    Write,
    /// An RDMA read finished (all response data arrived).
    Read,
    /// An inbound message landed in a receive buffer.
    Recv,
}

/// A completion-queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The application's work-request id.
    pub wr_id: WrId,
    /// What finished.
    pub opcode: WcOpcode,
    /// How it finished.
    pub status: WcStatus,
    /// Bytes transferred.
    pub len: u64,
}

/// Wire packet kinds of the RC protocol (BTH opcodes, abstracted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RcPacketKind {
    /// A slice of a SEND message. `offset` is the byte offset within the
    /// message; `last` marks the final packet.
    SendData {
        /// Byte offset within the message.
        offset: u64,
        /// Payload bytes in this packet.
        len: u64,
        /// Final packet of the message.
        last: bool,
        /// Total message length (carried in the first packet of real IB;
        /// carried everywhere here for simplicity).
        message_len: u64,
    },
    /// A slice of an RDMA WRITE.
    WriteData {
        /// Remote scatter address for this slice.
        remote: VirtAddr,
        /// Payload bytes.
        len: u64,
        /// Final packet of the message.
        last: bool,
    },
    /// An RDMA READ request; the responder answers with `packets`
    /// [`RcPacketKind::ReadResponse`] packets using PSNs
    /// `psn+1 ..= psn+packets`.
    ReadRequest {
        /// Remote gather address.
        remote: VirtAddr,
        /// Total bytes requested.
        len: u64,
        /// Number of response packets reserved.
        packets: u64,
    },
    /// One response slice of an RDMA READ.
    ReadResponse {
        /// Byte offset within the read.
        offset: u64,
        /// Payload bytes.
        len: u64,
        /// Final response.
        last: bool,
    },
    /// Positive cumulative acknowledgment of everything up to and
    /// including `psn` (carried in the packet's own psn field).
    Ack,
    /// Negative acknowledgment: receiver not ready. Sender must pause
    /// for `wait` and resume from the NACKed PSN. This is the mechanism
    /// the modified firmware uses for rNPFs (§4).
    NakReceiverNotReady {
        /// Requested pause before retrying.
        wait: SimDuration,
    },
    /// Negative acknowledgment: out-of-sequence PSN; sender rewinds to
    /// the NACKed PSN.
    NakSequenceError,
    /// **Extension (§4's recommendation):** receiver-not-ready for RDMA
    /// *read responses*. Standard RC has no way for a faulting read
    /// initiator to stop the responder; the paper recommends extending
    /// the end-to-end flow control to reads. When a QP pair enables
    /// [`RcConfig::rnr_for_reads`], the initiator sends this instead of
    /// silently dropping, and the responder pauses and later resumes the
    /// response stream from the NACKed PSN.
    NakReadNotReady {
        /// Requested pause before the responder resumes.
        wait: SimDuration,
    },
    /// IRN-style cumulative + selective acknowledgment
    /// ([`RdmaTransport::SelectiveRepeat`] only). The packet's own `psn`
    /// field names the *expected* (first missing) PSN: everything below
    /// it is cumulatively acknowledged. Bit `i` of `bitmap` set means
    /// PSN `psn + 1 + i` was received out of order and must not be
    /// retransmitted. The legacy go-back-N path never emits this kind,
    /// keeping its wire traces byte-identical.
    SelectiveAck {
        /// Out-of-order reception bitmap relative to `psn + 1`.
        bitmap: u64,
    },
}

/// A packet on an RC connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RcPacket {
    /// Destination QP.
    pub dst_qp: QpId,
    /// Source QP.
    pub src_qp: QpId,
    /// Packet sequence number (for ACK/NAK: the PSN being acknowledged).
    pub psn: u64,
    /// Kind and kind-specific fields.
    pub kind: RcPacketKind,
}

impl RcPacket {
    /// On-wire size: payload plus ~64 bytes of LRH/BTH/ICRC overhead.
    #[must_use]
    pub fn wire_size(&self) -> u64 {
        let payload = match self.kind {
            RcPacketKind::SendData { len, .. }
            | RcPacketKind::WriteData { len, .. }
            | RcPacketKind::ReadResponse { len, .. } => len,
            _ => 0,
        };
        payload + 64
    }
}

/// The full extent of the work request a DMA access belongs to. The
/// NIC hands the driver "as much information as possible about the page
/// fault", letting it pre-fault the whole scatter-gather range instead
/// of one page per PRI request (§4's third optimization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageRange {
    /// First byte of the message buffer.
    pub base: VirtAddr,
    /// Total message bytes.
    pub len: u64,
}

impl MessageRange {
    /// A message of `len` bytes at `base`.
    #[must_use]
    pub fn new(base: VirtAddr, len: u64) -> Self {
        MessageRange { base, len }
    }
}

/// Decision of the DMA gate for one packet's memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateDecision {
    /// Memory is present; DMA proceeds.
    Ok,
    /// Page fault. `fault_id` correlates the later resolution.
    Fault {
        /// Correlation id chosen by the gate.
        fault_id: u64,
    },
}

/// The QP's view of host memory: every DMA consults the gate, which is
/// implemented by the NPF engine (IOMMU + OS) in the full system and by
/// scripted fakes in tests.
pub trait DmaGate {
    /// A local *read* DMA gathering outgoing payload (send/write data or
    /// read responses). A fault here is a **local** fault: the QP simply
    /// pauses (§4: "it can simply stop sending and wait"). `message` is
    /// the owning work request's full extent, enabling batched
    /// pre-faulting.
    fn gather(&mut self, qp: QpId, addr: VirtAddr, len: u64, message: MessageRange)
        -> GateDecision;

    /// A local *write* DMA scattering incoming payload (receive data,
    /// inbound writes, read responses at the initiator). A fault here is
    /// an **rNPF**: the QP must answer with RNR NACK (send/write) or
    /// drop-and-rewind (read responses).
    fn scatter(
        &mut self,
        qp: QpId,
        addr: VirtAddr,
        len: u64,
        message: MessageRange,
    ) -> GateDecision;
}

/// A gate for memory that is always present (fully pinned channels).
#[derive(Debug, Default, Clone, Copy)]
pub struct PinnedGate;

impl DmaGate for PinnedGate {
    fn gather(
        &mut self,
        _qp: QpId,
        _addr: VirtAddr,
        _len: u64,
        _message: MessageRange,
    ) -> GateDecision {
        GateDecision::Ok
    }
    fn scatter(
        &mut self,
        _qp: QpId,
        _addr: VirtAddr,
        _len: u64,
        _message: MessageRange,
    ) -> GateDecision {
        GateDecision::Ok
    }
}

/// Timers a QP can arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QpTimer {
    /// Transport retransmission timeout.
    Retransmit,
    /// RNR backoff expiry (resume after receiver-not-ready).
    RnrResume,
}

impl QpTimer {
    /// Number of timer kinds: the size of a per-QP timer table.
    pub const COUNT: usize = 2;

    /// This kind's slot in a per-QP timer table, below [`QpTimer::COUNT`].
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            QpTimer::Retransmit => 0,
            QpTimer::RnrResume => 1,
        }
    }
}

/// Effects emitted by a QP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QpOutput {
    /// Transmit a packet toward the peer node.
    Send {
        /// Physical destination.
        to: NodeId,
        /// The packet.
        packet: RcPacket,
    },
    /// Arm (replace) the given timer.
    SetTimer(QpTimer, SimTime),
    /// Disarm the given timer.
    CancelTimer(QpTimer),
    /// Deliver a completion to the application.
    Complete(Completion),
    /// The QP encountered an rNPF and issued an RNR NACK; the NPF engine
    /// should resolve `fault_id` (informational — the gate already knows).
    RnrIssued {
        /// Correlation id from the gate.
        fault_id: u64,
    },
}

/// Loss-recovery discipline of an RC QP. The canonical definition
/// lives in [`netsim::profile`] so the typed scenario surface
/// ([`netsim::profile::TransportConfig`]) can name it without a
/// dependency cycle; re-exported here because the QP state machine is
/// where it takes effect.
pub use netsim::profile::RdmaTransport;

/// Path MTU payload bytes.
pub const MTU: u64 = 4096;

/// Transport retransmission timeout (the go-back-N base; selective
/// repeat backs off from it).
pub const RETRANSMIT_TIMEOUT: SimDuration = SimDuration::from_micros(500);

/// Pause a sender honours on an RNR NACK that carries no value of its
/// own.
pub(crate) const RNR_WAIT: SimDuration = SimDuration::from_micros(360);

/// Tuning knobs of an RC QP.
#[derive(Debug, Clone, Copy)]
pub struct RcConfig {
    /// Maximum outstanding unacked request packets.
    pub window_packets: u64,
    /// Transport retries before the QP errors out.
    pub max_retries: u32,
    /// RNR retries before the QP errors out (IB's 7 means infinite; the
    /// simulator uses a large finite default).
    pub max_rnr_retries: u32,
    /// Acknowledge every `ack_every` packets in addition to
    /// end-of-message acks.
    pub ack_every: u64,
    /// Enable the paper's recommended RC extension: RNR-style flow
    /// control for RDMA read responses (§4). Off by default — standard
    /// RC drops and rewinds.
    pub rnr_for_reads: bool,
    /// Loss-recovery discipline. Defaults to the legacy go-back-N path
    /// so existing scenarios stay byte-identical.
    pub transport: RdmaTransport,
    /// Bandwidth-delay-product cap on in-flight request packets,
    /// honoured only by [`RdmaTransport::SelectiveRepeat`] (IRN bounds
    /// outstanding data to one BDP instead of relying on PFC). The
    /// effective cap is `min(window_packets, bdp_packets)`.
    pub bdp_packets: u64,
}

impl Default for RcConfig {
    fn default() -> Self {
        RcConfig {
            window_packets: 128,
            max_retries: 7,
            max_rnr_retries: 1000,
            ack_every: 16,
            rnr_for_reads: false,
            transport: RdmaTransport::GoBackN,
            // 56 Gb/s × ~10 us RTT ≈ 70 KB ≈ 17 MTU packets; default to a
            // round 32 so a single QP can still fill a longer pipe.
            bdp_packets: 32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_counts_payload_and_headers() {
        let p = RcPacket {
            dst_qp: QpId(1),
            src_qp: QpId(2),
            psn: 0,
            kind: RcPacketKind::SendData {
                offset: 0,
                len: 4096,
                last: true,
                message_len: 4096,
            },
        };
        assert_eq!(p.wire_size(), 4160);
        let ack = RcPacket {
            dst_qp: QpId(1),
            src_qp: QpId(2),
            psn: 9,
            kind: RcPacketKind::Ack,
        };
        assert_eq!(ack.wire_size(), 64);
    }

    #[test]
    fn send_op_lengths() {
        let op = SendOp::Write {
            local: VirtAddr(0),
            remote: VirtAddr(0x1000),
            len: 100,
        };
        assert_eq!(op.len(), 100);
        assert!(!op.is_empty());
    }

    #[test]
    fn pinned_gate_always_accepts() {
        let mut g = PinnedGate;
        let m = MessageRange::new(VirtAddr(0), 10);
        assert_eq!(g.gather(QpId(0), VirtAddr(0), 10, m), GateDecision::Ok);
        assert_eq!(g.scatter(QpId(0), VirtAddr(0), 10, m), GateDecision::Ok);
    }
}
