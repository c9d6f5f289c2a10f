//! TCP wire types and configuration.
//!
//! Segments carry logical byte counts, not bytes: the simulation tracks
//! sequence ranges exactly but never materializes payloads.

use simcore::time::SimDuration;

/// Segment control flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// Synchronize (connection open).
    pub syn: bool,
    /// Acknowledgment field is valid.
    pub ack: bool,
}

impl TcpFlags {
    /// A pure data/ACK segment.
    #[must_use]
    pub fn ack() -> Self {
        TcpFlags {
            ack: true,
            ..TcpFlags::default()
        }
    }

    /// A SYN.
    #[must_use]
    pub fn syn() -> Self {
        TcpFlags {
            syn: true,
            ..TcpFlags::default()
        }
    }

    /// A SYN-ACK.
    #[must_use]
    pub fn syn_ack() -> Self {
        TcpFlags {
            syn: true,
            ack: true,
        }
    }
}

/// A TCP segment (simulation form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// First sequence number covered (a SYN occupies one number).
    pub seq: u64,
    /// Cumulative acknowledgment (valid when `flags.ack`).
    pub ack: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// Advertised receive window in bytes.
    pub window: u64,
    /// Control flags.
    pub flags: TcpFlags,
}

impl TcpSegment {
    /// On-wire size: payload plus 40 bytes of TCP/IP headers + 14 of
    /// Ethernet framing.
    #[must_use]
    pub fn wire_size(&self) -> u64 {
        self.len + 54
    }
}

/// Maximum segment size (payload bytes per segment); both endpoints
/// of the paper use 1448.
pub const MSS: u64 = 1448;

/// Initial retransmission timeout before any RTT sample (RFC 6298: 1 s).
pub const RTO_INITIAL: SimDuration = SimDuration::from_secs(1);

/// Lower bound on the RTO (Linux: 200 ms).
pub const RTO_MIN: SimDuration = SimDuration::from_millis(200);

/// SYN retransmissions before `connect` fails (Linux `tcp_syn_retries`).
pub const MAX_SYN_RETRIES: u32 = 6;

/// TCP tuning knobs: what the paper's two endpoints set differently.
/// What they share is a constant ([`MSS`], [`RTO_INITIAL`],
/// [`RTO_MIN`], [`MAX_SYN_RETRIES`]).
///
/// Two presets match the paper's endpoints: [`TcpConfig::linux`] for the
/// memaslap client machine and [`TcpConfig::lwip`] for the IOuser's
/// user-level stack.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Initial congestion window, in segments.
    pub initial_cwnd_segments: u64,
    /// Upper bound on the RTO backoff.
    pub rto_max: SimDuration,
    /// Consecutive RTOs on the same data before the connection is
    /// declared dead (Linux `tcp_retries2` ≈ 15).
    pub max_data_retries: u32,
    /// Fixed advertised receive window.
    pub receive_window: u64,
}

impl TcpConfig {
    /// A Linux 3.x-era sender (the paper's client machine).
    #[must_use]
    pub fn linux() -> Self {
        TcpConfig {
            initial_cwnd_segments: 10,
            rto_max: SimDuration::from_secs(120),
            max_data_retries: 15,
            receive_window: 1 << 20,
        }
    }

    /// The lwIP user-level stack the IOuser runs (§5): small initial
    /// window, same standardized timers.
    #[must_use]
    pub fn lwip() -> Self {
        TcpConfig {
            initial_cwnd_segments: 2,
            rto_max: SimDuration::from_secs(60),
            max_data_retries: 12,
            receive_window: 256 * 1024,
        }
    }

    /// Initial congestion window in bytes.
    #[must_use]
    pub fn initial_cwnd(&self) -> u64 {
        self.initial_cwnd_segments * MSS
    }
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig::linux()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_includes_headers() {
        let seg = TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            len: 1448,
            window: 0,
            flags: TcpFlags::ack(),
        };
        assert_eq!(seg.wire_size(), 1502);
    }

    #[test]
    fn presets_differ_where_it_matters() {
        let linux = TcpConfig::linux();
        let lwip = TcpConfig::lwip();
        assert!(linux.initial_cwnd() > lwip.initial_cwnd());
        assert!(linux.rto_max > lwip.rto_max);
    }
}
