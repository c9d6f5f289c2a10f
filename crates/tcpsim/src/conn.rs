//! The TCP connection state machine.
//!
//! Sans-IO: each call yields [`TcpOutput`] effects (segments to emit,
//! the retransmission timer to arm, application notifications); the host
//! event loop performs them. The per-packet entry points append the
//! effects to a buffer the caller owns (`_into`: what the testbeds'
//! loops use, no allocation per call); `connect`, `write` and
//! `on_segment` also have a `Vec`-returning form that wraps it. The
//! implementation covers what the paper's
//! experiments exercise:
//!
//! * three-way handshake with SYN retransmission and exponential backoff
//!   (connection establishment "fails before" NPFs can be signalled, §3),
//! * slow start / congestion avoidance / fast retransmit / NewReno-style
//!   recovery,
//! * RFC 6298 RTO estimation with exponential backoff and a maximum
//!   retry count after which the stack reports failure to the
//!   application (the cold-ring abort of §5),
//! * out-of-order reassembly and cumulative ACKs (whose duplicates drive
//!   fast retransmit).
//!
//! Deliberately out of scope: SACK, timestamps, window scaling beyond a
//! fixed advertised window, zero-window probing, ECN echo and the
//! orderly close (FIN) — no bed needs them: a connection lives until the
//! run ends or fails.

use std::collections::BTreeMap;

use simcore::time::{SimDuration, SimTime};
use simcore::trace::{self, ArgValue};

use crate::types::{TcpConfig, TcpFlags, TcpSegment, MAX_SYN_RETRIES, MSS, RTO_INITIAL, RTO_MIN};

/// Connection lifecycle states (RFC 793 subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// No connection.
    Closed,
    /// Passive open; waiting for a SYN.
    Listen,
    /// Active open; SYN sent.
    SynSent,
    /// SYN received; SYN-ACK sent.
    SynReceived,
    /// Data may flow.
    Established,
    /// The stack gave up (retry limit exceeded).
    Failed,
}

/// Why a connection failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReason {
    /// SYN retransmission limit exceeded.
    ConnectTimeout,
    /// Data retransmission limit exceeded (`tcp_retries2`).
    RetransmitLimit,
}

/// Effects produced by the state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpOutput {
    /// Transmit a segment.
    Send(TcpSegment),
    /// (Re)arm the retransmission timer for this absolute time,
    /// replacing any previous arm.
    SetTimer(SimTime),
    /// Disarm the retransmission timer.
    CancelTimer,
    /// The three-way handshake completed.
    Connected,
    /// New in-order bytes are readable.
    Readable,
    /// The connection failed.
    Failed(FailReason),
}

/// A TCP endpoint.
#[derive(Debug)]
pub struct TcpConnection {
    config: TcpConfig,
    state: TcpState,
    local_port: u16,
    remote_port: u16,

    // Send side.
    iss: u64,
    snd_una: u64,
    snd_nxt: u64,
    /// Absolute sequence limit of application data written so far.
    snd_limit: u64,
    cwnd: u64,
    ssthresh: u64,
    dupacks: u32,
    /// NewReno recovery point: in recovery until snd_una passes this.
    recover: Option<u64>,
    peer_window: u64,

    // Timers / RTO state.
    rto: SimDuration,
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    retries: u32,
    rtt_probe: Option<(u64, SimTime)>,
    timer_armed: bool,

    // Receive side.
    irs: u64,
    rcv_nxt: u64,
    ooo: BTreeMap<u64, u64>, // start -> end
    readable: u64,

    // Statistics.
    delivered_bytes: u64,
}

impl TcpConnection {
    /// Creates a closed endpoint bound to `local_port` talking to
    /// `remote_port`.
    #[must_use]
    pub fn new(config: TcpConfig, local_port: u16, remote_port: u16) -> Self {
        let iss = 1; // deterministic ISN: contents are virtual
        TcpConnection {
            state: TcpState::Closed,
            local_port,
            remote_port,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_limit: iss + 1, // +1 for the SYN
            cwnd: config.initial_cwnd(),
            ssthresh: u64::MAX / 2,
            dupacks: 0,
            recover: None,
            peer_window: config.receive_window,
            rto: RTO_INITIAL,
            srtt: None,
            rttvar: SimDuration::ZERO,
            retries: 0,
            rtt_probe: None,
            timer_armed: false,
            irs: 0,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            readable: 0,
            delivered_bytes: 0,
            config,
        }
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// The local port.
    #[must_use]
    pub fn local_port(&self) -> u16 {
        self.local_port
    }

    /// The remote port.
    #[must_use]
    pub fn remote_port(&self) -> u16 {
        self.remote_port
    }

    /// Bytes readable by the application.
    #[must_use]
    pub fn readable_bytes(&self) -> u64 {
        self.readable
    }

    /// Consumes up to `n` readable bytes, returning how many were read.
    pub fn read(&mut self, n: u64) -> u64 {
        let taken = n.min(self.readable);
        self.readable -= taken;
        taken
    }

    /// Total in-order bytes delivered to the application so far.
    #[must_use]
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    /// Bytes in flight.
    #[must_use]
    pub fn flight_size(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Bytes written but not yet transmitted.
    #[must_use]
    pub fn send_queue_bytes(&self) -> u64 {
        self.snd_limit.saturating_sub(self.snd_nxt)
    }

    fn segment(&self, seq: u64, len: u64, flags: TcpFlags) -> TcpSegment {
        TcpSegment {
            src_port: self.local_port,
            dst_port: self.remote_port,
            seq,
            ack: self.rcv_nxt,
            len,
            window: self.config.receive_window,
            flags,
        }
    }

    fn ack_segment(&self) -> TcpSegment {
        self.segment(self.snd_nxt, 0, TcpFlags::ack())
    }

    fn arm_timer(&mut self, now: SimTime, out: &mut Vec<TcpOutput>) {
        self.timer_armed = true;
        out.push(TcpOutput::SetTimer(now + self.rto));
    }

    fn cancel_timer(&mut self, out: &mut Vec<TcpOutput>) {
        if self.timer_armed {
            self.timer_armed = false;
            out.push(TcpOutput::CancelTimer);
        }
    }

    /// Starts an active open. Returns the SYN and timer arm.
    ///
    /// # Panics
    ///
    /// Panics unless the connection is closed.
    pub fn connect(&mut self, now: SimTime) -> Vec<TcpOutput> {
        let mut out = Vec::new();
        self.connect_into(now, &mut out);
        out
    }

    /// [`TcpConnection::connect`], appending the effects to `out`.
    ///
    /// # Panics
    ///
    /// Panics unless the connection is closed.
    pub fn connect_into(&mut self, now: SimTime, out: &mut Vec<TcpOutput>) {
        assert_eq!(self.state, TcpState::Closed, "connect on open connection");
        self.state = TcpState::SynSent;
        out.push(TcpOutput::Send(self.segment(self.iss, 0, TcpFlags::syn())));
        self.snd_nxt = self.iss + 1;
        self.arm_timer(now, out);
    }

    /// Starts a passive open.
    ///
    /// # Panics
    ///
    /// Panics unless the connection is closed.
    pub fn listen(&mut self) {
        assert_eq!(self.state, TcpState::Closed, "listen on open connection");
        self.state = TcpState::Listen;
    }

    /// Queues `bytes` of application data and transmits what the windows
    /// allow.
    pub fn write(&mut self, now: SimTime, bytes: u64) -> Vec<TcpOutput> {
        let mut out = Vec::new();
        self.write_into(now, bytes, &mut out);
        out
    }

    /// [`TcpConnection::write`], appending the effects to `out`.
    pub fn write_into(&mut self, now: SimTime, bytes: u64, out: &mut Vec<TcpOutput>) {
        self.snd_limit += bytes;
        self.pump(now, out);
    }

    /// Transmits new data permitted by the congestion and peer windows.
    fn pump(&mut self, now: SimTime, out: &mut Vec<TcpOutput>) {
        if self.state != TcpState::Established {
            return;
        }
        let window = self.cwnd.min(self.peer_window);
        let mut sent_any = false;
        while self.snd_nxt < self.snd_limit && self.flight_size() < window {
            let remaining = self.snd_limit - self.snd_nxt;
            let allowance = window - self.flight_size();
            let len = remaining.min(MSS).min(allowance);
            if len == 0 {
                break;
            }
            let seg = self.segment(self.snd_nxt, len, TcpFlags::ack());
            if self.rtt_probe.is_none() {
                self.rtt_probe = Some((self.snd_nxt + len, now));
            }
            self.snd_nxt += len;
            out.push(TcpOutput::Send(seg));
            sent_any = true;
        }
        if sent_any && !self.timer_armed {
            self.arm_timer(now, out);
        }
    }

    /// Handles the retransmission timer firing, appending the effects
    /// to `out`.
    pub fn on_timer_into(&mut self, now: SimTime, out: &mut Vec<TcpOutput>) {
        self.timer_armed = false;
        trace::with(|t| {
            t.instant(
                now,
                "tcpsim",
                "rto_expiry",
                vec![
                    ("flight", ArgValue::U64(self.flight_size())),
                    ("rto_us", ArgValue::F64(self.rto.as_micros_f64())),
                ],
            );
            t.metrics_mut().counter_add("tcpsim.rto_expiries", 1);
        });
        match self.state {
            TcpState::SynSent => {
                self.retries += 1;
                if self.retries > MAX_SYN_RETRIES {
                    self.state = TcpState::Failed;
                    out.push(TcpOutput::Failed(FailReason::ConnectTimeout));
                    return;
                }
                self.rto = self.rto.doubled().min(self.config.rto_max);
                out.push(TcpOutput::Send(self.segment(self.iss, 0, TcpFlags::syn())));
                self.arm_timer(now, out);
            }
            TcpState::SynReceived => {
                self.retries += 1;
                if self.retries > MAX_SYN_RETRIES {
                    self.state = TcpState::Failed;
                    out.push(TcpOutput::Failed(FailReason::ConnectTimeout));
                    return;
                }
                self.rto = self.rto.doubled().min(self.config.rto_max);
                out.push(TcpOutput::Send(self.segment(
                    self.iss,
                    0,
                    TcpFlags::syn_ack(),
                )));
                self.arm_timer(now, out);
            }
            _ if self.flight_size() > 0 => {
                self.retries += 1;
                if self.retries > self.config.max_data_retries {
                    self.state = TcpState::Failed;
                    out.push(TcpOutput::Failed(FailReason::RetransmitLimit));
                    return;
                }
                // RFC 5681 timeout response.
                let flight = self.flight_size();
                self.ssthresh = (flight / 2).max(2 * MSS);
                self.cwnd = MSS;
                self.recover = None;
                self.dupacks = 0;
                self.rto = self.rto.doubled().min(self.config.rto_max);
                self.rtt_probe = None; // Karn: do not sample retransmits
                self.retransmit_head(out);
                self.arm_timer(now, out);
                self.trace_cwnd(now);
            }
            _ => {
                // Spurious timer with nothing outstanding: ignore.
            }
        }
    }

    fn retransmit_head(&mut self, out: &mut Vec<TcpOutput>) {
        let len = (self.snd_limit.min(self.snd_una + MSS) - self.snd_una)
            .min(self.flight_size())
            .min(MSS);
        let seg = self.segment(self.snd_una, len, TcpFlags::ack());
        trace::with(|t| {
            t.instant(
                t.clock(),
                "tcpsim",
                "retransmit",
                vec![("seq", ArgValue::U64(seg.seq)), ("len", ArgValue::U64(len))],
            );
            t.metrics_mut().counter_add("tcpsim.retransmits", 1);
        });
        out.push(TcpOutput::Send(seg));
    }

    /// Samples the congestion window into the trace (time series for
    /// Figure 4-style plots).
    fn trace_cwnd(&self, now: SimTime) {
        trace::with(|t| {
            let cwnd = self.cwnd as f64;
            t.counter(now, "tcpsim", "cwnd", cwnd);
            t.metrics_mut().series_push("tcpsim.cwnd", now, cwnd);
        });
    }

    /// Processes an incoming segment. The stack does not negotiate ECN,
    /// so a congestion-experienced mark (`_ecn_marked`) changes nothing;
    /// the argument stays because `benchmark/` calls this signature.
    pub fn on_segment(
        &mut self,
        now: SimTime,
        seg: TcpSegment,
        _ecn_marked: bool,
    ) -> Vec<TcpOutput> {
        let mut out = Vec::new();
        self.on_segment_into(now, seg, &mut out);
        out
    }

    /// [`TcpConnection::on_segment`], appending the effects to `out`.
    pub fn on_segment_into(&mut self, now: SimTime, seg: TcpSegment, out: &mut Vec<TcpOutput>) {
        if matches!(self.state, TcpState::Failed | TcpState::Closed) {
            return;
        }

        match self.state {
            TcpState::Listen => {
                if seg.flags.syn {
                    self.irs = seg.seq;
                    self.rcv_nxt = seg.seq + 1;
                    self.peer_window = seg.window;
                    self.state = TcpState::SynReceived;
                    self.retries = 0;
                    out.push(TcpOutput::Send(self.segment(
                        self.iss,
                        0,
                        TcpFlags::syn_ack(),
                    )));
                    self.snd_nxt = self.iss + 1;
                    self.arm_timer(now, out);
                }
            }
            TcpState::SynSent => {
                if seg.flags.syn && seg.flags.ack && seg.ack == self.iss + 1 {
                    self.irs = seg.seq;
                    self.rcv_nxt = seg.seq + 1;
                    self.snd_una = seg.ack;
                    self.peer_window = seg.window;
                    self.state = TcpState::Established;
                    self.retries = 0;
                    self.rto = RTO_INITIAL;
                    self.cancel_timer(out);
                    out.push(TcpOutput::Connected);
                    out.push(TcpOutput::Send(self.ack_segment()));
                    self.pump(now, out);
                }
            }
            _ => self.established_path(now, seg, out),
        }
    }

    fn established_path(&mut self, now: SimTime, seg: TcpSegment, out: &mut Vec<TcpOutput>) {
        // Handshake completion on the passive side.
        if self.state == TcpState::SynReceived && seg.flags.ack && seg.ack > self.iss {
            self.state = TcpState::Established;
            self.snd_una = self.snd_una.max(seg.ack.min(self.snd_nxt));
            self.retries = 0;
            self.rto = RTO_INITIAL;
            self.cancel_timer(out);
            out.push(TcpOutput::Connected);
        }

        if seg.flags.ack {
            self.process_ack(now, &seg, out);
        }

        if seg.len > 0 {
            self.process_data(&seg, out);
            out.push(TcpOutput::Send(self.ack_segment()));
        }
        self.pump(now, out);
    }

    fn process_ack(&mut self, now: SimTime, seg: &TcpSegment, out: &mut Vec<TcpOutput>) {
        self.peer_window = seg.window;
        let ack = seg.ack.min(self.snd_nxt);

        if ack > self.snd_una {
            let acked = ack - self.snd_una;
            self.snd_una = ack;
            self.retries = 0;

            // RTT sampling (Karn-compliant: probe cleared on retransmit).
            if let Some((probe_end, sent_at)) = self.rtt_probe {
                if ack >= probe_end {
                    self.sample_rtt(now.saturating_since(sent_at));
                    self.rtt_probe = None;
                }
            }

            match self.recover {
                Some(point) if ack < point => {
                    // NewReno partial ack: the next hole is lost too.
                    self.retransmit_head(out);
                    self.cwnd = self.cwnd.saturating_sub(acked).max(MSS) + MSS;
                }
                _ => {
                    if self.recover.take().is_some() {
                        // Full recovery: deflate.
                        self.cwnd = self.ssthresh;
                    } else if self.cwnd < self.ssthresh {
                        self.cwnd += acked.min(MSS); // slow start
                    } else {
                        // Congestion avoidance: +mss per RTT.
                        self.cwnd += (MSS * MSS / self.cwnd).max(1);
                    }
                    self.dupacks = 0;
                }
            }

            if self.flight_size() == 0 {
                self.cancel_timer(out);
            } else {
                self.arm_timer(now, out);
            }
            self.trace_cwnd(now);
        } else if ack == self.snd_una && self.flight_size() > 0 && seg.len == 0 {
            self.dupacks += 1;
            if self.dupacks == 3 {
                // Fast retransmit + NewReno recovery.
                let flight = self.flight_size();
                self.ssthresh = (flight / 2).max(2 * MSS);
                self.cwnd = self.ssthresh + 3 * MSS;
                self.recover = Some(self.snd_nxt);
                self.rtt_probe = None;
                trace::with(|t| {
                    t.instant(now, "tcpsim", "fast_retransmit", Vec::new());
                    t.metrics_mut().counter_add("tcpsim.fast_retransmits", 1);
                });
                self.retransmit_head(out);
                self.trace_cwnd(now);
            } else if self.dupacks > 3 && self.recover.is_some() {
                self.cwnd += MSS; // inflation
            }
        }
    }

    fn process_data(&mut self, seg: &TcpSegment, out: &mut Vec<TcpOutput>) {
        let start = seg.seq;
        let end = seg.seq + seg.len;
        if end <= self.rcv_nxt {
            // Entirely old: the ACK we send is a duplicate.
        } else if start <= self.rcv_nxt {
            let fresh = end - self.rcv_nxt;
            self.rcv_nxt = end;
            self.readable += fresh;
            self.delivered_bytes += fresh;
            self.drain_ooo();
            out.push(TcpOutput::Readable);
        } else {
            // Out of order: buffer.
            let e = self.ooo.entry(start).or_insert(end);
            if *e < end {
                *e = end;
            }
        }
    }

    fn drain_ooo(&mut self) {
        loop {
            let Some((&start, &end)) = self.ooo.iter().next() else {
                return;
            };
            if start > self.rcv_nxt {
                return;
            }
            self.ooo.remove(&start);
            if end > self.rcv_nxt {
                let fresh = end - self.rcv_nxt;
                self.rcv_nxt = end;
                self.readable += fresh;
                self.delivered_bytes += fresh;
            }
        }
    }

    fn sample_rtt(&mut self, rtt: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let delta = if srtt > rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = (self.rttvar * 3) / 4 + delta / 4;
                self.srtt = Some((srtt * 7) / 8 + rtt / 8);
            }
        }
        let srtt = self.srtt.expect("just set");
        self.rto = (srtt + self.rttvar * 4)
            .max(RTO_MIN)
            .min(self.config.rto_max);
    }
}

/// Fires `conn`'s retransmission timer, collecting the effects.
#[cfg(test)]
fn on_timer(conn: &mut TcpConnection, now: SimTime) -> Vec<TcpOutput> {
    let mut out = Vec::new();
    conn.on_timer_into(now, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (TcpConnection, TcpConnection) {
        let client = TcpConnection::new(TcpConfig::linux(), 1000, 80);
        let mut server = TcpConnection::new(TcpConfig::lwip(), 80, 1000);
        server.listen();
        (client, server)
    }

    /// Drives two connections to completion over a perfect zero-latency
    /// wire, returning all app-visible notifications in order.
    fn run_lockstep(
        client: &mut TcpConnection,
        server: &mut TcpConnection,
        mut first: Vec<TcpOutput>,
        now: SimTime,
    ) -> Vec<&'static str> {
        let mut notes = Vec::new();
        let mut to_server: Vec<TcpSegment> = Vec::new();
        let mut to_client: Vec<TcpSegment> = Vec::new();
        let absorb = |outs: Vec<TcpOutput>,
                      tx: &mut Vec<TcpSegment>,
                      notes: &mut Vec<&'static str>,
                      who: &'static str| {
            for o in outs {
                match o {
                    TcpOutput::Send(s) => tx.push(s),
                    TcpOutput::Connected => notes.push(if who == "c" {
                        "client-connected"
                    } else {
                        "server-connected"
                    }),
                    TcpOutput::Readable => notes.push(if who == "c" {
                        "client-readable"
                    } else {
                        "server-readable"
                    }),
                    TcpOutput::Failed(_) => notes.push("failed"),
                    _ => {}
                }
            }
        };
        absorb(std::mem::take(&mut first), &mut to_server, &mut notes, "c");
        for _ in 0..200 {
            if to_server.is_empty() && to_client.is_empty() {
                break;
            }
            for seg in std::mem::take(&mut to_server) {
                let outs = server.on_segment(now, seg, false);
                absorb(outs, &mut to_client, &mut notes, "s");
            }
            for seg in std::mem::take(&mut to_client) {
                let outs = client.on_segment(now, seg, false);
                absorb(outs, &mut to_server, &mut notes, "c");
            }
        }
        notes
    }

    #[test]
    fn three_way_handshake() {
        let (mut c, mut s) = pair();
        let first = c.connect(SimTime::ZERO);
        let notes = run_lockstep(&mut c, &mut s, first, SimTime::ZERO);
        assert!(notes.contains(&"client-connected"));
        assert!(notes.contains(&"server-connected"));
        assert_eq!(c.state(), TcpState::Established);
        assert_eq!(s.state(), TcpState::Established);
    }

    #[test]
    fn data_transfer_delivers_bytes() {
        let (mut c, mut s) = pair();
        let first = c.connect(SimTime::ZERO);
        run_lockstep(&mut c, &mut s, first, SimTime::ZERO);
        let outs = c.write(SimTime::ZERO, 10_000);
        let notes = run_lockstep(&mut c, &mut s, outs, SimTime::ZERO);
        assert!(notes.contains(&"server-readable"));
        assert_eq!(s.readable_bytes(), 10_000);
        assert_eq!(s.read(4_000), 4_000);
        assert_eq!(s.readable_bytes(), 6_000);
        assert_eq!(c.flight_size(), 0, "everything acked");
    }

    #[test]
    fn write_respects_initial_cwnd() {
        let (mut c, mut s) = pair();
        let first = c.connect(SimTime::ZERO);
        run_lockstep(&mut c, &mut s, first, SimTime::ZERO);
        // Write far more than the initial window; only cwnd may fly.
        let outs = c.write(SimTime::ZERO, 1_000_000);
        let sent: u64 = outs
            .iter()
            .filter_map(|o| match o {
                TcpOutput::Send(s) => Some(s.len),
                _ => None,
            })
            .sum();
        assert_eq!(sent, c.cwnd.min(1_000_000));
        assert!(sent < 1_000_000);
    }

    #[test]
    fn syn_retransmits_with_backoff_then_fails() {
        let mut c = TcpConnection::new(TcpConfig::linux(), 1, 2);
        let outs = c.connect(SimTime::ZERO);
        let TcpOutput::SetTimer(t1) = outs[1] else {
            panic!("timer expected");
        };
        assert_eq!(t1, SimTime::from_secs(1));
        let mut deadline = t1;
        let mut failures = 0;
        let mut rtos = Vec::new();
        for _ in 0..10 {
            let outs = on_timer(&mut c, deadline);
            let mut next = None;
            for o in &outs {
                match o {
                    TcpOutput::SetTimer(t) => next = Some(*t),
                    TcpOutput::Failed(FailReason::ConnectTimeout) => failures += 1,
                    _ => {}
                }
            }
            match next {
                Some(t) => {
                    rtos.push(t.saturating_since(deadline));
                    deadline = t;
                }
                None => break,
            }
        }
        assert_eq!(failures, 1, "exactly one failure notification");
        assert_eq!(c.state(), TcpState::Failed);
        // Exponential backoff: 2s, 4s, 8s, ...
        assert_eq!(rtos[0], SimDuration::from_secs(2));
        assert_eq!(rtos[1], SimDuration::from_secs(4));
        assert_eq!(rtos[2], SimDuration::from_secs(8));
    }

    #[test]
    fn lost_data_recovered_by_rto() {
        let (mut c, mut s) = pair();
        let first = c.connect(SimTime::ZERO);
        run_lockstep(&mut c, &mut s, first, SimTime::ZERO);
        // Send one segment and lose it.
        let outs = c.write(SimTime::ZERO, 1000);
        let timer = outs.iter().find_map(|o| match o {
            TcpOutput::SetTimer(t) => Some(*t),
            _ => None,
        });
        let deadline = timer.expect("retransmission timer armed");
        // RTO fires; the retransmission reaches the server this time.
        let outs = on_timer(&mut c, deadline);
        let retx: Vec<TcpSegment> = outs
            .iter()
            .filter_map(|o| match o {
                TcpOutput::Send(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(retx.len(), 1);
        assert_eq!(retx[0].len, 1000);
        assert_eq!(c.cwnd, MSS, "timeout collapses cwnd");
        let notes = run_lockstep(&mut c, &mut s, outs, deadline);
        assert!(notes.contains(&"server-readable"));
        assert_eq!(s.readable_bytes(), 1000);
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit() {
        let (mut c, mut s) = pair();
        let first = c.connect(SimTime::ZERO);
        run_lockstep(&mut c, &mut s, first, SimTime::ZERO);
        let mss = MSS;
        // Send 5 segments; drop the first, deliver the rest.
        let outs = c.write(SimTime::ZERO, 5 * mss);
        let segs: Vec<TcpSegment> = outs
            .iter()
            .filter_map(|o| match o {
                TcpOutput::Send(sg) => Some(*sg),
                _ => None,
            })
            .collect();
        assert_eq!(segs.len(), 5);
        let mut acks = Vec::new();
        for seg in &segs[1..] {
            for o in s.on_segment(SimTime::ZERO, *seg, false) {
                if let TcpOutput::Send(a) = o {
                    acks.push(a);
                }
            }
        }
        // Four dupacks come back; the third triggers fast retransmit.
        let mut retransmitted = Vec::new();
        for a in acks {
            for o in c.on_segment(SimTime::ZERO, a, false) {
                if let TcpOutput::Send(sg) = o {
                    retransmitted.push(sg);
                }
            }
        }
        // Exactly once: the fourth dupack, in NewReno recovery, does not
        // resend the hole.
        assert_eq!(
            retransmitted
                .iter()
                .filter(|sg| sg.seq == segs[0].seq)
                .count(),
            1
        );
        // Deliver the retransmission: everything is acked cumulatively.
        let mut final_acks = Vec::new();
        for o in s.on_segment(SimTime::ZERO, retransmitted[0], false) {
            if let TcpOutput::Send(a) = o {
                final_acks.push(a);
            }
        }
        for a in final_acks {
            c.on_segment(SimTime::ZERO, a, false);
        }
        assert_eq!(c.flight_size(), 0);
        assert_eq!(s.readable_bytes(), 5 * mss);
    }

    #[test]
    fn out_of_order_data_reassembles() {
        let (mut c, mut s) = pair();
        let first = c.connect(SimTime::ZERO);
        run_lockstep(&mut c, &mut s, first, SimTime::ZERO);
        let mss = MSS;
        let outs = c.write(SimTime::ZERO, 3 * mss);
        let segs: Vec<TcpSegment> = outs
            .iter()
            .filter_map(|o| match o {
                TcpOutput::Send(sg) => Some(*sg),
                _ => None,
            })
            .collect();
        // Deliver in order 2, 0, 1.
        s.on_segment(SimTime::ZERO, segs[2], false);
        assert_eq!(s.readable_bytes(), 0, "gap holds delivery");
        s.on_segment(SimTime::ZERO, segs[0], false);
        assert_eq!(s.readable_bytes(), mss);
        s.on_segment(SimTime::ZERO, segs[1], false);
        assert_eq!(s.readable_bytes(), 3 * mss, "hole filled drains OOO");
    }

    #[test]
    fn data_retry_limit_fails_connection() {
        let cfg = TcpConfig {
            max_data_retries: 3,
            ..TcpConfig::linux()
        };
        let mut c = TcpConnection::new(cfg, 1, 2);
        let mut s = TcpConnection::new(TcpConfig::lwip(), 2, 1);
        s.listen();
        let first = c.connect(SimTime::ZERO);
        run_lockstep(&mut c, &mut s, first, SimTime::ZERO);
        let outs = c.write(SimTime::ZERO, 100);
        let mut deadline = outs
            .iter()
            .find_map(|o| match o {
                TcpOutput::SetTimer(t) => Some(*t),
                _ => None,
            })
            .expect("timer");
        let mut failed = false;
        for _ in 0..10 {
            let outs = on_timer(&mut c, deadline);
            let mut next = None;
            for o in outs {
                match o {
                    TcpOutput::SetTimer(t) => next = Some(t),
                    TcpOutput::Failed(FailReason::RetransmitLimit) => failed = true,
                    _ => {}
                }
            }
            match next {
                Some(t) => deadline = t,
                None => break,
            }
        }
        assert!(failed, "retry limit must fail the connection");
        assert_eq!(c.state(), TcpState::Failed);
    }

    #[test]
    fn rtt_sampling_tightens_rto() {
        let (mut c, mut s) = pair();
        let first = c.connect(SimTime::ZERO);
        run_lockstep(&mut c, &mut s, first, SimTime::ZERO);
        assert_eq!(c.rto, SimDuration::from_secs(1));
        // One send/ack exchange with a 10 ms RTT.
        let outs = c.write(SimTime::ZERO, 100);
        let seg = outs
            .iter()
            .find_map(|o| match o {
                TcpOutput::Send(sg) => Some(*sg),
                _ => None,
            })
            .expect("segment");
        let acks = s.on_segment(SimTime::from_millis(5), seg, false);
        let ack = acks
            .iter()
            .find_map(|o| match o {
                TcpOutput::Send(a) => Some(*a),
                _ => None,
            })
            .expect("ack");
        c.on_segment(SimTime::from_millis(10), ack, false);
        // RTO now reflects srtt + 4*rttvar, floored at rto_min.
        assert_eq!(c.rto, SimDuration::from_millis(200));
    }
}

#[cfg(test)]
mod congestion_tests {
    use super::*;

    /// cwnd grows while acks flow, collapses on timeout, and regrows
    /// past the new ssthresh into congestion avoidance.
    #[test]
    fn slow_start_then_congestion_avoidance() {
        let cfg = TcpConfig {
            initial_cwnd_segments: 2,
            ..TcpConfig::linux()
        };
        let mut c = TcpConnection::new(cfg, 1, 2);
        let mut s = TcpConnection::new(TcpConfig::lwip(), 2, 1);
        s.listen();
        let mut now = SimTime::ZERO;
        let mut timer: Option<SimTime> = None;

        // Shuttle helper: runs segments both ways, tracking the client's
        // retransmission timer.
        let shuttle = |c: &mut TcpConnection,
                       s: &mut TcpConnection,
                       first: Vec<TcpOutput>,
                       now: SimTime,
                       timer: &mut Option<SimTime>| {
            let mut wire: Vec<TcpSegment> = Vec::new();
            let absorb = |outs: Vec<TcpOutput>,
                          wire: &mut Vec<TcpSegment>,
                          timer: &mut Option<SimTime>,
                          from_client: bool| {
                for o in outs {
                    match o {
                        TcpOutput::Send(seg) => wire.push(seg),
                        TcpOutput::SetTimer(t) if from_client => *timer = Some(t),
                        TcpOutput::CancelTimer if from_client => *timer = None,
                        _ => {}
                    }
                }
            };
            absorb(first, &mut wire, timer, true);
            for _ in 0..200 {
                if wire.is_empty() {
                    break;
                }
                let mut next = Vec::new();
                for seg in wire.drain(..) {
                    let from_client = seg.dst_port != 2;
                    let outs = if seg.dst_port == 2 {
                        s.on_segment(now, seg, false)
                    } else {
                        c.on_segment(now, seg, false)
                    };
                    absorb(outs, &mut next, timer, !from_client);
                }
                wire = next;
            }
        };

        let first = c.connect(now);
        shuttle(&mut c, &mut s, first, now, &mut timer);
        assert_eq!(c.state(), TcpState::Established);

        // Slow start: each fully-acked flight grows cwnd roughly
        // exponentially.
        let mut growth = vec![c.cwnd];
        for _ in 0..4 {
            let outs = c.write(now, 64 * MSS);
            shuttle(&mut c, &mut s, outs, now, &mut timer);
            growth.push(c.cwnd);
        }
        assert!(
            growth.windows(2).all(|w| w[1] >= w[0]),
            "cwnd grows in slow start: {growth:?}"
        );
        assert!(
            *growth.last().expect("nonempty") >= growth[0] * 4,
            "growth is multiplicative early on: {growth:?}"
        );

        // Lose a flight: the timeout collapses cwnd to 1 MSS and halves
        // ssthresh.
        let before = c.cwnd;
        let outs = c.write(now, 4 * MSS);
        // Discard the segments (lost); keep the timer.
        for o in outs {
            if let TcpOutput::SetTimer(t) = o {
                timer = Some(t);
            }
        }
        now = timer.expect("retransmission timer armed");
        let outs = on_timer(&mut c, now);
        assert_eq!(c.cwnd, MSS, "timeout collapses cwnd");
        // Recover: keep delivering retransmissions (and firing the timer
        // when needed) until the flight clears.
        shuttle(&mut c, &mut s, outs, now, &mut timer);
        for _ in 0..20 {
            if c.flight_size() == 0 {
                break;
            }
            now = timer.expect("timer while data in flight");
            let outs = on_timer(&mut c, now);
            shuttle(&mut c, &mut s, outs, now, &mut timer);
        }
        assert_eq!(c.flight_size(), 0, "recovery completes");
        assert!(c.cwnd < before, "post-recovery window is modest");

        // Congestion avoidance: per-ack growth is mss^2/cwnd, so the
        // per-round deltas shrink as the window grows (concave), unlike
        // slow start's multiplicative (convex) trajectory.
        let mut ca = vec![c.cwnd];
        for _ in 0..3 {
            let outs = c.write(now, 64 * MSS);
            shuttle(&mut c, &mut s, outs, now, &mut timer);
            ca.push(c.cwnd);
        }
        let deltas: Vec<u64> = ca.windows(2).map(|w| w[1].saturating_sub(w[0])).collect();
        assert!(
            deltas.windows(2).all(|d| d[1] <= d[0]),
            "sublinear growth in congestion avoidance: {ca:?} (deltas {deltas:?})"
        );
    }
}
