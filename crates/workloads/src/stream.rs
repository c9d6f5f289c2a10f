//! Stream (maximum-bandwidth) benchmarks for the what-if analysis
//! (§6.4, Figure 10).
//!
//! The sender transmits fixed-size messages continuously; the receiver
//! counts delivered bytes. Synthetic rNPFs are injected by a
//! [`SyntheticFaults`] generator at a configurable per-packet
//! frequency; both benchmarks "pre-fault the receive ring at startup to
//! eliminate the cold ring problem", which maps to starting the
//! generator only after warm-up.

use simcore::rng::SimRng;
use simcore::time::SimTime;

/// Configuration of a stream run.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Message size the sender loops on (the paper uses 64 KB).
    pub message_bytes: u64,
    /// Synthetic rNPF probability per received packet (the paper sweeps
    /// 2⁻¹⁰ … 2⁻³⁰).
    pub fault_frequency: f64,
    /// Whether injected faults are major (disk) or minor.
    pub major_faults: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            message_bytes: 64 * 1024,
            fault_frequency: 0.0,
            major_faults: false,
        }
    }
}

/// Per-packet synthetic fault generator.
#[derive(Debug)]
pub struct SyntheticFaults {
    frequency: f64,
    rng: SimRng,
    injected: u64,
    armed: bool,
}

impl SyntheticFaults {
    /// Creates a generator injecting with probability `frequency` per
    /// packet. Starts disarmed (cold-ring warm-up); call
    /// [`SyntheticFaults::arm`] once the ring is warm.
    #[must_use]
    pub fn new(frequency: f64, rng: SimRng) -> Self {
        SyntheticFaults {
            frequency,
            rng,
            injected: 0,
            armed: false,
        }
    }

    /// Starts injecting.
    pub fn arm(&mut self) {
        self.armed = true;
    }

    /// Faults injected so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Decides whether this packet hits a synthetic rNPF.
    pub fn should_fault(&mut self) -> bool {
        if !self.armed || self.frequency <= 0.0 {
            return false;
        }
        let hit = self.rng.chance(self.frequency);
        if hit {
            self.injected += 1;
        }
        hit
    }
}

/// Receiver-side byte counter and goodput calculator.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamReceiver {
    bytes: u64,
    messages: u64,
    started: Option<SimTime>,
    last: Option<SimTime>,
}

impl StreamReceiver {
    /// Creates an idle receiver.
    #[must_use]
    pub fn new() -> Self {
        StreamReceiver::default()
    }

    /// Records delivery of `bytes` at `now`.
    pub fn deliver(&mut self, now: SimTime, bytes: u64) {
        if self.started.is_none() {
            self.started = Some(now);
        }
        self.last = Some(now);
        self.bytes += bytes;
        self.messages += 1;
    }

    /// Total bytes delivered.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Messages delivered.
    #[must_use]
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Goodput in Gb/s between the first and last delivery.
    #[must_use]
    pub fn goodput_gbps(&self) -> f64 {
        match (self.started, self.last) {
            (Some(a), Some(b)) if b > a => {
                (self.bytes as f64 * 8.0) / b.saturating_since(a).as_secs_f64() / 1e9
            }
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimDuration;

    #[test]
    fn disarmed_generator_never_faults() {
        let mut g = SyntheticFaults::new(1.0, SimRng::new(1));
        for _ in 0..100 {
            assert!(!g.should_fault());
        }
        g.arm();
        assert!(g.should_fault(), "p=1 always faults once armed");
        assert_eq!(g.injected(), 1);
    }

    #[test]
    fn frequency_is_respected() {
        let mut g = SyntheticFaults::new(1.0 / 64.0, SimRng::new(2));
        g.arm();
        let n = 64_000;
        let hits = (0..n).filter(|_| g.should_fault()).count();
        assert!(
            (700..1300).contains(&hits),
            "expected ~1000 faults, got {hits}"
        );
    }

    #[test]
    fn goodput_computation() {
        let mut r = StreamReceiver::new();
        let t0 = SimTime::from_secs(1);
        r.deliver(t0, 0); // start marker
        r.deliver(t0 + SimDuration::from_secs(1), 1_250_000_000);
        // 1.25 GB in 1 s = 10 Gb/s.
        assert!((r.goodput_gbps() - 10.0).abs() < 1e-9);
        assert_eq!(r.messages(), 2);
    }

    #[test]
    fn empty_receiver_reports_zero() {
        let r = StreamReceiver::new();
        assert_eq!(r.goodput_gbps(), 0.0);
        assert_eq!(r.bytes(), 0);
    }
}
