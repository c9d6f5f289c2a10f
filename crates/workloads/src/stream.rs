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

/// Receiver-side byte counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamReceiver {
    bytes: u64,
}

impl StreamReceiver {
    /// Creates an idle receiver.
    #[must_use]
    pub fn new() -> Self {
        StreamReceiver::default()
    }

    /// Records delivery of `bytes`.
    pub fn deliver(&mut self, bytes: u64) {
        self.bytes += bytes;
    }

    /// Total bytes delivered.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn deliveries_accumulate_bytes() {
        let mut r = StreamReceiver::new();
        r.deliver(0);
        r.deliver(1_250_000_000);
        assert_eq!(r.bytes(), 1_250_000_000);
    }

    #[test]
    fn empty_receiver_reports_zero() {
        let r = StreamReceiver::new();
        assert_eq!(r.bytes(), 0);
    }
}
