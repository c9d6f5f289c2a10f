//! Seeded randomness for reproducible simulations.
//!
//! All stochastic behaviour in the simulator (jitter, workload key
//! selection, loss) draws from a [`SimRng`] so that a run is fully
//! determined by its seed.
//!
//! # Examples
//!
//! ```
//! use simcore::rng::SimRng;
//!
//! let mut a = SimRng::new(42);
//! let mut b = SimRng::new(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

use crate::time::SimDuration;

/// The xoshiro256++ generator: fast, high-quality, and — crucially for
/// this workspace — self-contained, so simulation streams never shift
/// underneath us when an external crate changes its algorithm.
#[derive(Debug, Clone)]
struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Expands a 64-bit seed into the full state with SplitMix64, the
    /// seeding procedure recommended by the xoshiro authors.
    fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro256pp {
            s: [next(), next(), next(), next()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// A deterministic random number generator for simulations.
///
/// Wraps an embedded xoshiro256++ with convenience samplers used across
/// the workloads: uniform ranges, Bernoulli trials, and log-normal
/// latency jitter.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: Xoshiro256pp,
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: Xoshiro256pp::from_seed(seed),
            seed,
        }
    }

    /// The seed this generator was created with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child generator; useful for giving each
    /// component its own stream so adding draws in one component does not
    /// perturb another.
    #[must_use]
    pub fn fork(&mut self, label: u64) -> SimRng {
        let child = self
            .inner
            .next_u64()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(label);
        SimRng::new(child)
    }

    /// A uniformly random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// A uniformly random value in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire's unbiased multiply-shift rejection method.
        let mut m = u128::from(self.inner.next_u64()) * u128::from(n);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                m = u128::from(self.inner.next_u64()) * u128::from(n);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniformly random value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// A uniformly random float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits, the standard [0, 1) construction.
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli trial that succeeds with probability `p` (clamped to
    /// `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// A log-normally jittered duration around `base`: the result has
    /// median `base` and sigma controlling tail heaviness. Used to model
    /// the latency tails of Table 4.
    pub fn lognormal_jitter(&mut self, base: SimDuration, sigma: f64) -> SimDuration {
        // Box-Muller transform; two uniforms -> one standard normal.
        let u1 = (1.0 - self.unit()).max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        SimDuration::from_secs_f64(base.as_secs_f64() * (sigma * z).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        let mut fa = a.fork(1);
        let mut fb = b.fork(1);
        assert_eq!(fa.next_u64(), fb.next_u64());
        // Drawing from the fork does not perturb the parent.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn lognormal_median_near_base() {
        let mut r = SimRng::new(13);
        let base = SimDuration::from_micros(220);
        let mut samples: Vec<u64> = (0..10_001)
            .map(|_| r.lognormal_jitter(base, 0.1).as_nanos())
            .collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2] as f64;
        assert!((median / base.as_nanos() as f64 - 1.0).abs() < 0.05);
    }
}
