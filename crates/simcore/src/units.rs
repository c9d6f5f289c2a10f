//! Bandwidth and byte-size units.
//!
//! [`Bandwidth`] converts between link rates and serialization delays;
//! [`ByteSize`] gives readable constructors for buffer/memory sizes.
//!
//! # Examples
//!
//! ```
//! use simcore::units::{Bandwidth, ByteSize};
//! use simcore::time::SimDuration;
//!
//! let link = Bandwidth::gbps(10);
//! // 1250 bytes at 10 Gb/s serialize in exactly 1 us.
//! assert_eq!(link.transfer_time(1250), SimDuration::from_micros(1));
//! assert_eq!(ByteSize::mib(4).bytes(), 4 * 1024 * 1024);
//! ```

use std::fmt;

use crate::time::SimDuration;

/// A data rate in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Zero rate (a disabled link).
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// Bits per byte times nanoseconds per second.
    const NANOBITS_PER_BYTE: u64 = 8 * 1_000_000_000;

    /// Creates a rate from gigabits per second.
    #[must_use]
    pub const fn gbps(gigabits_per_sec: u64) -> Self {
        Bandwidth(gigabits_per_sec * 1_000_000_000)
    }

    /// Creates a rate from megabytes per second.
    #[must_use]
    pub const fn mbytes_per_sec(mb: u64) -> Self {
        Bandwidth(mb * 8_000_000)
    }

    /// Time to serialize `bytes` at this rate.
    ///
    /// Returns [`SimDuration::MAX`] for a zero rate, modelling a link that
    /// never completes a transfer.
    #[must_use]
    pub fn transfer_time(self, bytes: u64) -> SimDuration {
        if self.0 == 0 {
            return SimDuration::MAX;
        }
        // nanos = bytes * 8 * 1e9 / bits_per_sec. Every packet and
        // segment fits the u64 product (up to ~2.3 GB); larger
        // transfers take the u128 division so they cannot overflow.
        match bytes.checked_mul(Self::NANOBITS_PER_BYTE) {
            Some(nanobits) => SimDuration::from_nanos(nanobits / self.0),
            None => self.transfer_time_wide(bytes),
        }
    }

    /// [`Bandwidth::transfer_time`] in u128, saturating: correct for any
    /// `bytes` and a non-zero rate.
    fn transfer_time_wide(self, bytes: u64) -> SimDuration {
        let nanos = bytes as u128 * Self::NANOBITS_PER_BYTE as u128 / self.0 as u128;
        SimDuration::from_nanos(nanos.min(u64::MAX as u128) as u64)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}Gb/s", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2}Mb/s", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}b/s", self.0)
        }
    }
}

/// A size in bytes with binary-unit constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size from raw bytes.
    #[must_use]
    pub const fn bytes_exact(n: u64) -> Self {
        ByteSize(n)
    }

    /// Creates a size of `n` KiB.
    #[must_use]
    pub const fn kib(n: u64) -> Self {
        ByteSize(n * 1024)
    }

    /// Creates a size of `n` MiB.
    #[must_use]
    pub const fn mib(n: u64) -> Self {
        ByteSize(n * 1024 * 1024)
    }

    /// Creates a size of `n` GiB.
    #[must_use]
    pub const fn gib(n: u64) -> Self {
        ByteSize(n * 1024 * 1024 * 1024)
    }

    /// The size in bytes.
    #[must_use]
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// The size in whole 4 KiB pages, rounding up.
    #[must_use]
    pub const fn pages(self) -> u64 {
        self.0.div_ceil(4096)
    }

    /// The size in GiB as a float.
    #[must_use]
    pub fn as_gib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// Saturating addition.
    #[must_use]
    pub const fn saturating_add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[must_use]
    pub const fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const GIB: u64 = 1024 * 1024 * 1024;
        const MIB: u64 = 1024 * 1024;
        const KIB: u64 = 1024;
        if self.0 >= GIB {
            write!(f, "{:.2}GiB", self.0 as f64 / GIB as f64)
        } else if self.0 >= MIB {
            write!(f, "{:.2}MiB", self.0 as f64 / MIB as f64)
        } else if self.0 >= KIB {
            write!(f, "{:.2}KiB", self.0 as f64 / KIB as f64)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_matches_rate() {
        // 56 Gb/s InfiniBand: a 4096-byte MTU packet takes 585 ns.
        let ib = Bandwidth::gbps(56);
        assert_eq!(ib.transfer_time(4096), SimDuration::from_nanos(585));
        // 12 Gb/s prototype Ethernet: a 1500-byte frame takes 1000 ns.
        let eth = Bandwidth::gbps(12);
        assert_eq!(eth.transfer_time(1500), SimDuration::from_nanos(1000));
    }

    #[test]
    fn narrow_and_wide_transfer_times_agree() {
        // The u64 path is taken up to and including `limit`; the u128
        // formula is right everywhere, so the two must meet.
        let limit = u64::MAX / Bandwidth::NANOBITS_PER_BYTE;
        let rates = [Bandwidth(1)]
            .into_iter()
            .chain([12, 56, 100].map(Bandwidth::gbps));
        for rate in rates {
            for bytes in [0, 1, 4096, limit - 1, limit, limit + 1, u64::MAX] {
                assert_eq!(
                    rate.transfer_time(bytes),
                    rate.transfer_time_wide(bytes),
                    "{bytes} bytes at {rate:?}"
                );
            }
        }
        assert!(limit.checked_mul(Bandwidth::NANOBITS_PER_BYTE).is_some());
        assert!((limit + 1)
            .checked_mul(Bandwidth::NANOBITS_PER_BYTE)
            .is_none());
        assert_eq!(Bandwidth::ZERO.transfer_time(4096), SimDuration::MAX);
    }

    #[test]
    fn zero_bandwidth_never_completes() {
        assert_eq!(Bandwidth::ZERO.transfer_time(1), SimDuration::MAX);
    }

    #[test]
    fn bytesize_units() {
        assert_eq!(ByteSize::kib(4).bytes(), 4096);
        assert_eq!(ByteSize::mib(1).pages(), 256);
        assert_eq!(ByteSize::bytes_exact(1).pages(), 1);
        assert_eq!(ByteSize::bytes_exact(4097).pages(), 2);
        assert_eq!(ByteSize::gib(3).as_gib_f64(), 3.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Bandwidth::gbps(56).to_string(), "56.00Gb/s");
        assert_eq!(Bandwidth(100_000_000).to_string(), "100.00Mb/s");
        assert_eq!(ByteSize::mib(4).to_string(), "4.00MiB");
        assert_eq!(ByteSize::bytes_exact(12).to_string(), "12B");
    }

    #[test]
    fn saturating_size_math() {
        let a = ByteSize::mib(1);
        let b = ByteSize::mib(3);
        assert_eq!(a.saturating_sub(b), ByteSize::ZERO);
        assert_eq!(a.saturating_add(b), ByteSize::mib(4));
    }
}
