//! Swap device and disk model.
//!
//! Major page faults go to secondary storage. The device charges a
//! latency per operation (seek-dominated for the paper's hard drive) plus
//! a transfer component, and tracks slot usage.

use simcore::time::SimDuration;
use simcore::units::Bandwidth;

/// Configuration of a secondary-storage device.
#[derive(Debug, Clone, Copy)]
pub struct DiskConfig {
    /// Fixed per-operation latency (seek + rotation for HDDs).
    pub access_latency: SimDuration,
    /// Sequential transfer bandwidth.
    pub bandwidth: Bandwidth,
}

impl DiskConfig {
    /// The paper's testbed uses a "single high-performance hard drive";
    /// ~5 ms access, 160 MB/s streaming is representative.
    #[must_use]
    pub fn hard_drive() -> Self {
        DiskConfig {
            access_latency: SimDuration::from_millis(5),
            bandwidth: Bandwidth::mbytes_per_sec(160),
        }
    }

    /// A fast NVMe-class device (for ablations).
    #[must_use]
    pub fn nvme() -> Self {
        DiskConfig {
            access_latency: SimDuration::from_micros(80),
            bandwidth: Bandwidth::mbytes_per_sec(3200),
        }
    }

    /// Byte-addressable non-volatile memory (Optane-class), used as the
    /// slow tier of a DRAM/NVM hierarchy. Far faster than any block
    /// device but still several times slower than DRAM.
    #[must_use]
    pub fn nvm() -> Self {
        DiskConfig {
            access_latency: SimDuration::from_micros(1),
            bandwidth: Bandwidth::mbytes_per_sec(8000),
        }
    }

    /// Time to read or write `bytes` in one operation.
    #[must_use]
    pub fn io_time(&self, bytes: u64) -> SimDuration {
        self.access_latency + self.bandwidth.transfer_time(bytes)
    }
}

/// A swap device: slot allocation plus the disk cost model.
#[derive(Debug, Clone)]
pub struct SwapDevice {
    config: DiskConfig,
    free_slots: Vec<u64>,
    next_slot: u64,
    capacity_slots: u64,
    pub(crate) used: u64,
}

impl SwapDevice {
    /// Creates a swap device with room for `capacity_slots` pages.
    #[must_use]
    pub fn new(config: DiskConfig, capacity_slots: u64) -> Self {
        SwapDevice {
            config,
            free_slots: Vec::new(),
            next_slot: 0,
            capacity_slots,
            used: 0,
        }
    }

    /// The underlying disk model.
    #[must_use]
    pub fn config(&self) -> DiskConfig {
        self.config
    }

    /// Writes a page out, returning the slot and the I/O time, or `None`
    /// when the device is full.
    pub fn swap_out(&mut self) -> Option<(u64, SimDuration)> {
        let slot = if let Some(s) = self.free_slots.pop() {
            s
        } else if self.next_slot < self.capacity_slots {
            let s = self.next_slot;
            self.next_slot += 1;
            s
        } else {
            return None;
        };
        self.used += 1;
        Some((slot, self.config.io_time(crate::types::PAGE_SIZE)))
    }

    /// Reads a page back in, freeing the slot, and returns the I/O time.
    ///
    /// # Panics
    ///
    /// Panics if no pages are swapped out (slot bookkeeping bug).
    pub fn swap_in(&mut self, slot: u64) -> SimDuration {
        assert!(self.used > 0, "swap_in with empty swap");
        self.used -= 1;
        self.free_slots.push(slot);
        self.config.io_time(crate::types::PAGE_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_time_includes_seek_and_transfer() {
        let d = DiskConfig::hard_drive();
        let t = d.io_time(4096);
        assert!(t > SimDuration::from_millis(5));
        assert!(t < SimDuration::from_millis(6));
        // A 512 KiB storage-workload read is transfer-dominated on NVMe.
        let n = DiskConfig::nvme();
        assert!(n.io_time(512 * 1024) < d.io_time(512 * 1024));
    }

    #[test]
    fn slots_recycle() {
        let mut s = SwapDevice::new(DiskConfig::hard_drive(), 2);
        let (a, _) = s.swap_out().expect("slot");
        let (b, _) = s.swap_out().expect("slot");
        assert_ne!(a, b);
        assert!(s.swap_out().is_none(), "capacity enforced");
        s.swap_in(a);
        let (c, _) = s.swap_out().expect("slot reuse");
        assert_eq!(c, a);
        assert_eq!(s.used, 2);
    }
}
