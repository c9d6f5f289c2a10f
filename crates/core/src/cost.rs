//! The calibrated cost model.
//!
//! Constants are calibrated against the paper's measurements (Figure 3,
//! Table 4): a minor NPF costs ≈220 µs for a 4 KB message — ~90 % of it
//! firmware — growing to ≈350 µs for a 4 MB message as the OS translates
//! 1024 pages; invalidations cost ≈25–65 µs. Tails (Table 4) come from
//! log-normal jitter on the hardware components.
//!
//! The model also prices the *alternatives* NPFs are compared against:
//! memory registration/pinning (for static/fine-grained/pin-down-cache
//! strategies) and CPU copying (for bounce-buffer designs).

use simcore::rng::SimRng;
use simcore::time::SimDuration;
use simcore::units::Bandwidth;

/// Breakdown of one NPF resolution, mirroring Figure 3(a)'s components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NpfBreakdown {
    /// (i)→(ii): the IOMMU observes the fault and the firmware raises
    /// the interrupt. Hardware only.
    pub trigger_interrupt: SimDuration,
    /// (ii)→(iii): the driver's NPF handler queries the OS for physical
    /// addresses (allocation/swap-in happens here). Software only.
    pub driver: SimDuration,
    /// (iii)→(iv): the driver updates the on-NIC IOMMU page tables
    /// (coherency traffic). Software + hardware.
    pub update_hw_pt: SimDuration,
    /// (iv)→(v): the NIC identifies the update and resumes. Hardware
    /// only.
    pub resume: SimDuration,
}

impl NpfBreakdown {
    /// Total latency of the fault.
    #[must_use]
    pub fn total(&self) -> SimDuration {
        self.trigger_interrupt + self.driver + self.update_hw_pt + self.resume
    }
}

/// Breakdown of one invalidation, mirroring Figure 3(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidationBreakdown {
    /// Driver checks whether the page was ever mapped in the IOMMU.
    pub checks: SimDuration,
    /// IOMMU page-table update + invalidation command (absent when the
    /// page was not mapped — mapping is lazy, §4).
    pub update_hw_pt: SimDuration,
    /// Driver internal-state updates.
    pub updates: SimDuration,
}

impl InvalidationBreakdown {
    /// Total latency of the invalidation.
    #[must_use]
    pub fn total(&self) -> SimDuration {
        self.checks + self.update_hw_pt + self.updates
    }
}

/// The costs of the NPF engine and its competitors. There is one
/// instance, the calibrated [`COST`]: no configuration carries a cost
/// model.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    // --- NPF path (Figure 3a) ---
    /// Firmware fault-detection + interrupt trigger.
    pub fault_trigger_hw: SimDuration,
    /// Fixed driver software cost per fault event.
    pub driver_sw_base: SimDuration,
    /// Driver/OS software cost per page resolved.
    pub driver_sw_per_page: SimDuration,
    /// Fixed hardware page-table update cost (doorbell + coherency).
    pub update_pt_base: SimDuration,
    /// Per-page page-table write cost.
    pub update_pt_per_page: SimDuration,
    /// Firmware resume cost (slow path).
    pub resume_hw: SimDuration,
    /// Resume cost when the firmware-bypass optimization is on (§4's
    /// second optimization: hardware resumes before the firmware
    /// bookkeeping completes).
    pub resume_hw_bypassed: SimDuration,
    /// Log-normal sigma applied to the hardware components (Table 4
    /// tails).
    pub hw_jitter_sigma: f64,
    /// Probability that a fault hits a slow firmware path (error-path
    /// contention), multiplying the hardware components.
    pub hw_outlier_probability: f64,
    /// Multiplier applied on an outlier.
    pub hw_outlier_factor: f64,

    // --- Huge pages / prefetch (ROADMAP §4-beyond optimizations) ---
    /// Fixed driver cost of folding 512 resident 4 KiB PTEs into one
    /// 2 MiB leaf (collapse scan + single PT rewrite + shadowed-entry
    /// teardown). Per-page writes are priced at `update_pt_per_page`.
    pub promote_2m_base: SimDuration,
    /// Fixed driver cost of splitting a 2 MiB leaf back into 512
    /// 4 KiB PTEs on partial unmap/eviction.
    pub demote_2m_base: SimDuration,
    /// Driver cost of issuing one speculative pre-fault (NP-RDMA-style
    /// driver-level pre-validation: no NIC interrupt, no firmware
    /// resume). Per-page resolution is priced at `driver_sw_per_page`.
    pub prefetch_issue_base: SimDuration,

    // --- Invalidation path (Figure 3b) ---
    /// Driver mapping check.
    pub inv_checks: SimDuration,
    /// IOMMU PT update + invalidate command, when mapped.
    pub inv_update_pt_base: SimDuration,
    /// Per-page component of the above.
    pub inv_update_pt_per_page: SimDuration,
    /// Driver state updates.
    pub inv_updates: SimDuration,

    // --- Registration / pinning (the competition, §2.2) ---
    /// Fixed cost of a memory-registration verb.
    pub mr_register_base: SimDuration,
    /// Per-page cost of pinning + IOMMU mapping during registration.
    pub pin_per_page: SimDuration,
    /// Per-page cost of unpinning + IOMMU unmapping.
    pub unpin_per_page: SimDuration,
    /// Pin-down-cache lookup cost (hit path).
    pub pindown_lookup: SimDuration,

    // --- Copying (bounce-buffer designs) ---
    /// Single-core memcpy bandwidth.
    pub memcpy_bandwidth: Bandwidth,

    // --- Driver misc ---
    /// Interrupt dispatch cost (any vector).
    pub interrupt_dispatch: SimDuration,
    /// Per-packet software cost of the backup-ring resolver (queue
    /// handling, bookkeeping), excluding the copy itself.
    pub backup_resolver_per_packet: SimDuration,
}

/// The calibrated cost model every engine prices with.
pub const COST: CostModel = CostModel {
    // 100 + 10 + 20 + 90 = 220 us for a 1-page minor fault;
    // + 1024 pages * (115 + 12) ns ≈ 350 us for 4 MB (Figure 3a).
    fault_trigger_hw: SimDuration::from_micros(100),
    driver_sw_base: SimDuration::from_micros(10),
    driver_sw_per_page: SimDuration::from_nanos(115),
    update_pt_base: SimDuration::from_micros(20),
    update_pt_per_page: SimDuration::from_nanos(12),
    resume_hw: SimDuration::from_micros(90),
    resume_hw_bypassed: SimDuration::from_micros(25),
    hw_jitter_sigma: 0.08,
    hw_outlier_probability: 0.004,
    hw_outlier_factor: 2.1,
    promote_2m_base: SimDuration::from_micros(15),
    demote_2m_base: SimDuration::from_micros(8),
    prefetch_issue_base: SimDuration::from_micros(2),
    // 5 + 15 + 5 = 25 us for a mapped 4 KB invalidation, ~65 us
    // at 4 MB (Figure 3b).
    inv_checks: SimDuration::from_micros(5),
    inv_update_pt_base: SimDuration::from_micros(15),
    inv_update_pt_per_page: SimDuration::from_nanos(35),
    inv_updates: SimDuration::from_micros(5),
    mr_register_base: SimDuration::from_micros(2),
    pin_per_page: SimDuration::from_nanos(270),
    unpin_per_page: SimDuration::from_nanos(200),
    pindown_lookup: SimDuration::from_nanos(150),
    memcpy_bandwidth: Bandwidth::gbps(40), // 5 GB/s per core
    interrupt_dispatch: SimDuration::from_micros(2),
    backup_resolver_per_packet: SimDuration::from_micros(1),
};

impl CostModel {
    /// Samples the breakdown of one NPF resolving `pages` pages.
    /// `os_cost` is the memory subsystem's own cost (zero-fill, swap-in,
    /// page-cache miss) measured by `memsim`; it lands in the driver
    /// component. `bypass` selects the fast resume path.
    pub fn npf(
        &self,
        pages: u64,
        os_cost: SimDuration,
        bypass: bool,
        rng: &mut SimRng,
    ) -> NpfBreakdown {
        let pages = pages.max(1);
        let resume = if bypass {
            self.resume_hw_bypassed
        } else {
            self.resume_hw
        };
        // Rare slow firmware path (the error-path circuitry is shared
        // and can be busy): stretches the hardware components, giving
        // Table 4 its ~2x max-over-median tail.
        let outlier = if rng.chance(self.hw_outlier_probability) {
            self.hw_outlier_factor
        } else {
            1.0
        };
        NpfBreakdown {
            trigger_interrupt: rng
                .lognormal_jitter(self.fault_trigger_hw, self.hw_jitter_sigma)
                .mul_f64(outlier),
            driver: self.driver_sw_base + self.driver_sw_per_page * pages + os_cost,
            update_hw_pt: rng.lognormal_jitter(
                self.update_pt_base + self.update_pt_per_page * pages,
                self.hw_jitter_sigma,
            ),
            resume: rng
                .lognormal_jitter(resume, self.hw_jitter_sigma)
                .mul_f64(outlier),
        }
    }

    /// The breakdown of invalidating `pages` pages; `was_mapped` is
    /// whether any IOMMU entry existed (unmapped invalidations skip the
    /// hardware update, Figure 3b).
    #[must_use]
    pub fn invalidation(&self, pages: u64, was_mapped: bool) -> InvalidationBreakdown {
        InvalidationBreakdown {
            checks: self.inv_checks,
            update_hw_pt: if was_mapped {
                self.inv_update_pt_base + self.inv_update_pt_per_page * pages.max(1)
            } else {
                SimDuration::ZERO
            },
            updates: self.inv_updates,
        }
    }

    /// Deterministic cost of promoting one chunk of 512 resident
    /// 4 KiB PTEs into a 2 MiB leaf. No jitter: promotion runs in
    /// driver context off the fault critical path.
    #[must_use]
    pub fn huge_promote(&self) -> SimDuration {
        self.promote_2m_base + self.update_pt_per_page * 512
    }

    /// Deterministic cost of demoting (splitting) one 2 MiB leaf back
    /// into 512 4 KiB PTEs.
    #[must_use]
    pub fn huge_demote(&self) -> SimDuration {
        self.demote_2m_base + self.update_pt_per_page * 512
    }

    /// Deterministic driver cost of issuing one speculative pre-fault
    /// covering `pages` pages. Speculative faults are driver-initiated
    /// (no NIC interrupt, no firmware resume), so only the software
    /// components apply and no RNG is drawn.
    #[must_use]
    pub fn prefetch_issue(&self, pages: u64) -> SimDuration {
        self.prefetch_issue_base + self.driver_sw_per_page * pages.max(1)
    }

    /// Cost of registering (pinning + mapping) `pages` pages.
    #[must_use]
    pub fn register_pinned(&self, pages: u64) -> SimDuration {
        self.mr_register_base + self.pin_per_page * pages
    }

    /// Cost of deregistering (unpinning + unmapping) `pages` pages.
    #[must_use]
    pub fn deregister_pinned(&self, pages: u64) -> SimDuration {
        self.unpin_per_page * pages
    }

    /// Cost of copying `bytes` with the CPU.
    #[must_use]
    pub fn memcpy(&self, bytes: u64) -> SimDuration {
        self.memcpy_bandwidth.transfer_time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minor_4kb_fault_near_220us() {
        let m = COST;
        let mut rng = SimRng::new(1);
        let mut total = 0f64;
        let n = 200;
        for _ in 0..n {
            total += m
                .npf(1, SimDuration::ZERO, false, &mut rng)
                .total()
                .as_micros_f64();
        }
        let avg = total / f64::from(n);
        assert!(
            (200.0..240.0).contains(&avg),
            "4 KB minor NPF should average ~220 us, got {avg:.1}"
        );
    }

    #[test]
    fn fault_4mb_near_350us_and_software_grows() {
        let m = COST;
        let mut rng = SimRng::new(2);
        let mut total = 0f64;
        let n = 200;
        for _ in 0..n {
            total += m
                .npf(1024, SimDuration::from_micros(0), false, &mut rng)
                .total()
                .as_micros_f64();
        }
        let avg = total / f64::from(n);
        assert!(
            (320.0..380.0).contains(&avg),
            "4 MB minor NPF should average ~350 us, got {avg:.1}"
        );
    }

    #[test]
    fn hardware_dominates_small_faults() {
        let m = COST;
        let mut rng = SimRng::new(3);
        let b = m.npf(1, SimDuration::ZERO, false, &mut rng);
        let hw = b.trigger_interrupt + b.resume + b.update_hw_pt / 2;
        let fraction = hw.as_secs_f64() / b.total().as_secs_f64();
        assert!(fraction > 0.85, "paper: ~90% firmware, got {fraction:.2}");
    }

    #[test]
    fn bypass_resume_is_faster() {
        let m = COST;
        let mut r1 = SimRng::new(4);
        let mut r2 = SimRng::new(4);
        let slow = m.npf(1, SimDuration::ZERO, false, &mut r1);
        let fast = m.npf(1, SimDuration::ZERO, true, &mut r2);
        assert!(fast.total() < slow.total());
    }

    #[test]
    fn invalidation_costs_match_figure_3b() {
        let m = COST;
        let mapped_4k = m.invalidation(1, true).total();
        assert!(
            (20.0..30.0).contains(&mapped_4k.as_micros_f64()),
            "4 KB mapped invalidation ~25 us, got {mapped_4k}"
        );
        let mapped_4m = m.invalidation(1024, true).total();
        assert!(
            (55.0..75.0).contains(&mapped_4m.as_micros_f64()),
            "4 MB mapped invalidation ~60 us, got {mapped_4m}"
        );
        let unmapped = m.invalidation(1, false).total();
        assert!(unmapped < mapped_4k, "unmapped skips the hardware update");
    }

    #[test]
    fn registration_scales_with_pages() {
        let m = COST;
        assert!(m.register_pinned(1024) > m.register_pinned(1) * 100);
        assert!(m.deregister_pinned(10) < m.register_pinned(10));
    }

    #[test]
    fn huge_page_ops_are_deterministic_and_cheaper_than_a_fault() {
        let m = COST;
        // ~15 + 512*0.012 ≈ 21 us promote; ~8 + 6 ≈ 14 us demote.
        assert_eq!(m.huge_promote(), m.huge_promote());
        assert!((18.0..25.0).contains(&m.huge_promote().as_micros_f64()));
        assert!((10.0..18.0).contains(&m.huge_demote().as_micros_f64()));
        // Both are far below one 220 us NPF — the optimization pays off
        // after a single avoided fault.
        assert!(m.huge_promote().as_micros_f64() < 100.0);
    }

    #[test]
    fn prefetch_issue_is_software_only_cheap() {
        let m = COST;
        let one = m.prefetch_issue(1);
        let eight = m.prefetch_issue(8);
        assert_eq!(one, m.prefetch_issue(1), "no RNG involved");
        assert!(eight > one, "per-page component grows");
        // Orders of magnitude below the 220 us demand fault it hides.
        assert!(eight.as_micros_f64() < 10.0, "got {eight}");
    }

    #[test]
    fn memcpy_prices_by_bandwidth() {
        let m = COST;
        // 5 GB/s => 128 KiB ≈ 26 us.
        let t = m.memcpy(128 * 1024).as_micros_f64();
        assert!((20.0..35.0).contains(&t), "got {t}");
    }
}
