//! A k-core CPU pool.
//!
//! Models the server's cores (the paper's Ethernet testbed has four) as
//! a set of next-free horizons: a work item starts on the earliest-free
//! core, no earlier than `now`, and runs for its duration. Contention
//! emerges as later start times.

use simcore::time::{SimDuration, SimTime};

/// A pool of identical cores.
#[derive(Debug, Clone)]
pub struct CpuPool {
    next_free: Vec<SimTime>,
}

impl CpuPool {
    /// Creates a pool of `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics when `cores == 0`.
    #[must_use]
    pub fn new(cores: u32) -> Self {
        assert!(cores > 0, "a host needs at least one core");
        CpuPool {
            next_free: vec![SimTime::ZERO; cores as usize],
        }
    }

    /// Runs a work item of `duration` submitted at `now`; returns its
    /// completion time.
    pub fn run(&mut self, now: SimTime, duration: SimDuration) -> SimTime {
        let core = self
            .next_free
            .iter_mut()
            .min()
            .expect("pool has at least one core");
        let start = (*core).max(now);
        let end = start + duration;
        *core = end;
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_work_uses_all_cores() {
        let mut p = CpuPool::new(2);
        let d = SimDuration::from_micros(10);
        let a = p.run(SimTime::ZERO, d);
        let b = p.run(SimTime::ZERO, d);
        let c = p.run(SimTime::ZERO, d);
        assert_eq!(a, SimTime::from_micros(10));
        assert_eq!(b, SimTime::from_micros(10));
        assert_eq!(c, SimTime::from_micros(20), "third item queues");
    }

    #[test]
    fn idle_cores_start_at_now() {
        let mut p = CpuPool::new(1);
        p.run(SimTime::ZERO, SimDuration::from_micros(5));
        let end = p.run(SimTime::from_micros(100), SimDuration::from_micros(5));
        assert_eq!(end, SimTime::from_micros(105));
    }
}
