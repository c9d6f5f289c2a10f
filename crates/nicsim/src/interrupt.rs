//! Interrupt moderation (coalescing).
//!
//! The backup ring "enjoys standard optimizations such as interrupt
//! coalescing and NAPI" (§5). The moderator rate-limits interrupt
//! delivery per vector: an interrupt requested within the holdoff
//! window of the previous one is deferred to the window's end, and
//! further requests merge into the deferred one.

use simcore::chaos::{ChaosEngine, InterruptFate};
use simcore::time::{SimDuration, SimTime};
use simcore::trace::{self, ArgValue};

/// Decision for one interrupt request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterruptDecision {
    /// Deliver at the given time (possibly immediately).
    FireAt(SimTime),
    /// Already scheduled; this request merged into the pending one.
    Coalesced,
}

/// A per-vector interrupt moderator.
#[derive(Debug, Clone, Copy)]
pub struct InterruptModerator {
    holdoff: SimDuration,
    last_fired: Option<SimTime>,
    pending_at: Option<SimTime>,
    delivered: u64,
    coalesced: u64,
    lost: u64,
    delayed: u64,
}

impl InterruptModerator {
    /// Creates a moderator with the given holdoff window. A zero
    /// holdoff delivers every interrupt immediately.
    #[must_use]
    pub fn new(holdoff: SimDuration) -> Self {
        InterruptModerator {
            holdoff,
            last_fired: None,
            pending_at: None,
            delivered: 0,
            coalesced: 0,
            lost: 0,
            delayed: 0,
        }
    }

    /// Interrupts delivered.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Requests an interrupt at `now`. The caller schedules an event at
    /// the returned time for `FireAt` and must then call
    /// [`InterruptModerator::fired`] when it delivers.
    pub fn request(&mut self, now: SimTime) -> InterruptDecision {
        if self.pending_at.is_some() {
            self.coalesced += 1;
            return InterruptDecision::Coalesced;
        }
        let at = match self.last_fired {
            Some(last) if now.saturating_since(last) < self.holdoff => last + self.holdoff,
            _ => now,
        };
        self.pending_at = Some(at);
        InterruptDecision::FireAt(at)
    }

    /// [`InterruptModerator::request`] with fault injection: the fire
    /// time of a granted interrupt is perturbed by one
    /// [`InterruptFate`] drawn from the chaos engine's interrupt
    /// stream. A *lost* interrupt is redelivered at the watchdog
    /// timeout (as on real NICs), so the system stays live but eats the
    /// latency hole; a *delayed* one is merely late. Coalesced requests
    /// are untouched — the pending delivery already has its fate.
    pub fn request_chaos(&mut self, now: SimTime, chaos: &mut ChaosEngine) -> InterruptDecision {
        match self.request(now) {
            InterruptDecision::Coalesced => InterruptDecision::Coalesced,
            InterruptDecision::FireAt(at) => {
                let at = match chaos.interrupt_fate() {
                    InterruptFate::Deliver => at,
                    InterruptFate::Lose { redeliver_after } => {
                        self.lost += 1;
                        at + redeliver_after
                    }
                    InterruptFate::Delay { extra } => {
                        self.delayed += 1;
                        at + extra
                    }
                };
                self.pending_at = Some(at);
                InterruptDecision::FireAt(at)
            }
        }
    }

    /// Interrupts lost (and watchdog-redelivered) by fault injection.
    #[must_use]
    pub fn chaos_lost(&self) -> u64 {
        self.lost
    }

    /// Interrupts delayed by fault injection.
    #[must_use]
    pub fn chaos_delayed(&self) -> u64 {
        self.delayed
    }

    /// Records the delivery of the pending interrupt.
    pub fn fired(&mut self, now: SimTime) {
        self.pending_at = None;
        self.last_fired = Some(now);
        self.delivered += 1;
        trace::with(|t| {
            let args = vec![("coalesced_so_far", ArgValue::U64(self.coalesced))];
            t.instant(now, "nicsim", "interrupt", args);
            t.metrics_mut()
                .counter_add("nicsim.interrupts_delivered", 1);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_interrupt_is_immediate() {
        let mut m = InterruptModerator::new(SimDuration::from_micros(50));
        assert_eq!(
            m.request(SimTime::from_micros(5)),
            InterruptDecision::FireAt(SimTime::from_micros(5))
        );
        m.fired(SimTime::from_micros(5));
        assert_eq!(m.delivered(), 1);
    }

    #[test]
    fn requests_inside_holdoff_defer() {
        let mut m = InterruptModerator::new(SimDuration::from_micros(50));
        m.request(SimTime::ZERO);
        m.fired(SimTime::ZERO);
        // 10 us later: deferred to the 50 us boundary.
        assert_eq!(
            m.request(SimTime::from_micros(10)),
            InterruptDecision::FireAt(SimTime::from_micros(50))
        );
        // Further requests merge.
        assert_eq!(
            m.request(SimTime::from_micros(20)),
            InterruptDecision::Coalesced
        );
        assert_eq!(m.coalesced, 1);
        m.fired(SimTime::from_micros(50));
        // After the window, immediate again.
        assert_eq!(
            m.request(SimTime::from_micros(200)),
            InterruptDecision::FireAt(SimTime::from_micros(200))
        );
    }

    #[test]
    fn chaos_disabled_matches_plain_request() {
        use simcore::chaos::{ChaosConfig, ChaosEngine};
        let mut chaos = ChaosEngine::new(ChaosConfig::disabled());
        let mut a = InterruptModerator::new(SimDuration::from_micros(50));
        let mut b = InterruptModerator::new(SimDuration::from_micros(50));
        for i in 0..20u64 {
            let t = SimTime::from_micros(i * 7);
            assert_eq!(a.request_chaos(t, &mut chaos), b.request(t));
            if i % 3 == 0 {
                a.fired(t);
                b.fired(t);
            }
        }
        assert_eq!(a.chaos_lost(), 0);
        assert_eq!(a.chaos_delayed(), 0);
    }

    #[test]
    fn chaos_perturbs_fire_times_but_stays_live() {
        use simcore::chaos::{ChaosConfig, ChaosEngine, ChaosProfile};
        let mut chaos = ChaosEngine::new(ChaosConfig::profile(ChaosProfile::Interrupts, 5));
        let mut m = InterruptModerator::new(SimDuration::from_micros(10));
        let mut fired = 0;
        for i in 0..500u64 {
            let t = SimTime::from_micros(i * 20);
            if let InterruptDecision::FireAt(at) = m.request_chaos(t, &mut chaos) {
                assert!(at >= t, "never delivered early");
                m.fired(at);
                fired += 1;
            }
        }
        assert_eq!(fired, 500, "every granted interrupt is delivered");
        assert!(m.chaos_lost() > 0, "losses injected");
        assert!(m.chaos_delayed() > 0, "delays injected");
    }

    #[test]
    fn zero_holdoff_never_defers() {
        let mut m = InterruptModerator::new(SimDuration::ZERO);
        m.request(SimTime::ZERO);
        m.fired(SimTime::ZERO);
        assert_eq!(
            m.request(SimTime::ZERO),
            InterruptDecision::FireAt(SimTime::ZERO)
        );
    }
}
