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
    coalesced: u64,
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
            coalesced: 0,
        }
    }

    /// Requests an interrupt at `now`. The caller schedules an event at
    /// the returned time for `FireAt` and must then call
    /// [`InterruptModerator::fired`] when it delivers.
    ///
    /// The fire time of a granted interrupt is perturbed by one
    /// [`InterruptFate`] drawn from `chaos`'s interrupt stream (none
    /// when the class is off). A *lost* interrupt is redelivered at the
    /// watchdog timeout (as on real NICs), so the system stays live but
    /// eats the latency hole; a *delayed* one is merely late. Coalesced
    /// requests draw nothing — the pending delivery already has its
    /// fate.
    pub fn request(&mut self, now: SimTime, chaos: &mut ChaosEngine) -> InterruptDecision {
        if self.pending_at.is_some() {
            self.coalesced += 1;
            return InterruptDecision::Coalesced;
        }
        let at = match self.last_fired {
            Some(last) if now.saturating_since(last) < self.holdoff => last + self.holdoff,
            _ => now,
        };
        let at = match chaos.interrupt_fate() {
            InterruptFate::Deliver => at,
            InterruptFate::Lose { redeliver_after } => at + redeliver_after,
            InterruptFate::Delay { extra } => at + extra,
        };
        self.pending_at = Some(at);
        InterruptDecision::FireAt(at)
    }

    /// Records the delivery of the pending interrupt.
    pub fn fired(&mut self, now: SimTime) {
        self.pending_at = None;
        self.last_fired = Some(now);
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
    use simcore::chaos::{ChaosConfig, ChaosProfile, IRQ_MAX_DELAY, IRQ_WATCHDOG};

    fn off() -> ChaosEngine {
        ChaosEngine::new(ChaosConfig::disabled())
    }

    #[test]
    fn first_interrupt_is_immediate() {
        let mut m = InterruptModerator::new(SimDuration::from_micros(50));
        assert_eq!(
            m.request(SimTime::from_micros(5), &mut off()),
            InterruptDecision::FireAt(SimTime::from_micros(5))
        );
        m.fired(SimTime::from_micros(5));
        assert_eq!(m.last_fired, Some(SimTime::from_micros(5)));
    }

    #[test]
    fn requests_inside_holdoff_defer() {
        let mut chaos = off();
        let mut m = InterruptModerator::new(SimDuration::from_micros(50));
        m.request(SimTime::ZERO, &mut chaos);
        m.fired(SimTime::ZERO);
        // 10 us later: deferred to the 50 us boundary.
        assert_eq!(
            m.request(SimTime::from_micros(10), &mut chaos),
            InterruptDecision::FireAt(SimTime::from_micros(50))
        );
        // Further requests merge.
        assert_eq!(
            m.request(SimTime::from_micros(20), &mut chaos),
            InterruptDecision::Coalesced
        );
        assert_eq!(m.coalesced, 1);
        m.fired(SimTime::from_micros(50));
        // After the window, immediate again.
        assert_eq!(
            m.request(SimTime::from_micros(200), &mut chaos),
            InterruptDecision::FireAt(SimTime::from_micros(200))
        );
    }

    #[test]
    fn disabled_chaos_fires_on_the_holdoff_schedule() {
        let mut chaos = off();
        let mut m = InterruptModerator::new(SimDuration::from_micros(50));
        let us = SimTime::from_micros;
        let fire = |t| InterruptDecision::FireAt(us(t));
        assert_eq!(m.request(us(0), &mut chaos), fire(0));
        m.fired(us(0));
        assert_eq!(m.request(us(7), &mut chaos), fire(50));
        assert_eq!(m.request(us(14), &mut chaos), InterruptDecision::Coalesced);
        m.fired(us(50));
        assert_eq!(m.request(us(60), &mut chaos), fire(100));
        m.fired(us(100));
        assert_eq!(m.request(us(200), &mut chaos), fire(200));
        assert_eq!(chaos.counters().iter().count(), 0, "nothing injected");
    }

    #[test]
    fn chaos_perturbs_fire_times_but_stays_live() {
        let mut chaos = ChaosEngine::new(ChaosConfig::profile(ChaosProfile::Interrupts, 5));
        let (watchdog, max_delay) = (IRQ_WATCHDOG, IRQ_MAX_DELAY);
        let mut m = InterruptModerator::new(SimDuration::from_micros(10));
        let (mut on_time, mut lost, mut delayed) = (0, 0, 0);
        // Requests 1 ms apart: past the watchdog and the holdoff, so the
        // injected fate alone decides each fire time.
        for i in 0..500u64 {
            let t = SimTime::from_millis(i);
            let InterruptDecision::FireAt(at) = m.request(t, &mut chaos) else {
                panic!("nothing is pending to coalesce with");
            };
            if at == t {
                on_time += 1;
            } else if at == t + watchdog {
                lost += 1;
            } else {
                assert!(at > t && at <= t + max_delay, "late within max_delay");
                delayed += 1;
            }
            m.fired(at);
        }
        assert_eq!(on_time + lost + delayed, 500, "every request is granted");
        let c = chaos.counters();
        assert_eq!(lost, c.get("irq_lost"));
        assert_eq!(delayed, c.get("irq_delayed"));
        assert!(lost > 0 && delayed > 0 && on_time > 0, "every fate drawn");
    }

    #[test]
    fn zero_holdoff_never_defers() {
        let mut chaos = off();
        let mut m = InterruptModerator::new(SimDuration::ZERO);
        m.request(SimTime::ZERO, &mut chaos);
        m.fired(SimTime::ZERO);
        assert_eq!(
            m.request(SimTime::ZERO, &mut chaos),
            InterruptDecision::FireAt(SimTime::ZERO)
        );
    }
}
