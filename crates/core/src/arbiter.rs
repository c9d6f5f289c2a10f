//! The admission policy of the NPF pipeline: who may start a fault, and
//! when.
//!
//! Two caps, applied in order by one `FaultArbiter::admit` /
//! `FaultArbiter::commit` pair:
//!
//! * **per channel** — at most `concurrent_faults_per_channel` faults
//!   of one IOchannel are serviced at once (the prototype uses four,
//!   §4); a further fault starts when the earliest of them completes.
//!   This is all [`ArbiterPolicy::ChannelOnly`] does.
//! * **engine-wide** — `total_fault_slots` slot servers shared by every
//!   channel, each with a busy-until time and a last owner, granted
//!   under [`ArbiterPolicy::RoundRobin`] or
//!   [`ArbiterPolicy::WeightedFair`].
//!
//! Sans-IO like the engine: `admit` returns service start times and the
//! caller commits the completion time so later admissions see it.

use iommu::DomainId;
use simcore::time::{SimDuration, SimTime};

use crate::dense_slot;

/// How channels contend for the engine-wide fault-servicing capacity
/// ([`crate::npf::NpfConfig::total_fault_slots`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArbiterPolicy {
    /// Legacy prototype behavior: each channel is limited to
    /// `concurrent_faults_per_channel`, channels never contend with one
    /// another, and the global pool is ignored.
    #[default]
    ChannelOnly,
    /// One global pool of slots granted in arrival order. Combined with
    /// the per-channel cap this round-robins between contending
    /// channels: no channel can occupy more than its per-channel limit,
    /// so waiting channels interleave — but a burst of many channels
    /// can still queue a late arrival behind everyone.
    RoundRobin,
    /// Global pool with per-channel occupancy capped at the channel's
    /// *registered* weight share, `max(1, total · w / Σw)`. Reservation
    /// semantics: a channel never occupies beyond its share even when
    /// the pool is otherwise idle, so every other channel's share stays
    /// available and no tenant's wait depends on another's backlog —
    /// starvation is bounded by the drain time of the channel's own
    /// share.
    WeightedFair,
}

impl ArbiterPolicy {
    /// Parses a policy's [`ArbiterPolicy::name`], the CLI spelling of
    /// the bench bins (`--arbiter channel|rr|wfq`).
    ///
    /// # Errors
    ///
    /// Returns the unrecognized input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "channel" => Ok(ArbiterPolicy::ChannelOnly),
            "rr" => Ok(ArbiterPolicy::RoundRobin),
            "wfq" => Ok(ArbiterPolicy::WeightedFair),
            other => Err(other.to_owned()),
        }
    }

    /// The canonical spelling of the policy (flags, artifacts).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            ArbiterPolicy::ChannelOnly => "channel",
            ArbiterPolicy::RoundRobin => "rr",
            ArbiterPolicy::WeightedFair => "wfq",
        }
    }
}

/// Per-domain starvation accounting for the fault arbiter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArbiterStats {
    /// Faults admitted for this domain.
    pub grants: u64,
    /// Grants that had to wait on arbitration (beyond any per-channel
    /// queueing).
    pub queued: u64,
    /// Worst single arbitration wait.
    pub max_wait: SimDuration,
}

/// Fault admission: the per-channel concurrency cap, then the
/// cross-channel pool of `total_fault_slots` slot servers. Under
/// [`ArbiterPolicy::RoundRobin`] every fault takes the earliest-free
/// slot (arrival order); under [`ArbiterPolicy::WeightedFair`] a domain
/// already holding its weight share of busy slots serializes on its own
/// slots instead of spreading further.
#[derive(Debug)]
pub struct FaultArbiter {
    policy: ArbiterPolicy,
    per_channel: usize,
    /// Completion times of the faults each channel has in service,
    /// indexed by the dense domain id (the per-channel cap).
    outstanding: Vec<Vec<SimTime>>,
    /// Registered weight per domain, indexed by the dense domain id
    /// (0 = unregistered; registered weights are clamped to ≥ 1).
    weights: Vec<u32>,
    /// Σ of registered weights (kept incrementally; the share divisor).
    weight_sum: u64,
    /// Per-slot `(busy_until, last_owner)`; empty when no global pool
    /// is in force ([`ArbiterPolicy::ChannelOnly`], or zero slots).
    servers: Vec<(SimTime, Option<DomainId>)>,
    /// Slot chosen by the in-flight `admit`, consumed by `commit`.
    pending_slot: Option<usize>,
    /// Starvation accounting, indexed by the dense domain id.
    stats: Vec<ArbiterStats>,
}

impl FaultArbiter {
    pub(crate) fn new(policy: ArbiterPolicy, total_slots: u32, per_channel: u32) -> Self {
        let slots = if policy == ArbiterPolicy::ChannelOnly {
            0
        } else {
            total_slots as usize
        };
        FaultArbiter {
            policy,
            per_channel: per_channel as usize,
            outstanding: Vec::new(),
            weights: Vec::new(),
            weight_sum: 0,
            servers: vec![(SimTime::ZERO, None); slots],
            pending_slot: None,
            stats: Vec::new(),
        }
    }

    /// Registers a domain at the default weight 1 (no-op if already
    /// registered). Channels register at creation.
    pub fn register(&mut self, domain: DomainId) {
        let w = dense_slot(&mut self.weights, domain);
        if *w == 0 {
            *w = 1;
            self.weight_sum += 1;
        }
    }

    /// Sets a domain's weight (clamped to ≥ 1). Only
    /// [`ArbiterPolicy::WeightedFair`] consults weights.
    pub fn set_weight(&mut self, domain: DomainId, weight: u32) {
        let w = weight.max(1);
        let slot = dense_slot(&mut self.weights, domain);
        let old = *slot;
        *slot = w;
        self.weight_sum = self.weight_sum - u64::from(old) + u64::from(w);
    }

    /// Starvation accounting for one domain.
    #[must_use]
    pub fn stats(&self, domain: DomainId) -> ArbiterStats {
        self.stats
            .get(domain.0 as usize)
            .copied()
            .unwrap_or_default()
    }

    /// The worst arbitration wait seen by any domain.
    #[must_use]
    pub fn max_wait(&self) -> SimDuration {
        self.stats
            .iter()
            .map(|s| s.max_wait)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Admits a fault `domain` raises at `now`. Returns `(chan_start,
    /// arb_start)`: when the per-channel cap clears it, and when the
    /// engine-wide pool then lets it start (`now ≤ chan_start ≤
    /// arb_start`). Records starvation stats; the caller must follow
    /// with [`FaultArbiter::commit`] once it knows the completion time.
    pub(crate) fn admit(&mut self, now: SimTime, domain: DomainId) -> (SimTime, SimTime) {
        // If the channel already has the maximum outstanding faults,
        // this one starts after the earliest completes.
        let slots = dense_slot(&mut self.outstanding, domain);
        slots.retain(|&t| t > now);
        let chan_start = if slots.len() >= self.per_channel {
            let (idx, &earliest) = slots
                .iter()
                .enumerate()
                .min_by_key(|&(_, t)| *t)
                .expect("nonempty");
            slots.remove(idx);
            earliest
        } else {
            now
        };
        (chan_start, self.pool_start(domain, chan_start))
    }

    /// Earliest time a fault for `domain` (already cleared for service
    /// at `chan_start` by the per-channel cap) may start under the
    /// global policy. Remembers the chosen slot for `commit`.
    fn pool_start(&mut self, domain: DomainId, chan_start: SimTime) -> SimTime {
        self.pending_slot = None;
        if self.servers.is_empty() {
            dense_slot(&mut self.stats, domain).grants += 1;
            return chan_start;
        }
        // One pass over the slot servers finds both candidates: the
        // earliest-free slot overall, and the earliest-free of the slots
        // this domain still holds busy. The strict `<` keeps the lowest
        // index on ties (deterministic).
        let weighted = self.policy == ArbiterPolicy::WeightedFair;
        let mut global_best = 0;
        let mut mine_busy = 0usize;
        let mut mine_best: Option<usize> = None;
        for (i, &(t, owner)) in self.servers.iter().enumerate() {
            if t < self.servers[global_best].0 {
                global_best = i;
            }
            if weighted && t > chan_start && owner == Some(domain) {
                mine_busy += 1;
                if mine_best.is_none_or(|best| t < self.servers[best].0) {
                    mine_best = Some(i);
                }
            }
        }
        let chosen = if weighted {
            // Reservation share over the registered weights: the cap
            // holds even when other channels are idle, so their shares
            // stay available to them (non-work-conserving by design).
            // An unregistered domain counts at the default weight 1.
            let (w_d, w_sum) = match self.weights.get(domain.0 as usize) {
                Some(&w) if w != 0 => (u64::from(w), self.weight_sum),
                _ => (1, self.weight_sum + 1),
            };
            let share = usize::try_from((self.servers.len() as u64 * w_d / w_sum.max(1)).max(1))
                .unwrap_or(usize::MAX);
            match mine_best {
                // At the weight share: serialize on the soonest-free of
                // this domain's own slots rather than spreading wider.
                Some(own) if mine_busy >= share => own,
                _ => global_best,
            }
        } else {
            global_best
        };
        let start = chan_start.max(self.servers[chosen].0);
        self.pending_slot = Some(chosen);
        let wait = start.saturating_since(chan_start);
        let s = dense_slot(&mut self.stats, domain);
        s.grants += 1;
        if wait > SimDuration::ZERO {
            s.queued += 1;
        }
        if wait > s.max_wait {
            s.max_wait = wait;
        }
        start
    }

    /// Registers an admitted fault's completion time on its channel and
    /// on the pool slot `admit` chose for it.
    pub(crate) fn commit(&mut self, domain: DomainId, ready_at: SimTime) {
        self.outstanding[domain.0 as usize].push(ready_at);
        if let Some(i) = self.pending_slot.take() {
            self.servers[i] = (ready_at, Some(domain));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_round_trip() {
        for policy in [
            ArbiterPolicy::ChannelOnly,
            ArbiterPolicy::RoundRobin,
            ArbiterPolicy::WeightedFair,
        ] {
            assert_eq!(ArbiterPolicy::parse(policy.name()), Ok(policy));
        }
        for unlisted in ["channel-only", "none", "round-robin", "weighted-fair"] {
            assert_eq!(ArbiterPolicy::parse(unlisted), Err(unlisted.to_owned()));
        }
    }
}
