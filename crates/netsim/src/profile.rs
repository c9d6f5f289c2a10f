//! Typed fabric and transport configuration profiles.
//!
//! Scenario code used to reach into [`LinkConfig`] and chaos knobs
//! directly to make a fabric lossy; this module replaces that with two
//! small validated surfaces:
//!
//! * [`FabricProfile`] — what the *wire* does: random loss, PFC
//!   pause-frame flow control, ECN marking.
//! * [`TransportConfig`] — what the *endpoints* do about it: the RC
//!   loss-recovery discipline ([`RdmaTransport`]) and its BDP cap.
//!
//! Both are `#[non_exhaustive]` with chainable `with_*` setters, so new
//! knobs can be added without breaking scenario code. Whole-config
//! validation (e.g. "PFC requires a lossless wire") happens where the
//! profiles are folded into a scenario — `testbed::ScenarioBuilder` —
//! because only the scenario knows which combinations it supports.

use simcore::time::SimDuration;

use crate::link::LinkConfig;

/// Loss-recovery discipline of an RC QP (DESIGN §15).
///
/// * [`RdmaTransport::GoBackN`] is the paper's baseline: cumulative
///   ACKs, sequence-error NAKs, and full-window rewind on loss — the
///   behaviour real RC NICs implement and that the lossless-fabric
///   experiments assume.
/// * [`RdmaTransport::SelectiveRepeat`] is the IRN-style alternative
///   ("Revisiting Network Support for RDMA"): the receiver parks
///   out-of-order packets and advertises them in a cumulative +
///   selective ACK bitmap, the sender retransmits only the missing
///   PSNs, in-flight data is capped at a BDP's worth of packets, and
///   the retransmission timer backs off exponentially under repeated
///   loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RdmaTransport {
    /// Legacy RNR-NACK / go-back-N recovery (the default).
    #[default]
    GoBackN,
    /// IRN-style selective-repeat recovery.
    SelectiveRepeat,
}

impl RdmaTransport {
    /// Parses a transport's [`RdmaTransport::name`] (`gbn` or `irn`),
    /// its command-line spelling.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "gbn" => Some(RdmaTransport::GoBackN),
            "irn" => Some(RdmaTransport::SelectiveRepeat),
            _ => None,
        }
    }

    /// Stable short name (`gbn` / `irn`) for artifacts and flags.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RdmaTransport::GoBackN => "gbn",
            RdmaTransport::SelectiveRepeat => "irn",
        }
    }
}

impl std::fmt::Display for RdmaTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What the wire does to packets: the fabric-side half of a lossy-RDMA
/// scenario. The default is the paper's idealised lossless fabric — no
/// random loss, no PFC, no ECN — which keeps every legacy golden
/// byte-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct FabricProfile {
    /// Independent per-packet loss probability applied on every link
    /// hop. `0.0` is lossless.
    pub loss: f64,
    /// Priority flow control: when a switch egress queue backs up past
    /// [`crate::fabric::PFC_XOFF`] bytes, the switch pauses every
    /// ingress (802.3x-style) until the queue drains below
    /// [`crate::fabric::PFC_XON`].
    pub pfc: bool,
    /// ECN: mark instead of queueing silently once a packet's queue
    /// wait exceeds this threshold.
    pub ecn_threshold: Option<SimDuration>,
}

impl Default for FabricProfile {
    fn default() -> Self {
        FabricProfile {
            loss: 0.0,
            pfc: false,
            ecn_threshold: None,
        }
    }
}

impl FabricProfile {
    /// The paper's lossless fabric (the default).
    #[must_use]
    pub fn lossless() -> Self {
        FabricProfile::default()
    }

    /// A lossless fabric with PFC armed at the fabric's thresholds —
    /// the "RoCE done by the book" configuration IRN argues against.
    #[must_use]
    pub fn lossless_pfc() -> Self {
        FabricProfile::default().with_pfc(true)
    }

    /// A lossy fabric dropping each packet independently with
    /// probability `loss`.
    #[must_use]
    pub fn lossy(loss: f64) -> Self {
        FabricProfile::default().with_loss(loss)
    }

    /// Sets the per-packet loss probability.
    #[must_use]
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Arms or disarms PFC.
    #[must_use]
    pub fn with_pfc(mut self, pfc: bool) -> Self {
        self.pfc = pfc;
        self
    }

    /// Sets the ECN marking threshold.
    #[must_use]
    pub fn with_ecn(mut self, threshold: Option<SimDuration>) -> Self {
        self.ecn_threshold = threshold;
        self
    }

    /// `true` when the profile departs from the idealised lossless
    /// default in any way.
    #[must_use]
    pub fn is_lossless_default(&self) -> bool {
        self.loss == 0.0 && !self.pfc && self.ecn_threshold.is_none()
    }

    /// Applies the wire-level knobs to a base [`LinkConfig`]. Topology
    /// builders call this on every link they create; the PFC half is
    /// applied by the fabric (it needs cross-link state).
    #[must_use]
    pub fn apply_link(&self, mut cfg: LinkConfig) -> LinkConfig {
        cfg.loss_probability = self.loss;
        cfg.ecn_threshold = self.ecn_threshold;
        cfg
    }

    /// Stable short label for artifacts (`lossless`, `pfc`, `loss0.1%`).
    #[must_use]
    pub fn label(&self) -> String {
        if self.pfc {
            "pfc".to_string()
        } else if self.loss > 0.0 {
            format!("loss{}%", self.loss * 100.0)
        } else {
            "lossless".to_string()
        }
    }
}

/// What the endpoints do about the wire: the transport-side half of a
/// lossy-RDMA scenario. Defaults to the legacy go-back-N discipline so
/// existing scenarios stay byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct TransportConfig {
    /// RC loss-recovery discipline.
    pub transport: RdmaTransport,
    /// Bandwidth-delay-product cap on in-flight request packets,
    /// honoured only by [`RdmaTransport::SelectiveRepeat`].
    pub bdp_packets: u64,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            transport: RdmaTransport::GoBackN,
            // 56 Gb/s × ~10 us RTT ≈ 70 KB ≈ 17 MTU packets; default to
            // a round 32 so a single QP can still fill a longer pipe.
            bdp_packets: 32,
        }
    }
}

impl TransportConfig {
    /// Sets the loss-recovery discipline.
    #[must_use]
    pub fn with_transport(mut self, transport: RdmaTransport) -> Self {
        self.transport = transport;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::units::Bandwidth;

    #[test]
    fn transport_names_round_trip() {
        for t in [RdmaTransport::GoBackN, RdmaTransport::SelectiveRepeat] {
            assert_eq!(RdmaTransport::from_name(t.name()), Some(t));
        }
        for unlisted in ["bogus", "go-back-n", "selective-repeat"] {
            assert_eq!(RdmaTransport::from_name(unlisted), None, "{unlisted}");
        }
    }

    #[test]
    fn default_profile_is_lossless_and_transparent() {
        let p = FabricProfile::default();
        assert!(p.is_lossless_default());
        let base = LinkConfig::datacenter(Bandwidth::gbps(56));
        let applied = p.apply_link(base);
        assert_eq!(applied.loss_probability, base.loss_probability);
        assert_eq!(applied.ecn_threshold, base.ecn_threshold);
        assert_eq!(p.label(), "lossless");
    }

    #[test]
    fn lossy_profile_applies_to_links() {
        let p = FabricProfile::lossy(0.01).with_ecn(Some(SimDuration::from_micros(10)));
        assert!(!p.is_lossless_default());
        let applied = p.apply_link(LinkConfig::datacenter(Bandwidth::gbps(56)));
        assert_eq!(applied.loss_probability, 0.01);
        assert_eq!(applied.ecn_threshold, Some(SimDuration::from_micros(10)));
        assert_eq!(p.label(), "loss1%");
    }

    #[test]
    fn builder_chains() {
        let t = TransportConfig {
            bdp_packets: 8,
            ..TransportConfig::default().with_transport(RdmaTransport::SelectiveRepeat)
        };
        assert_eq!(t.transport, RdmaTransport::SelectiveRepeat);
        assert_eq!(t.bdp_packets, 8);
    }
}
