//! L4Span configuration knobs, with the paper's defaults.

use l4span_sim::Duration;

/// Marking policy when L4S and classic flows share one DRB (§4.2.3 and
/// the four bars of Fig. 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharedDrbStrategy {
    /// Keep each class's own formula as if the queue were not shared
    /// ("Original" in Fig. 16 — the L4S flow starves).
    Original,
    /// Mark every flow with the L4S strategy (Eq. 1) — the classic flow
    /// starves.
    AllL4s,
    /// Mark every flow with the classic strategy (Eq. 2) — large
    /// throughput variation.
    AllClassic,
    /// The paper's coupling: classic keeps Eq. 2, the L4S flow gets
    /// `p_L4S = (2/K)·√p_classic` so the two model throughputs equalise.
    Coupled,
}

/// What the CU marker does with a DRB's estimation state when its UE
/// hands over to a different cell (paper §7: "upon handover, the
/// buffered bytes are sent to a new RAN, and the markings are already
/// done based on the old estimates"). Scenarios A/B the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HandoverPolicy {
    /// Keep the egress-rate estimator (and its attainable-rate peak
    /// history): the first post-handover marks are driven by the *old*
    /// cell's estimates until a fresh window of target-cell feedback
    /// overwrites them — the paper's default stance.
    #[default]
    MigrateState,
    /// Reset the estimator: the marker goes silent on the DRB until a
    /// full estimation window of target-cell feedback accumulates, then
    /// resumes with estimates that were never contaminated by the old
    /// cell. Trades a post-handover marking gap for never marking
    /// against a stale rate.
    ColdStart,
}

/// Static configuration of one L4Span instance.
#[derive(Debug, Clone)]
pub struct L4SpanConfig {
    /// Sojourn-time threshold τ_s for L4S marking; 10 ms (§6.3.2 sweeps
    /// this in Fig. 19 and finds the knee at 10 ms).
    pub tau_s: Duration,
    /// Estimation window: half the pre-set channel coherence time
    /// (24.9 ms measured at 3.5 GHz / 70 km/h, \[78\] in the paper).
    pub estimation_window: Duration,
    /// Rewrite uplink TCP ACKs at the CU instead of marking downlink IP
    /// headers (§4.4). Disabled automatically for UDP flows.
    pub short_circuit: bool,
    /// Drop (instead of mark) packets of Not-ECT flows to give loss-based
    /// senders feedback (§4.4 "fallback").
    pub drop_non_ecn: bool,
    /// Policy for DRBs carrying both flow classes.
    pub shared_strategy: SharedDrbStrategy,
    /// Multiplicative-decrease factor β assumed for classic senders in
    /// Eq. 2's K constant (0.5 for Reno; CUBIC's 0.7 yields a similar K).
    pub classic_beta: f64,
    /// Fallback MSS (bytes) when a flow's SYN didn't carry the option.
    pub default_mss: usize,
}

impl Default for L4SpanConfig {
    fn default() -> Self {
        L4SpanConfig {
            tau_s: Duration::from_millis(10),
            estimation_window: Duration::from_micros(24_900 / 2),
            short_circuit: true,
            drop_non_ecn: false,
            shared_strategy: SharedDrbStrategy::Coupled,
            classic_beta: 0.5,
            default_mss: 1400,
        }
    }
}

impl L4SpanConfig {
    /// The K constant of the Padhye throughput model used by Eq. 2:
    /// `K = (1+β)/2 · √(2/(1−β²))`.
    pub fn k_classic(&self) -> f64 {
        let b = self.classic_beta;
        (1.0 + b) / 2.0 * (2.0 / (1.0 - b * b)).sqrt()
    }

    /// The same marking policy adapted for a **UE-side uplink** instance.
    /// Uplink L4Span sits at the UE's per-DRB transmit queue, where the
    /// standing queue is governed by SR/BSR latency and scheduler grants
    /// rather than downlink slot telemetry. ACK short-circuiting is
    /// disabled: its whole purpose is bypassing the jittery TDD *uplink*
    /// for feedback, but an uplink flow's feedback already rides the
    /// fast downlink — so marks go on the IP header directly and reach
    /// the server-side receiver unmodified.
    pub fn for_uplink(&self) -> L4SpanConfig {
        L4SpanConfig {
            short_circuit: false,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = L4SpanConfig::default();
        assert_eq!(c.tau_s, Duration::from_millis(10));
        // τ_c/2 = 12.45 ms.
        assert_eq!(c.estimation_window, Duration::from_micros(12_450));
        assert!(c.short_circuit);
        assert_eq!(c.shared_strategy, SharedDrbStrategy::Coupled);
    }

    #[test]
    fn k_for_reno_beta_is_sqrt_three_halves() {
        let c = L4SpanConfig::default();
        assert!((c.k_classic() - (1.5f64).sqrt()).abs() < 1e-12);
    }
}
