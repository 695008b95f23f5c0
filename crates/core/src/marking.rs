//! The three marking strategies of paper §4.2.
//!
//! * **Eq. 1 (L4S-only DRB):** mark with the probability that the true
//!   egress rate leaves the standing queue's sojourn time above τ_s,
//!   under a Gaussian error model around the estimate:
//!   `p_L4S = Φ((N_queue/τ_s − r̂_e) / ê_re)`. When the rate is volatile
//!   (large ê) the edge flattens to avoid under-utilisation; when stable
//!   it sharpens toward DualPi2's step.
//! * **Eq. 2 (classic-only DRB):** match the Padhye model's throughput to
//!   the RAN egress rate: `p_classic = (MSS·K / (R̂TT·r̂_e))²`, with
//!   `R̂TT = R̂TT* + τ̂_s` (or `2·τ̂_s` when no handshake RTT exists).
//! * **Coupled (shared DRB, §4.2.3):** classic keeps Eq. 2; the L4S flow
//!   gets `p_L4S = (2/K)·√p_classic`, the solution of
//!   `2·MSS/(RTT·p_L4S) = MSS·K/(RTT·√p_classic)`.

use l4span_sim::Duration;

use crate::gauss::phi;

/// Eq. 1: L4S marking probability.
///
/// * `n_queue` — standing queue bytes (Eq. 5 numerator);
/// * `tau_s` — sojourn threshold (10 ms default);
/// * `rate` — smoothed egress estimate r̂_e in bytes/sec;
/// * `rate_std` — ê_re, the estimate's error spread.
///
/// With `rate_std = 0` this degenerates to DualPi2's deterministic step
/// at τ_s, exactly as §4.2.1 notes.
pub fn p_l4s(n_queue: usize, tau_s: Duration, rate: f64, rate_std: f64) -> f64 {
    if rate <= 0.0 {
        // No drainage at all: the queue can only violate the threshold.
        return if n_queue > 0 { 1.0 } else { 0.0 };
    }
    let needed = n_queue as f64 / tau_s.as_secs_f64(); // rate to meet τ_s
                                                       // Cap the relative spread at ê/r̂ = 0.5 (the largest the paper's
                                                       // Fig. 4 inset shows): an unbounded ê would put Φ(−r̂/ê) ≈ 0.16+ of
                                                       // marking probability on an *empty* queue, throttling senders on a
                                                       // merely-volatile (not congested) channel.
    let rate_std = rate_std.min(0.5 * rate);
    if rate_std <= f64::EPSILON {
        return if rate < needed { 1.0 } else { 0.0 };
    }
    phi((needed - rate) / rate_std)
}

/// Eq. 2: classic marking probability.
///
/// * `mss` — the flow's segment size in bytes;
/// * `k` — the Padhye constant `K = (1+β)/2·√(2/(1−β²))`;
/// * `rtt` — the estimated round-trip `R̂TT* + τ̂_s`;
/// * `rate` — the egress rate share this flow should converge to.
pub fn p_classic(mss: usize, k: f64, rtt: Duration, rate: f64) -> f64 {
    if rate <= 0.0 {
        return 1.0;
    }
    let rtt_s = rtt.as_secs_f64().max(1e-4);
    let x = mss as f64 * k / (rtt_s * rate);
    (x * x).clamp(0.0, 1.0)
}

/// Shared-DRB coupling: `p_L4S = (2/K)·√p_classic`, capped at 1.
pub fn p_l4s_coupled(p_classic: f64, k: f64) -> f64 {
    ((2.0 / k) * p_classic.max(0.0).sqrt()).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: f64 = 1e6;

    #[test]
    fn eq1_half_probability_at_threshold() {
        // Estimated sojourn exactly τ_s: N/τ == r̂ ⇒ Φ(0) = 0.5.
        let tau = Duration::from_millis(10);
        let rate = 3.0 * MB;
        let n = (rate * 0.010) as usize;
        let p = p_l4s(n, tau, rate, 0.3 * MB);
        assert!((p - 0.5).abs() < 0.01, "p {p}");
    }

    #[test]
    fn eq1_rises_with_queue() {
        let tau = Duration::from_millis(10);
        let rate = 3.0 * MB;
        let std = 0.3 * MB;
        let p_small = p_l4s(1_000, tau, rate, std);
        let p_half = p_l4s(15_000, tau, rate, std);
        let p_big = p_l4s(60_000, tau, rate, std);
        assert!(p_small < 0.05, "{p_small}");
        assert!(p_half < 0.5);
        assert!(p_big > 0.95, "{p_big}");
    }

    #[test]
    fn eq1_volatility_flattens_the_edge() {
        // Fig. 4 inset: larger ê ⇒ flatter curve around τ_s.
        let tau = Duration::from_millis(10);
        let rate = 3.0 * MB;
        // 12 ms estimated sojourn (slightly over threshold).
        let n = (rate * 0.012) as usize;
        let sharp = p_l4s(n, tau, rate, 0.05 * MB);
        let flat = p_l4s(n, tau, rate, 1.0 * MB);
        assert!(sharp > 0.99, "sharp edge marks almost surely: {sharp}");
        assert!(flat < 0.8, "volatile estimate hedges: {flat}");
        assert!(flat > 0.5, "but still leans toward marking: {flat}");
    }

    #[test]
    fn eq1_zero_std_is_dualpi2_step() {
        let tau = Duration::from_millis(10);
        let rate = 3.0 * MB;
        assert_eq!(p_l4s((rate * 0.009) as usize, tau, rate, 0.0), 0.0);
        assert_eq!(p_l4s((rate * 0.011) as usize, tau, rate, 0.0), 1.0);
    }

    #[test]
    fn eq1_zero_rate_marks_everything_queued() {
        assert_eq!(p_l4s(1, Duration::from_millis(10), 0.0, 0.0), 1.0);
        assert_eq!(p_l4s(0, Duration::from_millis(10), 0.0, 0.0), 0.0);
    }

    #[test]
    fn eq2_matches_model_throughput() {
        // If we mark with p_classic, the Padhye model says the sender
        // converges to rate = MSS·K/(RTT·√p): plug p back in and check.
        let mss = 1400;
        let k = (1.5f64).sqrt();
        let rtt = Duration::from_millis(50);
        let rate = 2.5 * MB;
        let p = p_classic(mss, k, rtt, rate);
        let model_rate = mss as f64 * k / (rtt.as_secs_f64() * p.sqrt());
        assert!((model_rate - rate).abs() / rate < 1e-9);
    }

    #[test]
    fn eq2_faster_rate_needs_fewer_marks() {
        let mss = 1400;
        let k = (1.5f64).sqrt();
        let rtt = Duration::from_millis(50);
        let slow = p_classic(mss, k, rtt, 0.5 * MB);
        let fast = p_classic(mss, k, rtt, 5.0 * MB);
        assert!(fast < slow);
    }

    #[test]
    fn eq2_longer_rtt_needs_fewer_marks() {
        // Longer RTT already slows the sender; fewer marks needed.
        let mss = 1400;
        let k = (1.5f64).sqrt();
        let near = p_classic(mss, k, Duration::from_millis(38), 2.0 * MB);
        let far = p_classic(mss, k, Duration::from_millis(106), 2.0 * MB);
        assert!(far < near);
    }

    #[test]
    fn eq2_clamps_to_one() {
        assert_eq!(
            p_classic(1400, 1.22, Duration::from_millis(1), 1_000.0),
            1.0
        );
        assert_eq!(p_classic(1400, 1.22, Duration::from_millis(50), 0.0), 1.0);
    }

    #[test]
    fn coupling_equalises_model_throughputs() {
        // r_L4S = 2·MSS/(RTT·p_L4S) must equal r_classic =
        // MSS·K/(RTT·√p_classic) when p_L4S = (2/K)·√p_classic.
        let k = (1.5f64).sqrt();
        let pc: f64 = 0.04;
        let pl = p_l4s_coupled(pc, k);
        let mss = 1400.0;
        let rtt = 0.05;
        let r_l4s = 2.0 * mss / (rtt * pl);
        let r_classic = mss * k / (rtt * pc.sqrt());
        assert!((r_l4s - r_classic).abs() / r_classic < 1e-9);
    }

    #[test]
    fn coupling_caps_at_one() {
        assert_eq!(p_l4s_coupled(1.0, 0.5), 1.0);
        assert_eq!(p_l4s_coupled(0.0, 1.22), 0.0);
    }
}
