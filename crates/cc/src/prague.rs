//! TCP Prague: the L4S reference sender (paper §2, §6.1).
//!
//! DCTCP-style scalable response: the sender keeps an EWMA `α` of the
//! fraction of acknowledged bytes that were CE-marked over the previous
//! RTT and, once per RTT in which any CE arrived, applies
//! `cwnd ← cwnd · (1 − α/2)` — the "lightly-pressed brake" — then resumes
//! additive increase immediately. Packets carry ECT(1) and feedback rides
//! AccECN byte counters.

use l4span_sim::{Duration, Instant};

use crate::cc::{AckSample, CcEvent, CongestionControl, EcnMode, FallbackDetector, ALPHA_GAIN};
use crate::reno::INITIAL_WINDOW_SEGS;

/// TCP Prague congestion control.
#[derive(Debug)]
pub struct Prague {
    mss: usize,
    cwnd: f64,
    ssthresh: f64,
    /// EWMA of the CE-marked byte fraction.
    alpha: f64,
    /// Bytes acked / CE-marked in the current observation round.
    round_acked: usize,
    round_ce: usize,
    /// End of the current RTT round.
    round_end: Instant,
    /// Whether a multiplicative decrease already ran this round.
    reduced_this_round: bool,
    acked_credit: f64,
    /// Classic-fallback detector (`None` = vanilla Prague; `Some` adds
    /// the L4S-ops-guidance detection and Reno-friendly fallback).
    fallback: Option<FallbackDetector>,
    /// Fallback evidence this round: bytes reported arriving with any
    /// ECN codepoint (`None` until AccECN evidence arrives), and CE
    /// seen while srtt sat a classic queue above the RTT floor.
    round_ect: Option<usize>,
    round_classic: bool,
}

impl Prague {
    /// New Prague controller with `mss`-byte segments.
    pub fn new(mss: usize) -> Prague {
        Prague {
            mss,
            cwnd: (INITIAL_WINDOW_SEGS * mss) as f64,
            ssthresh: f64::INFINITY,
            alpha: 0.0,
            round_acked: 0,
            round_ce: 0,
            round_end: Instant::ZERO,
            reduced_this_round: false,
            acked_credit: 0.0,
            fallback: None,
            round_ect: None,
            round_classic: false,
        }
    }

    /// Prague with classic-ECN fallback armed: on three consecutive
    /// rounds of classic-style CE (CE plus classic-scale queueing delay)
    /// or bleached AccECN feedback, the sender permanently switches to
    /// Reno-friendly response — 50% multiplicative decrease on CE, once
    /// per RTT — per the L4S operational guidance, and records the
    /// transition as a [`CcEvent`].
    pub fn with_fallback(mss: usize) -> Prague {
        Prague {
            fallback: Some(FallbackDetector::new()),
            ..Prague::new(mss)
        }
    }

    /// Current α (exposed for tests and the Fig. 4 walkthrough example).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Whether a fallback-enabled sender has switched to Reno-friendly
    /// dynamics (always `false` on vanilla Prague).
    pub fn fallen_back(&self) -> bool {
        self.fallback.as_ref().is_some_and(FallbackDetector::fallen)
    }

    fn end_round(&mut self, now: Instant, srtt: Duration) {
        if self.round_acked > 0 {
            // CE bytes can exceed acked bytes when an in-network
            // bookkeeper accounts marks ahead of delivery; α is a
            // fraction, so clamp.
            let frac = (self.round_ce as f64 / self.round_acked as f64).min(1.0);
            self.alpha += ALPHA_GAIN * (frac - self.alpha);
        }
        self.round_acked = 0;
        self.round_ce = 0;
        self.reduced_this_round = false;
        self.round_end = now + srtt;
    }
}

impl CongestionControl for Prague {
    fn on_ack(&mut self, ack: &AckSample) {
        if ack.now >= self.round_end {
            // Judge the completed round's evidence before its counters
            // reset (vanilla Prague carries no detector — nothing here
            // perturbs its byte-exact behaviour). Bleached: a majority
            // of the round's acked bytes arrived with no ECN codepoint
            // at all; a round of pure stale ACKs proves nothing.
            if let Some(det) = &mut self.fallback {
                let acked = self.round_acked;
                let bleached = self.round_ect.take().map(|e| acked > 0 && e < acked / 2);
                let classic = std::mem::take(&mut self.round_classic);
                det.judge(ack.now, Some(classic), bleached);
            }
            self.end_round(ack.now, ack.srtt);
        }
        if let Some(det) = &mut self.fallback {
            if let Some(rtt) = ack.rtt {
                det.sample_floor(ack.now, rtt);
            }
            if let Some(e) = ack.ect_bytes {
                *self.round_ect.get_or_insert(0) += e;
            }
            self.round_classic |= ack.ce_bytes > 0 && det.classic_queue(ack.now, ack.srtt);
        }
        self.round_acked += ack.newly_acked;
        self.round_ce += ack.ce_bytes;

        if ack.ce_bytes > 0 {
            // Any CE ends slow start.
            self.ssthresh = self.ssthresh.min(self.cwnd);
            if !self.reduced_this_round {
                self.reduced_this_round = true;
                if self.fallen_back() {
                    // Reno-friendly mode: the marks come from a classic
                    // AQM, so answer with the classic 50% decrease (once
                    // per RTT) instead of the scalable α/2 nudge.
                    self.cwnd = (self.cwnd / 2.0).max(2.0 * self.mss as f64);
                    self.ssthresh = self.cwnd;
                    return;
                }
                // React to the freshest congestion information: fold the
                // current round's fraction in before reducing (DCTCP
                // implementations update α on the CE edge).
                let frac = (self.round_ce as f64 / self.round_acked.max(1) as f64).min(1.0);
                self.alpha += ALPHA_GAIN * (frac - self.alpha);
                self.cwnd = (self.cwnd * (1.0 - self.alpha / 2.0)).max(2.0 * self.mss as f64);
                return; // no growth on the reducing ACK
            }
        }
        if self.cwnd < self.ssthresh {
            self.cwnd += ack.newly_acked as f64;
        } else {
            // Additive increase: 1 MSS per RTT, resumed immediately after
            // an MD (paper Fig. 4: "Immediately returns to AI after MD").
            self.acked_credit += ack.newly_acked as f64;
            if self.acked_credit >= self.cwnd {
                self.acked_credit -= self.cwnd;
                self.cwnd += self.mss as f64;
            }
        }
    }

    fn on_loss(&mut self, _now: Instant) {
        // Loss is still a classic halving (safety in non-L4S bottlenecks).
        self.cwnd = (self.cwnd / 2.0).max(2.0 * self.mss as f64);
        self.ssthresh = self.cwnd;
    }

    fn on_rto(&mut self, _now: Instant) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0 * self.mss as f64);
        self.cwnd = self.mss as f64;
    }

    fn cwnd(&self) -> usize {
        self.cwnd as usize
    }

    fn ecn_mode(&self) -> EcnMode {
        EcnMode::L4s
    }

    fn name(&self) -> &'static str {
        if self.fallback.is_some() {
            "prague-fallback"
        } else {
            "prague"
        }
    }

    fn take_events(&mut self) -> Vec<CcEvent> {
        self.fallback
            .as_mut()
            .and_then(FallbackDetector::take_event)
            .into_iter()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::FallbackReason;

    fn ack(now_ms: u64, bytes: usize, ce: usize) -> AckSample {
        // Faithful path: every acked byte arrived with its codepoint.
        AckSample {
            now: Instant::from_millis(now_ms),
            newly_acked: bytes,
            ce_bytes: ce,
            ect_bytes: Some(bytes),
            ece: false,
            rtt: Some(Duration::from_millis(40)),
            srtt: Duration::from_millis(40),
            inflight: 0,
            delivery_rate: None,
            app_limited: false,
        }
    }

    #[test]
    fn fully_marked_round_converges_alpha_to_one() {
        let mut p = Prague::new(1000);
        let mut t = 0;
        for _ in 0..200 {
            p.on_ack(&ack(t, 10_000, 10_000));
            t += 45; // > srtt, so each ack starts a new round
        }
        assert!(p.alpha() > 0.9, "alpha {}", p.alpha());
    }

    #[test]
    fn small_alpha_means_gentle_decrease() {
        let mut p = Prague::new(1000);
        // Grow a bit, keep marks rare so alpha stays small.
        let mut t = 0;
        for _ in 0..50 {
            p.on_ack(&ack(t, 20_000, 0));
            t += 45;
        }
        let w = p.cwnd() as f64;
        p.on_ack(&ack(t, 10_000, 1_000)); // 10% of this round marked
        let cut = 1.0 - p.cwnd() as f64 / w;
        assert!(cut < 0.05, "cut {cut} should be ≪ classic 0.5");
    }

    #[test]
    fn one_reduction_per_rtt() {
        let mut p = Prague::new(1000);
        let mut t = 0;
        for _ in 0..30 {
            p.on_ack(&ack(t, 20_000, 0));
            t += 45;
        }
        let w0 = p.cwnd();
        // Two CE acks within the same round: only the first reduces.
        p.on_ack(&ack(t, 1_000, 1_000));
        let w1 = p.cwnd();
        p.on_ack(&ack(t + 1, 1_000, 1_000));
        let w2 = p.cwnd();
        assert!(w1 < w0);
        assert!(w2 >= w1, "second CE in the round must not reduce again");
    }

    #[test]
    fn ai_resumes_immediately_after_md() {
        let mut p = Prague::new(1000);
        let mut t = 0;
        for _ in 0..30 {
            p.on_ack(&ack(t, 20_000, 0));
            t += 45;
        }
        p.on_ack(&ack(t, 1_000, 1_000)); // MD
        let after_md = p.cwnd();
        // Unmarked acks in the same round grow the window again.
        let w = p.cwnd();
        p.on_ack(&ack(t + 1, w, 0));
        assert!(p.cwnd() > after_md, "AI must resume straight away");
    }

    #[test]
    fn loss_still_halves() {
        let mut p = Prague::new(1000);
        p.on_ack(&ack(0, 40_000, 0));
        let w = p.cwnd();
        p.on_loss(Instant::from_millis(1));
        assert_eq!(p.cwnd(), w / 2);
    }

    #[test]
    fn uses_l4s_identifier() {
        assert_eq!(Prague::new(1000).ecn_mode(), EcnMode::L4s);
    }

    /// An ACK whose srtt carries a classic-scale standing queue on top
    /// of the 40 ms baseline, with CE marks.
    fn classic_ce_ack(now_ms: u64, bytes: usize, ce: usize) -> AckSample {
        AckSample {
            srtt: Duration::from_millis(80),
            ..ack(now_ms, bytes, ce)
        }
    }

    #[test]
    fn classic_ce_pattern_triggers_fallback_and_reno_response() {
        let mut p = Prague::with_fallback(1000);
        let mut t = 0;
        // Establish the min-RTT baseline with clean rounds.
        for _ in 0..10 {
            p.on_ack(&ack(t, 20_000, 0));
            t += 45;
        }
        assert!(!p.fallen_back());
        // CE with ~40 ms of queueing delay, round after round: exactly
        // what an RFC 3168 single-queue AQM looks like.
        for _ in 0..6 {
            p.on_ack(&classic_ce_ack(t, 10_000, 2_000));
            t += 85;
        }
        assert!(p.fallen_back(), "sustained classic CE must trip fallback");
        let evs = p.take_events();
        assert_eq!(evs.len(), 1);
        assert!(matches!(
            evs[0],
            CcEvent::ClassicFallback {
                reason: FallbackReason::ClassicEcn,
                ..
            }
        ));
        assert!(p.take_events().is_empty(), "event drains once");
        // Post-fallback the CE response is a classic halving.
        for _ in 0..5 {
            p.on_ack(&ack(t, 20_000, 0));
            t += 45;
        }
        let w = p.cwnd() as f64;
        p.on_ack(&classic_ce_ack(t, 10_000, 2_000));
        let cut = 1.0 - p.cwnd() as f64 / w;
        assert!(
            (0.45..=0.55).contains(&cut),
            "Reno-friendly 50% MD, got cut {cut}"
        );
    }

    #[test]
    fn handover_to_longer_rtt_cell_does_not_trip_fallback() {
        // Regression: with a *lifetime* min-RTT baseline, a handover
        // from a 40 ms cell to an 80 ms cell left the old floor in
        // place, so CE marks on the clean new path read as 40 ms of
        // standing queue and tripped classic fallback. The windowed
        // min must forget the old cell within ~10 s.
        let mut p = Prague::with_fallback(1000);
        let mut t = 0;
        // A second on the 40 ms cell establishes the old floor.
        for _ in 0..20 {
            p.on_ack(&ack(t, 20_000, 0));
            t += 45;
        }
        // Handover: clean (unmarked) rounds at the new 80 ms floor
        // until the old floor ages out of the window.
        while t < 12_000 {
            p.on_ack(&AckSample {
                rtt: Some(Duration::from_millis(80)),
                ..classic_ce_ack(t, 20_000, 0)
            });
            t += 85;
        }
        // L4S marking at the new cell's own floor: srtt == min, queue
        // reads zero, fallback must not engage.
        for _ in 0..10 {
            p.on_ack(&AckSample {
                rtt: Some(Duration::from_millis(80)),
                ..classic_ce_ack(t, 10_000, 2_000)
            });
            t += 85;
        }
        assert!(
            !p.fallen_back(),
            "clean L4S path after handover must not read as classic"
        );
        assert!(p.take_events().is_empty());
    }

    #[test]
    fn bleached_feedback_triggers_fallback() {
        let mut p = Prague::with_fallback(1000);
        let mut t = 0;
        for _ in 0..5 {
            p.on_ack(&ack(t, 20_000, 0));
            t += 45;
        }
        // Bleached path: acked bytes arrive, AccECN counters stand still.
        for _ in 0..6 {
            p.on_ack(&AckSample {
                ect_bytes: Some(0),
                ..ack(t, 20_000, 0)
            });
            t += 45;
        }
        assert!(p.fallen_back(), "majority codepoint shortfall must trip");
        let evs = p.take_events();
        assert!(matches!(
            evs[0],
            CcEvent::ClassicFallback {
                reason: FallbackReason::Bleached,
                ..
            }
        ));
    }

    #[test]
    fn faithful_path_never_falls_back_and_matches_vanilla() {
        let mut v = Prague::new(1000);
        let mut f = Prague::with_fallback(1000);
        let mut t = 0;
        // Mixed clean/CE rounds on a faithful low-latency path: the two
        // senders must stay in lockstep (fallback never engages on L4S
        // marks at L4S-scale delay).
        for i in 0..200 {
            let ce = if i % 7 == 0 { 2_000 } else { 0 };
            let a = ack(t, 15_000, ce);
            v.on_ack(&a);
            f.on_ack(&a);
            t += 45;
        }
        assert!(!f.fallen_back());
        assert_eq!(v.cwnd(), f.cwnd(), "identical trajectory");
        assert!(f.take_events().is_empty());
        assert_eq!(f.name(), "prague-fallback");
        assert_eq!(v.name(), "prague");
    }
}
