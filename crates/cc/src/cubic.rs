//! CUBIC (RFC 9438): cubic window growth with Reno-friendly region.
//! Classic ECN: CE-echo ⇒ the β=0.7 multiplicative decrease, once per RTT.

use l4span_sim::Instant;

use crate::cc::{AckSample, CongestionControl, EcnMode};
use crate::reno::INITIAL_WINDOW_SEGS;

/// RFC 9438 constants.
const C: f64 = 0.4;
/// Multiplicative-decrease factor.
pub const BETA_CUBIC: f64 = 0.7;

/// CUBIC congestion control. Window arithmetic is done in segments
/// (floating point) as in the RFC, converted to bytes at the edge.
#[derive(Debug)]
pub struct Cubic {
    mss: usize,
    /// cwnd in segments.
    cwnd: f64,
    ssthresh: f64,
    /// Window size before the last reduction (segments).
    w_max: f64,
    /// Time of the last congestion event.
    epoch_start: Option<Instant>,
    /// Cubic inflection delay K (seconds).
    k: f64,
    /// Reno-friendly estimate (segments).
    w_est: f64,
}

impl Cubic {
    /// New CUBIC controller with `mss`-byte segments.
    pub fn new(mss: usize) -> Cubic {
        Cubic {
            mss,
            cwnd: INITIAL_WINDOW_SEGS as f64,
            ssthresh: f64::INFINITY,
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
            w_est: 0.0,
        }
    }

    fn enter_epoch(&mut self, now: Instant) {
        self.epoch_start = Some(now);
        self.k = if self.cwnd < self.w_max {
            ((self.w_max - self.cwnd) / C).cbrt()
        } else {
            0.0
        };
        self.w_est = self.cwnd;
    }

    fn w_cubic(&self, t: f64) -> f64 {
        C * (t - self.k).powi(3) + self.w_max
    }

    fn reduce(&mut self, now: Instant) {
        self.w_max = self.cwnd;
        self.cwnd = (self.cwnd * BETA_CUBIC).max(2.0);
        self.ssthresh = self.cwnd;
        self.epoch_start = None;
        let _ = now;
    }
}

impl CongestionControl for Cubic {
    fn on_ack(&mut self, ack: &AckSample) {
        let acked_segs = ack.newly_acked as f64 / self.mss as f64;
        if self.cwnd < self.ssthresh {
            self.cwnd += acked_segs;
            return;
        }
        if self.epoch_start.is_none() {
            self.enter_epoch(ack.now);
        }
        let t = ack
            .now
            .saturating_since(self.epoch_start.expect("set above"))
            .as_secs_f64();
        let rtt = ack.srtt.as_secs_f64().max(1e-4);
        // Reno-friendly region estimate (RFC 9438 §4.3).
        self.w_est += 3.0 * (1.0 - BETA_CUBIC) / (1.0 + BETA_CUBIC) * acked_segs / self.cwnd;
        let target = self.w_cubic(t + rtt).clamp(self.cwnd, 1.5 * self.cwnd);
        let cubic_cwnd = self.cwnd + (target - self.cwnd) / self.cwnd * acked_segs;
        self.cwnd = cubic_cwnd.max(self.w_est);
    }

    fn on_loss(&mut self, now: Instant) {
        self.reduce(now);
    }

    fn on_rto(&mut self, now: Instant) {
        self.reduce(now);
        self.cwnd = 1.0;
    }

    fn cwnd(&self) -> usize {
        (self.cwnd * self.mss as f64) as usize
    }

    fn ecn_mode(&self) -> EcnMode {
        EcnMode::Classic
    }

    fn name(&self) -> &'static str {
        "cubic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l4span_sim::Duration;

    fn ack_at(now_ms: u64, bytes: usize) -> AckSample {
        AckSample {
            now: Instant::from_millis(now_ms),
            newly_acked: bytes,
            ce_bytes: 0,
            ect_bytes: None,
            ece: false,
            rtt: Some(Duration::from_millis(40)),
            srtt: Duration::from_millis(40),
            inflight: 0,
            delivery_rate: None,
            app_limited: false,
        }
    }

    #[test]
    fn slow_start_grows_with_acked_bytes() {
        let mut c = Cubic::new(1000);
        let w0 = c.cwnd();
        c.on_ack(&ack_at(10, w0));
        assert_eq!(c.cwnd(), 2 * w0);
    }

    #[test]
    fn loss_multiplies_by_beta() {
        let mut c = Cubic::new(1000);
        c.on_ack(&ack_at(10, 40_000));
        let w = c.cwnd() as f64;
        c.on_loss(Instant::from_millis(20));
        let got = c.cwnd() as f64;
        assert!((got / w - BETA_CUBIC).abs() < 0.01, "{got} vs {w}");
    }

    #[test]
    fn window_recovers_toward_w_max() {
        let mut c = Cubic::new(1000);
        // Grow to 100 segments, lose, then ack steadily for a while.
        c.on_ack(&ack_at(0, 90_000));
        c.on_loss(Instant::from_millis(1));
        let after_loss = c.cwnd();
        let mut t = 10;
        for _ in 0..2000 {
            let w = c.cwnd();
            c.on_ack(&ack_at(t, w.min(64_000)));
            t += 40;
        }
        assert!(c.cwnd() > after_loss, "cubic must grow back");
        // And it should eventually exceed w_max (probing beyond).
        assert!(
            c.cwnd() > 100_000,
            "after 80 s cubic should pass w_max: {}",
            c.cwnd()
        );
    }

    #[test]
    fn concave_region_stays_below_w_max() {
        // For the K seconds after a reduction the cubic curve is concave:
        // the window approaches but does not exceed w_max.
        let mut c = Cubic::new(1000);
        c.on_ack(&ack_at(0, 200_000)); // slow start to 210 segments
        let w_max = c.cwnd();
        c.on_loss(Instant::from_millis(1));
        let mut t = 41;
        for _ in 0..50 {
            // 2 s of steady acking (< K for this w_max)
            let w = c.cwnd();
            c.on_ack(&ack_at(t, w.min(64_000)));
            t += 40;
            assert!(
                c.cwnd() <= w_max + 1000,
                "cwnd {} exceeded w_max {w_max} during concave phase",
                c.cwnd()
            );
        }
        assert!(
            c.cwnd() > (w_max as f64 * BETA_CUBIC) as usize,
            "but it grew"
        );
    }

    #[test]
    fn rto_collapses() {
        let mut c = Cubic::new(1000);
        c.on_ack(&ack_at(0, 50_000));
        c.on_rto(Instant::from_millis(5));
        assert_eq!(c.cwnd(), 1000);
    }

    #[test]
    fn is_classic_ecn() {
        assert_eq!(Cubic::new(1000).ecn_mode(), EcnMode::Classic);
    }
}
