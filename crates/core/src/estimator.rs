//! Egress-rate estimation and sojourn-time prediction (paper §4.3.3).
//!
//! On each F1-U report, newly-transmitted bytes enter a sliding window of
//! width `W = τ_c/2` (half the channel coherence time):
//!
//! * Eq. 3 — the instantaneous egress rate `r_T_k` is the byte sum over
//!   the window divided by `W`;
//! * Eq. 4 — the smoothed estimate `r̂_e` is the mean of the `r_T_i`
//!   samples inside the window (so every byte involved was transmitted
//!   within one coherence time, during which the channel is stable);
//! * the error spread `ê_re` is the standard deviation of those samples
//!   (the paper estimates the error std from the ground-truth dequeue
//!   rate's std over the last window);
//! * Eq. 5 — the predicted sojourn time is `τ̂ = N_queue / r̂_e`.

use std::collections::VecDeque;

use l4span_sim::{Duration, Instant};

/// Sliding-window egress-rate estimator for one DRB.
#[derive(Debug)]
pub struct EgressEstimator {
    window: Duration,
    /// (t_txed, bytes) of recently transmitted SDUs.
    txed: VecDeque<(Instant, usize)>,
    /// Byte sum of `txed`.
    txed_bytes: usize,
    /// (t, instantaneous rate) samples.
    samples: VecDeque<(Instant, f64)>,
    /// First feedback timestamp ever seen (warm-up guard).
    first_txed: Option<Instant>,
    /// Latest feedback timestamp.
    last_txed: Instant,
    /// (t, smoothed rate) history for the attainable-rate max filter,
    /// kept as a monotone deque: rates strictly decrease front to back,
    /// so the front is the maximum over the horizon.
    rate_history: VecDeque<(Instant, f64)>,
}

/// The attainable-rate memory horizon, in estimation windows. ~1.25 s at
/// the default window: long enough to bridge a sender's post-backoff dip,
/// short enough to track genuine channel degradation.
const PEAK_WINDOWS: u64 = 100;

impl EgressEstimator {
    /// Create with window `W = τ_c / 2`.
    pub fn new(window: Duration) -> EgressEstimator {
        EgressEstimator {
            window,
            txed: VecDeque::new(),
            txed_bytes: 0,
            samples: VecDeque::new(),
            first_txed: None,
            last_txed: Instant::ZERO,
            rate_history: VecDeque::new(),
        }
    }

    /// The configured window.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// Forget everything learned: the estimator returns to its
    /// just-constructed state, so [`EgressEstimator::rate`] is `None`
    /// until a full window of fresh feedback accumulates. This is the
    /// `ColdStart` half of the marker handover policy — the target
    /// cell's egress rate shares nothing with the source cell's, so a
    /// scenario may prefer re-learning from scratch over marking
    /// against stale estimates.
    pub fn reset(&mut self) {
        self.txed.clear();
        self.txed_bytes = 0;
        self.samples.clear();
        self.first_txed = None;
        self.last_txed = Instant::ZERO;
        self.rate_history.clear();
    }

    fn prune(&mut self, now: Instant) {
        while let Some(&(t, b)) = self.txed.front() {
            if now.saturating_since(t) > self.window {
                self.txed.pop_front();
                self.txed_bytes -= b;
            } else {
                break;
            }
        }
        while let Some(&(t, _)) = self.samples.front() {
            if now.saturating_since(t) > self.window {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }

    /// Record newly-transmitted bytes at their feedback timestamp and
    /// refresh the instantaneous-rate sample (Eq. 3).
    pub fn on_txed(&mut self, t_txed: Instant, bytes: usize) {
        if self.first_txed.is_none() {
            self.first_txed = Some(t_txed);
        }
        self.last_txed = self.last_txed.max(t_txed);
        self.txed.push_back((t_txed, bytes));
        self.txed_bytes += bytes;
        self.prune(t_txed);
        let r = self.txed_bytes as f64 / self.window.as_secs_f64();
        self.samples.push_back((t_txed, r));
        if let Some(smoothed) = self.rate() {
            // An older sample that is no larger can never be the maximum
            // again: it expires before this one does.
            while self
                .rate_history
                .back()
                .is_some_and(|&(_, r)| r <= smoothed)
            {
                self.rate_history.pop_back();
            }
            self.rate_history.push_back((t_txed, smoothed));
            let horizon = self.window * PEAK_WINDOWS;
            while let Some(&(t, _)) = self.rate_history.front() {
                if t_txed.saturating_since(t) > horizon {
                    self.rate_history.pop_front();
                } else {
                    break;
                }
            }
        }
    }

    /// The egress rate the RAN can *offer* this DRB: the maximum of the
    /// smoothed estimate over the recent past. The marking rules use this
    /// rather than the instantaneous Eq. 4 value because the latter
    /// tracks the sender's own rate whenever the queue is shallow — and a
    /// sender that has just backed off would otherwise be judged against
    /// its own slow-down (a positive-feedback under-utilisation spiral,
    /// the classic-flow analogue of the §4.3.3 error-cost analysis).
    ///
    /// O(1): the front of the monotone `rate_history` is the maximum of
    /// every smoothed sample inside the horizon. That equals a fold over
    /// the full history only because `t_txed` never decreases from one
    /// [`EgressEstimator::on_txed`] to the next (F1-U frames and grant
    /// feedback are stamped with the simulation clock): a younger sample
    /// queued *ahead* of the maximum would delay the full history's
    /// front-only expiry, but not this deque's.
    pub fn attainable_rate(&self) -> Option<f64> {
        let current = self.rate()?;
        Some(match self.rate_history.front() {
            Some(&(_, peak)) => current.max(peak),
            None => current,
        })
    }

    /// Smoothed egress rate r̂_e in bytes/sec (Eq. 4).
    ///
    /// `None` until a full estimation window of feedback history exists:
    /// Eq. 3 divides by the fixed window length, so before the window has
    /// filled once the quotient would understate the true rate by up to
    /// the fill factor and poison the marking probabilities.
    pub fn rate(&self) -> Option<f64> {
        let first = self.first_txed?;
        if self.last_txed.saturating_since(first) < self.window {
            return None;
        }
        if self.samples.is_empty() {
            return None;
        }
        let sum: f64 = self.samples.iter().map(|&(_, r)| r).sum();
        Some(sum / self.samples.len() as f64)
    }

    /// Standard deviation ê_re of the rate samples in the window.
    pub fn rate_std(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.rate().expect("non-empty");
        let var: f64 = self
            .samples
            .iter()
            .map(|&(_, r)| (r - mean) * (r - mean))
            .sum::<f64>()
            / n as f64;
        var.sqrt()
    }

    /// Predicted sojourn time of a standing queue of `n_queue` bytes
    /// (Eq. 5). `None` before the first estimate or at zero rate.
    pub fn predict_sojourn(&self, n_queue: usize) -> Option<Duration> {
        let r = self.rate()?;
        if r <= 0.0 {
            return None;
        }
        Some(Duration::from_secs_f64(n_queue as f64 / r))
    }

    /// Resident memory estimate (Table 1 accounting).
    pub fn memory_bytes(&self) -> usize {
        self.txed.capacity() * core::mem::size_of::<(Instant, usize)>()
            + self.samples.capacity() * core::mem::size_of::<(Instant, f64)>()
            + core::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> EgressEstimator {
        EgressEstimator::new(Duration::from_micros(12_450))
    }

    #[test]
    fn steady_feed_estimates_true_rate() {
        let mut e = est();
        // 1500 bytes every 500 us = 3 MB/s, for 50 ms.
        for k in 0..100u64 {
            e.on_txed(Instant::from_micros(500 * k), 1500);
        }
        let r = e.rate().unwrap();
        assert!(
            (r - 3.0e6).abs() < 0.15e6,
            "estimated {r}, expected 3e6 B/s"
        );
        // Steady rate: tiny std.
        assert!(e.rate_std() < 0.1e6, "std {}", e.rate_std());
    }

    #[test]
    fn empty_estimator_returns_none() {
        let e = est();
        assert_eq!(e.rate(), None);
        assert_eq!(e.predict_sojourn(1000), None);
        assert_eq!(e.rate_std(), 0.0);
    }

    #[test]
    fn sojourn_prediction_is_queue_over_rate() {
        let mut e = est();
        for k in 0..100u64 {
            e.on_txed(Instant::from_micros(500 * k), 1500);
        }
        let r = e.rate().unwrap();
        let q = 30_000usize;
        let pred = e.predict_sojourn(q).unwrap();
        let expect = q as f64 / r;
        assert!((pred.as_secs_f64() - expect).abs() < 1e-9);
    }

    #[test]
    fn rate_drop_is_tracked_within_a_window() {
        let mut e = est();
        // 3 MB/s then a hard drop to 0.6 MB/s.
        for k in 0..60u64 {
            e.on_txed(Instant::from_micros(500 * k), 1500);
        }
        for k in 0..24u64 {
            e.on_txed(Instant::from_micros(30_000 + 2_500 * k), 1500);
        }
        let r = e.rate().unwrap();
        assert!(r < 1.2e6, "estimate {r} should have tracked the rate drop");
        // And the volatility shows up in the spread over the transition…
        // (samples within one window of the last feedback)
    }

    #[test]
    fn volatile_rate_has_larger_std_than_steady() {
        let mut steady = est();
        let mut volatile = est();
        for k in 0..100u64 {
            steady.on_txed(Instant::from_micros(500 * k), 1500);
            // Bursty: alternate large and small slot batches.
            let bytes = if k % 2 == 0 { 2900 } else { 100 };
            volatile.on_txed(Instant::from_micros(500 * k), bytes);
        }
        assert!(volatile.rate_std() > steady.rate_std());
    }

    #[test]
    fn reset_returns_to_cold_state_and_relearns() {
        let mut e = est();
        for k in 0..100u64 {
            e.on_txed(Instant::from_micros(500 * k), 1500);
        }
        assert!(e.rate().is_some());
        e.reset();
        assert_eq!(e.rate(), None, "cold: no estimate");
        assert_eq!(e.attainable_rate(), None, "peak history gone too");
        // A fresh window at a different rate re-learns cleanly.
        for k in 0..30u64 {
            e.on_txed(
                Instant::from_millis(100) + Duration::from_micros(1000 * k),
                750,
            );
        }
        let r = e.rate().unwrap();
        assert!((r - 0.75e6).abs() < 0.15e6, "re-learned {r}");
    }

    #[test]
    fn old_samples_age_out() {
        let mut e = est();
        e.on_txed(Instant::from_micros(0), 1_000_000);
        // Much later, a slow trickle: the big old burst must be gone.
        for k in 0..10u64 {
            e.on_txed(
                Instant::from_millis(100) + Duration::from_micros(500 * k),
                100,
            );
        }
        let r = e.rate().unwrap();
        assert!(r < 1e6, "old burst leaked into the window: {r}");
    }
}
