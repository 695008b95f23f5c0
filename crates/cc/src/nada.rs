//! NADA: Network-Assisted Dynamic Adaptation (RFC 8698), the IETF
//! rmcat congestion controller for interactive media.
//!
//! NADA folds queuing delay, losses, and ECN marks into one *aggregate
//! congestion signal* `x_curr` (§4.2) and runs two update modes on a
//! reference rate `r_ref` (§4.3):
//!
//! * **accelerated ramp-up** while the path shows no congestion at all
//!   (no marks, no losses, queuing delay under `QEPS`): multiplicative
//!   growth bounded by `gamma = min(GAMMA_MAX, QBOUND / (rtt + DELTA))`;
//! * **gradual update** otherwise: a proportional–integral step driven
//!   by the offset of `x_curr` from the per-flow target and by its
//!   derivative, so the rate converges where the aggregate signal
//!   equals `PRIO · XREF · RMAX / r_ref`.
//!
//! The implementation is rate-based like the RFC, exposed through
//! [`CongestionControl`] as a paced window (`cwnd = rate × srtt`) so
//! the harness can run NADA wherever it runs CUBIC or Prague. Queuing
//! delay is estimated as `srtt − min srtt`, with the floor tracked by a
//! [`WindowedMin`] so a handover to a longer-RTT cell does not read as
//! standing queue forever.

use crate::cc::{AckSample, CongestionControl, EcnMode, WindowedMin};
use l4span_sim::{Duration, Instant};

/// Weight of delay vs. loss in the aggregate signal (§5.1 `PRIO`).
const PRIO: f64 = 1.0;
/// Reference congestion level in ms (§5.1 `XREF`).
const XREF_MS: f64 = 10.0;
/// Scaling of the proportional + integral terms (§5.1 `KAPPA`).
const KAPPA: f64 = 0.5;
/// Weight of the derivative (proportional) term (§5.1 `ETA`).
const ETA: f64 = 2.0;
/// Upper bound of RTT in the gradual-update law, ms (§5.1 `TAU`).
const TAU_MS: f64 = 500.0;
/// Target feedback / update interval (§5.1 `DELTA`).
const DELTA: Duration = Duration::from_millis(100);
/// Max ramp-up step per interval (§5.1 `QBOUND`/`GAMMA_MAX`).
const GAMMA_MAX: f64 = 0.5;
/// Upper bound on self-inflicted queuing delay during ramp-up, ms.
const QBOUND_MS: f64 = 50.0;
/// Queuing delay below which the path reads as uncongested, ms
/// (`QEPS` in §4.3's ramp-up condition).
const QEPS_MS: f64 = 10.0;
/// Reference penalty one ECN mark contributes to `x_curr`, ms
/// (§4.2 `DMARK`: the delay equivalent of a marking event).
const DMARK_MS: f64 = 10.0;
/// Reference penalty one loss contributes to `x_curr`, ms (§4.2
/// `DLOSS`; losses are rarer and costlier than marks).
const DLOSS_MS: f64 = 100.0;
/// Window over which the delay floor may age out.
const MIN_RTT_WINDOW: Duration = Duration::from_secs(10);

/// Default rate bounds when used as a drop-in TCP controller (§5.1
/// `RMIN`/`RMAX`), bytes/sec.
const RMIN: f64 = 19_000.0; // 150 kbit/s
const RMAX: f64 = 18_750_000.0; // 150 Mbit/s

/// The RFC 8698 NADA core: a reference rate updated from aggregate
/// congestion signals. Embeddable — the FEC media sender runs one per
/// bonded leg; [`NadaCc`] adapts one to [`CongestionControl`].
#[derive(Debug, Clone)]
pub struct NadaCore {
    /// Reference rate in bytes/sec.
    r_ref: f64,
    min_rate: f64,
    max_rate: f64,
    /// Aggregate congestion signal of the previous update, ms.
    x_prev_ms: f64,
    /// Delay floor for the queuing-delay estimate.
    min_rtt: WindowedMin,
    last_update: Option<Instant>,
    /// Congestion signals accumulated since the last update.
    acc_bytes: u64,
    acc_mark_bytes: u64,
    acc_losses: u32,
    srtt: Duration,
}

impl NadaCore {
    /// A core with the given rate bounds (bytes/sec), starting at
    /// `start_rate`.
    pub fn new(min_rate: f64, start_rate: f64, max_rate: f64) -> NadaCore {
        NadaCore {
            r_ref: start_rate.clamp(min_rate, max_rate),
            min_rate,
            max_rate,
            x_prev_ms: 0.0,
            min_rtt: WindowedMin::new(MIN_RTT_WINDOW),
            last_update: None,
            acc_bytes: 0,
            acc_mark_bytes: 0,
            acc_losses: 0,
            srtt: Duration::from_millis(40),
        }
    }

    /// Current reference rate in bytes/sec.
    pub fn rate(&self) -> f64 {
        self.r_ref
    }

    /// Smoothed RTT last fed in.
    pub fn srtt(&self) -> Duration {
        self.srtt
    }

    /// Accumulate one acked/feedback sample: `bytes` arrived, of which
    /// `mark_bytes` were CE-marked, with the given smoothed RTT.
    pub fn on_sample(&mut self, now: Instant, bytes: u64, mark_bytes: u64, srtt: Duration) {
        self.srtt = srtt;
        self.min_rtt.update(now, srtt);
        self.acc_bytes += bytes;
        self.acc_mark_bytes += mark_bytes;
        let due = match self.last_update {
            None => {
                self.last_update = Some(now);
                false
            }
            Some(at) => now.saturating_since(at) >= DELTA,
        };
        if due {
            self.update(now);
        }
    }

    /// Record one loss event (fast-retransmit scale).
    pub fn on_loss(&mut self) {
        self.acc_losses += 1;
    }

    /// Collapse to the minimum rate (RTO scale).
    pub fn collapse(&mut self) {
        self.r_ref = self.min_rate;
        self.x_prev_ms = 0.0;
    }

    /// Queuing-delay estimate in ms: smoothed RTT over the windowed
    /// floor.
    fn d_queue_ms(&mut self, now: Instant) -> f64 {
        let floor = self.min_rtt.get(now).unwrap_or(self.srtt);
        self.srtt.saturating_sub(floor).as_secs_f64() * 1e3
    }

    /// One §4.3 update step over the accumulated interval.
    fn update(&mut self, now: Instant) {
        let delta_s = now
            .saturating_since(self.last_update.unwrap_or(now))
            .as_secs_f64()
            .max(1e-3);
        self.last_update = Some(now);
        let d_queue = self.d_queue_ms(now);
        let mark_frac = if self.acc_bytes > 0 {
            self.acc_mark_bytes as f64 / self.acc_bytes as f64
        } else {
            0.0
        };
        // §4.2: aggregate congestion signal = delay + penalty terms.
        let x_curr = d_queue + DMARK_MS * mark_frac + DLOSS_MS * f64::from(self.acc_losses);
        let clean = self.acc_mark_bytes == 0 && self.acc_losses == 0 && d_queue < QEPS_MS;
        if clean {
            // §4.3 accelerated ramp-up: bounded multiplicative growth.
            let rtt_ms = self.srtt.as_secs_f64() * 1e3;
            let gamma = GAMMA_MAX.min(QBOUND_MS / (rtt_ms + DELTA.as_secs_f64() * 1e3));
            self.r_ref *= 1.0 + gamma * (delta_s / DELTA.as_secs_f64()).min(1.0);
        } else {
            // §4.3 gradual update: PI step on the aggregate signal.
            let x_offset = x_curr - PRIO * XREF_MS * self.max_rate / self.r_ref;
            let x_diff = x_curr - self.x_prev_ms;
            let delta_ms = delta_s * 1e3;
            self.r_ref -= KAPPA * (delta_ms / TAU_MS) * (x_offset / TAU_MS) * self.r_ref
                + KAPPA * ETA * (x_diff / TAU_MS) * self.r_ref;
        }
        self.x_prev_ms = x_curr;
        self.acc_bytes = 0;
        self.acc_mark_bytes = 0;
        self.acc_losses = 0;
        self.r_ref = self.r_ref.clamp(self.min_rate, self.max_rate);
    }
}

/// NADA as a TCP-style [`CongestionControl`]: the reference rate paces
/// the sender and backs a `rate × srtt` window.
#[derive(Debug)]
pub struct NadaCc {
    core: NadaCore,
    mss: usize,
    name: &'static str,
    /// Fraction of the reference rate offered to the transport; the
    /// FEC-media flavour reserves the rest for repair overhead.
    rate_scale: f64,
}

impl NadaCc {
    /// Plain NADA with the RFC's default rate bounds.
    pub fn new(mss: usize) -> NadaCc {
        NadaCc {
            core: NadaCore::new(RMIN, 12.0 * RMIN, RMAX),
            mss,
            name: "nada",
            rate_scale: 1.0,
        }
    }

    /// The FEC-media flavour: the same NADA dynamics with a slice of
    /// the reference rate reserved for sliding-window repair packets,
    /// so source + repair together stay within what NADA granted (one
    /// repair per [`crate::fec::REPAIR_EVERY`] source packets).
    pub fn new_fec_media(mss: usize) -> NadaCc {
        NadaCc {
            core: NadaCore::new(RMIN, 12.0 * RMIN, RMAX),
            mss,
            name: "fec-media",
            rate_scale: crate::fec::REPAIR_EVERY as f64 / (crate::fec::REPAIR_EVERY as f64 + 1.0),
        }
    }

    /// The embedded core (diagnostics and tests).
    pub fn core(&self) -> &NadaCore {
        &self.core
    }
}

impl CongestionControl for NadaCc {
    fn on_ack(&mut self, ack: &AckSample) {
        self.core.on_sample(
            ack.now,
            ack.newly_acked as u64,
            ack.ce_bytes as u64,
            ack.srtt,
        );
    }

    fn on_loss(&mut self, _now: Instant) {
        self.core.on_loss();
    }

    fn on_rto(&mut self, _now: Instant) {
        self.core.collapse();
    }

    fn cwnd(&self) -> usize {
        let w = self.core.r_ref * self.rate_scale * self.core.srtt.as_secs_f64();
        (w as usize).max(2 * self.mss)
    }

    fn pacing_rate(&self) -> Option<f64> {
        Some(self.core.r_ref * self.rate_scale)
    }

    fn ecn_mode(&self) -> EcnMode {
        EcnMode::L4s
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_ack(now: Instant, srtt_ms: u64) -> AckSample {
        AckSample {
            now,
            newly_acked: 3000,
            ce_bytes: 0,
            ect_bytes: Some(3000),
            ece: false,
            rtt: Some(Duration::from_millis(srtt_ms)),
            srtt: Duration::from_millis(srtt_ms),
            inflight: 30_000,
            delivery_rate: None,
            app_limited: false,
        }
    }

    /// §4.3: the ramp-up multiplier per update interval is bounded by
    /// `1 + gamma`, `gamma = min(GAMMA_MAX, QBOUND / (rtt + DELTA))`.
    #[test]
    fn ramp_up_is_bounded_per_interval() {
        let mut core = NadaCore::new(1e4, 1e5, 1e8);
        let mut t = Instant::ZERO;
        let srtt = Duration::from_millis(40);
        let mut prev = core.rate();
        for _ in 0..50 {
            core.on_sample(t, 12_000, 0, srtt);
            let gamma = GAMMA_MAX.min(QBOUND_MS / (40.0 + 100.0));
            assert!(
                core.rate() <= prev * (1.0 + gamma) + 1e-6,
                "step exceeded the gamma bound: {prev} -> {}",
                core.rate()
            );
            prev = core.rate();
            t += DELTA;
        }
        assert!(core.rate() > 1e5, "clean path must ramp up");
    }

    /// §4.3 gradual mode is a PI controller: a signal above the target
    /// drives the rate down, one at the (stable, small) target with no
    /// derivative drives it up — the convergence sign property.
    #[test]
    fn pi_update_sign_follows_x_offset() {
        // High rate + standing 40 ms queue → x_offset > 0 → decrease.
        let mut core = NadaCore::new(1e4, 5e6, 6e6);
        let mut t = Instant::ZERO;
        core.on_sample(t, 12_000, 0, Duration::from_millis(20)); // floor
        for _ in 0..5 {
            t += DELTA;
            core.on_sample(t, 12_000, 1_000, Duration::from_millis(60));
        }
        assert!(core.rate() < 5e6, "positive offset must shrink the rate");

        // Low rate, tiny marking, no queue → x_offset < 0 → once x_diff
        // settles, the PI step grows the rate toward the target.
        let mut core = NadaCore::new(1e4, 1e5, 1e8);
        let mut t = Instant::ZERO;
        core.on_sample(t, 12_000, 0, Duration::from_millis(40));
        for _ in 0..3 {
            t += DELTA;
            // A constant whiff of marking keeps it in gradual mode with
            // x_diff == 0 after the first step.
            core.on_sample(t, 12_000, 60, Duration::from_millis(40));
        }
        let before = core.rate();
        t += DELTA;
        core.on_sample(t, 12_000, 60, Duration::from_millis(40));
        assert!(
            core.rate() > before,
            "negative offset must grow the rate: {before} -> {}",
            core.rate()
        );
    }

    #[test]
    fn loss_penalty_outweighs_marks() {
        let mut marks = NadaCore::new(1e4, 1e6, 1e8);
        let mut losses = marks.clone();
        let mut t = Instant::ZERO;
        let srtt = Duration::from_millis(40);
        marks.on_sample(t, 12_000, 0, srtt);
        losses.on_sample(t, 12_000, 0, srtt);
        for _ in 0..10 {
            t += DELTA;
            marks.on_sample(t, 12_000, 1_200, srtt);
            losses.on_loss();
            losses.on_sample(t, 12_000, 0, srtt);
        }
        assert!(losses.rate() < marks.rate(), "a loss costs more than a mark");
    }

    #[test]
    fn trait_adapter_paces_and_windows() {
        let mut cc = NadaCc::new(1500);
        let t = Instant::ZERO;
        cc.on_ack(&clean_ack(t, 40));
        let rate = cc.pacing_rate().expect("NADA is rate-based");
        assert!(rate > 0.0);
        // cwnd tracks rate × srtt.
        let want = (rate * 0.040) as usize;
        assert!(cc.cwnd() >= want.min(2 * 1500));
        assert_eq!(cc.ecn_mode(), EcnMode::L4s);
        cc.on_rto(t);
        assert_eq!(cc.cwnd(), 2 * 1500, "RTO collapses to the floor");
    }

    #[test]
    fn fec_media_flavour_reserves_repair_overhead() {
        let plain = NadaCc::new(1500);
        let fec = NadaCc::new_fec_media(1500);
        let (Some(p), Some(f)) = (plain.pacing_rate(), fec.pacing_rate()) else {
            panic!("both flavours pace");
        };
        let scale = crate::fec::REPAIR_EVERY as f64 / (crate::fec::REPAIR_EVERY as f64 + 1.0);
        assert!((f / p - scale).abs() < 1e-9);
        assert_eq!(fec.name(), "fec-media");
    }
}
