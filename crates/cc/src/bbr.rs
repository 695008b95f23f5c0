//! BBR v1 (Cardwell et al., 2016): model-based congestion control that
//! probes bottleneck bandwidth and min-RTT, ignores packet loss and ECN.
//! The paper's Appendix B observes BBR's RTT/throughput barely move with
//! L4Span — because it never reacts to the marks — and our implementation
//! reproduces exactly that obliviousness.

use l4span_sim::{Duration, Instant};

use crate::cc::{AckSample, CongestionControl, EcnMode};

/// Startup/drain pacing gain: 2/ln2.
const STARTUP_GAIN: f64 = 2.885;
/// ProbeBW gain cycle.
const CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Rounds the max-bw filter remembers.
const BW_WINDOW_ROUNDS: u64 = 10;
/// min-RTT validity horizon.
const RTPROP_WINDOW: Duration = Duration::from_secs(10);
/// ProbeRTT dwell time.
const PROBE_RTT_TIME: Duration = Duration::from_millis(200);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Startup,
    Drain,
    ProbeBw,
    ProbeRtt,
}

/// BBR v1 congestion control.
#[derive(Debug)]
pub struct Bbr {
    mss: usize,
    state: State,
    /// Per-round bandwidth maxima within the filter window, at most one
    /// entry per round (ascending round order). Only the windowed max is
    /// ever read, and max-of-per-round-maxes equals max-of-all-samples,
    /// so collapsing each round keeps `btl_bw` bit-identical while
    /// bounding the vector at `BW_WINDOW_ROUNDS + 1` entries — the
    /// per-ACK push/retain and the per-send `btl_bw` scan both stop
    /// being O(ACKs-per-window).
    bw_samples: Vec<(u64, f64)>,
    rtprop: Duration,
    rtprop_stamp: Instant,
    round: u64,
    next_round_at: Instant,
    cycle_idx: usize,
    cycle_stamp: Instant,
    full_bw: f64,
    full_bw_count: u8,
    probe_rtt_done_at: Option<Instant>,
    last_probe_rtt: Instant,
}

impl Bbr {
    /// New BBR controller with `mss`-byte segments.
    pub fn new(mss: usize) -> Bbr {
        Bbr {
            mss,
            state: State::Startup,
            bw_samples: Vec::new(),
            rtprop: Duration::MAX,
            rtprop_stamp: Instant::ZERO,
            round: 0,
            next_round_at: Instant::ZERO,
            cycle_idx: 0,
            cycle_stamp: Instant::ZERO,
            full_bw: 0.0,
            full_bw_count: 0,
            probe_rtt_done_at: None,
            last_probe_rtt: Instant::ZERO,
        }
    }

    /// Windowed-max bottleneck bandwidth estimate (bytes/sec).
    pub fn btl_bw(&self) -> f64 {
        self.bw_samples.iter().map(|&(_, b)| b).fold(0.0, f64::max)
    }

    /// Current min-RTT estimate.
    pub fn rtprop(&self) -> Duration {
        self.rtprop
    }

    fn bdp_bytes(&self) -> f64 {
        if self.rtprop == Duration::MAX {
            return (10 * self.mss) as f64;
        }
        self.btl_bw() * self.rtprop.as_secs_f64()
    }

    fn pacing_gain(&self) -> f64 {
        match self.state {
            State::Startup => STARTUP_GAIN,
            State::Drain => 1.0 / STARTUP_GAIN,
            State::ProbeBw => CYCLE[self.cycle_idx],
            State::ProbeRtt => 1.0,
        }
    }

    fn cwnd_gain(&self) -> f64 {
        match self.state {
            State::Startup => STARTUP_GAIN,
            State::Drain => STARTUP_GAIN,
            State::ProbeBw => 2.0,
            State::ProbeRtt => 1.0,
        }
    }

    fn advance_state(&mut self, ack: &AckSample, round_advanced: bool) {
        let now = ack.now;
        match self.state {
            State::Startup => {
                // Full pipe: bw grew <25% across three consecutive rounds.
                let bw = self.btl_bw();
                if bw > self.full_bw * 1.25 {
                    self.full_bw = bw;
                    self.full_bw_count = 0;
                } else if round_advanced {
                    self.full_bw_count += 1;
                    if self.full_bw_count >= 3 {
                        self.state = State::Drain;
                    }
                }
            }
            State::Drain => {
                if (ack.inflight as f64) <= self.bdp_bytes() {
                    self.state = State::ProbeBw;
                    self.cycle_idx = 2; // start in a cruise phase
                    self.cycle_stamp = now;
                }
            }
            State::ProbeBw => {
                let phase_len = self.rtprop.min(Duration::from_millis(200));
                if now.saturating_since(self.cycle_stamp) > phase_len {
                    self.cycle_idx = (self.cycle_idx + 1) % CYCLE.len();
                    self.cycle_stamp = now;
                }
                // Periodic ProbeRTT.
                if now.saturating_since(self.last_probe_rtt) > RTPROP_WINDOW
                    && now.saturating_since(self.rtprop_stamp) > RTPROP_WINDOW
                {
                    self.state = State::ProbeRtt;
                    self.probe_rtt_done_at = Some(now + PROBE_RTT_TIME);
                }
            }
            State::ProbeRtt => {
                if let Some(done) = self.probe_rtt_done_at {
                    if now >= done {
                        self.state = State::ProbeBw;
                        self.cycle_stamp = now;
                        self.last_probe_rtt = now;
                        self.probe_rtt_done_at = None;
                    }
                }
            }
        }
    }
}

impl CongestionControl for Bbr {
    fn on_ack(&mut self, ack: &AckSample) {
        let round_advanced = ack.now >= self.next_round_at;
        if round_advanced {
            self.round += 1;
            self.next_round_at = ack.now + ack.srtt;
        }
        if let Some(rtt) = ack.rtt {
            if rtt <= self.rtprop || ack.now.saturating_since(self.rtprop_stamp) > RTPROP_WINDOW {
                self.rtprop = rtt;
                self.rtprop_stamp = ack.now;
            }
        }
        if let Some(bw) = ack.delivery_rate {
            // App-limited samples may only raise the estimate.
            if !ack.app_limited || bw > self.btl_bw() {
                match self.bw_samples.last_mut() {
                    Some((r, max)) if *r == self.round => *max = max.max(bw),
                    _ => self.bw_samples.push((self.round, bw)),
                }
            }
        }
        let min_round = self.round.saturating_sub(BW_WINDOW_ROUNDS);
        self.bw_samples.retain(|&(r, _)| r >= min_round);
        self.advance_state(ack, round_advanced);
    }

    fn on_loss(&mut self, _now: Instant) {
        // BBRv1 deliberately does not react to individual losses.
    }

    fn on_rto(&mut self, _now: Instant) {
        // Conservative restart, as Linux BBR does on RTO.
        self.full_bw = 0.0;
        self.full_bw_count = 0;
    }

    fn cwnd(&self) -> usize {
        if self.state == State::ProbeRtt {
            return 4 * self.mss;
        }
        ((self.cwnd_gain() * self.bdp_bytes()) as usize).max(4 * self.mss)
    }

    fn pacing_rate(&self) -> Option<f64> {
        let bw = self.btl_bw();
        if bw <= 0.0 {
            None // no estimate yet: send ack-clocked
        } else {
            Some(self.pacing_gain() * bw)
        }
    }

    fn ecn_mode(&self) -> EcnMode {
        // ECT(0) so marking infrastructure treats it as classic; BBRv1
        // simply never reads the echo.
        EcnMode::Classic
    }

    fn name(&self) -> &'static str {
        "bbr"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(now_ms: u64, bytes: usize, rtt_ms: u64, bw: f64, inflight: usize) -> AckSample {
        AckSample {
            now: Instant::from_millis(now_ms),
            newly_acked: bytes,
            ce_bytes: 0,
            ect_bytes: None,
            ece: false,
            rtt: Some(Duration::from_millis(rtt_ms)),
            srtt: Duration::from_millis(rtt_ms),
            inflight,
            delivery_rate: Some(bw),
            app_limited: false,
        }
    }

    #[test]
    fn tracks_max_bw_and_min_rtt() {
        let mut b = Bbr::new(1000);
        b.on_ack(&ack(10, 1000, 50, 1e6, 10_000));
        b.on_ack(&ack(20, 1000, 40, 2e6, 10_000));
        b.on_ack(&ack(30, 1000, 45, 1.5e6, 10_000));
        assert_eq!(b.btl_bw(), 2e6);
        assert_eq!(b.rtprop(), Duration::from_millis(40));
    }

    #[test]
    fn startup_exits_when_bw_plateaus() {
        let mut b = Bbr::new(1000);
        let mut t = 0;
        for _ in 0..20 {
            b.on_ack(&ack(t, 10_000, 40, 5e6, 50_000));
            t += 50;
        }
        assert_ne!(b.state, State::Startup, "plateaued bw must exit startup");
    }

    #[test]
    fn cwnd_tracks_bdp() {
        let mut b = Bbr::new(1000);
        let mut t = 0;
        for _ in 0..30 {
            b.on_ack(&ack(t, 10_000, 40, 5e6, 10_000));
            t += 50;
        }
        // In ProbeBW: cwnd = 2 × BDP = 2 × 5e6 × 0.04 = 400 kB.
        let bdp = 5e6 * 0.04;
        assert!(b.state == State::ProbeBw || b.state == State::Drain);
        assert!((b.cwnd() as f64) >= bdp, "cwnd {} < bdp {bdp}", b.cwnd());
    }

    #[test]
    fn ignores_loss_and_ce() {
        let mut b = Bbr::new(1000);
        let mut t = 0;
        for _ in 0..30 {
            b.on_ack(&ack(t, 10_000, 40, 5e6, 10_000));
            t += 50;
        }
        let w = b.cwnd();
        b.on_loss(Instant::from_millis(t));
        assert_eq!(b.cwnd(), w, "BBRv1 must not react to loss");
        let mut marked = ack(t + 10, 10_000, 40, 5e6, 10_000);
        marked.ce_bytes = 10_000;
        marked.ece = true;
        b.on_ack(&marked);
        assert!(b.cwnd() >= w * 9 / 10, "BBRv1 must not react to CE");
    }

    #[test]
    fn pacing_rate_follows_gain() {
        let mut b = Bbr::new(1000);
        assert!(b.pacing_rate().is_none(), "no estimate yet");
        b.on_ack(&ack(10, 1000, 40, 1e6, 10_000));
        let r = b.pacing_rate().unwrap();
        assert!((r - STARTUP_GAIN * 1e6).abs() < 1.0);
    }

    #[test]
    fn old_bw_samples_age_out() {
        let mut b = Bbr::new(1000);
        b.on_ack(&ack(0, 1000, 40, 9e6, 1000));
        // Many rounds later the old peak must be forgotten.
        let mut t = 50;
        for _ in 0..15 {
            b.on_ack(&ack(t, 1000, 40, 1e6, 1000));
            t += 50;
        }
        assert_eq!(b.btl_bw(), 1e6);
    }
}
