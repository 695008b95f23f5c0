//! The congestion-control trait shared by all senders.

use l4span_net::Ecn;
use l4span_sim::{Duration, Instant};

/// How a sender marks and reads ECN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcnMode {
    /// Not ECN-capable: packets go out Not-ECT, feedback is loss only.
    None,
    /// Classic ECN (RFC 3168): ECT(0) packets, ECE/CWR echo, a CE mark is
    /// treated like one loss event per RTT.
    Classic,
    /// L4S/AccECN: ECT(1) packets, per-byte CE accounting, scalable
    /// (DCTCP-style) response.
    L4s,
}

impl EcnMode {
    /// The codepoint data packets carry.
    pub fn codepoint(self) -> Ecn {
        match self {
            EcnMode::None => Ecn::NotEct,
            EcnMode::Classic => Ecn::Ect0,
            EcnMode::L4s => Ecn::Ect1,
        }
    }
}

/// Everything one cumulative ACK tells the congestion controller.
#[derive(Debug, Clone, Copy)]
pub struct AckSample {
    /// Arrival time of the ACK.
    pub now: Instant,
    /// Bytes newly acknowledged by this ACK.
    pub newly_acked: usize,
    /// Of those, bytes reported CE-marked (AccECN; 0 under classic ECN).
    pub ce_bytes: usize,
    /// Bytes reported arriving with *any* ECN-capable codepoint (the sum
    /// of the AccECN CE + ECT(0) + ECT(1) counter deltas), when AccECN
    /// feedback provides it; `None` under classic ECN / no ECN. On an
    /// ECN-faithful path this tracks `newly_acked`; a persistent
    /// shortfall is the sender-visible signature of mid-path ECT
    /// bleaching (the arrival codepoint was erased, so no per-codepoint
    /// counter advanced).
    pub ect_bytes: Option<usize>,
    /// Classic ECN-Echo flag state (false under AccECN).
    pub ece: bool,
    /// RTT sample from the newest acked segment, if clean (not a retx).
    pub rtt: Option<Duration>,
    /// Smoothed RTT maintained by the sender.
    pub srtt: Duration,
    /// Bytes in flight *after* this ACK was processed.
    pub inflight: usize,
    /// Delivery-rate sample in bytes/sec (BBR-style), if computable.
    pub delivery_rate: Option<f64>,
    /// True if the sender was application-limited over this sample.
    pub app_limited: bool,
}

/// Why a Prague sender abandoned scalable dynamics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// Sustained CE co-occurring with classic-scale queueing delay: the
    /// marks come from an RFC 3168 single-queue AQM, not an L4S one.
    ClassicEcn,
    /// Sustained AccECN arrival-codepoint shortfall: a middlebox is
    /// bleaching the flow's ECT marking, so CE feedback can no longer be
    /// trusted to exist.
    Bleached,
}

impl FallbackReason {
    /// Stable label for reports and fingerprints.
    pub fn as_str(self) -> &'static str {
        match self {
            FallbackReason::ClassicEcn => "classic-ecn",
            FallbackReason::Bleached => "bleached",
        }
    }
}

/// A typed congestion-control state transition, drained out-of-band via
/// [`CongestionControl::take_events`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CcEvent {
    /// The sender permanently switched from scalable (L4S) response to
    /// Reno-friendly dynamics per the L4S operational guidance.
    ClassicFallback {
        /// When the transition happened.
        at: Instant,
        /// What triggered it.
        reason: FallbackReason,
    },
}

/// A running minimum over a sliding time window (the BBR min-RTT
/// idiom): a monotonic deque of `(seen_at, value)` candidates where
/// each new sample evicts every older candidate it dominates, and the
/// front expires once it falls out of the window. Unlike a lifetime
/// minimum, the floor *forgets* — after a handover to a longer-RTT
/// cell the old cell's floor ages out within one window instead of
/// poisoning `srtt - min` queue estimates forever.
#[derive(Debug, Clone)]
pub struct WindowedMin {
    window: Duration,
    samples: std::collections::VecDeque<(Instant, Duration)>,
}

impl WindowedMin {
    /// An empty tracker with the given expiry window.
    pub fn new(window: Duration) -> WindowedMin {
        WindowedMin {
            window,
            samples: std::collections::VecDeque::new(),
        }
    }

    /// Ingest one sample observed at `now` and return the current
    /// windowed minimum (never `None`: the fresh sample itself is an
    /// in-window candidate).
    pub fn update(&mut self, now: Instant, value: Duration) -> Duration {
        while self.samples.back().is_some_and(|&(_, v)| v >= value) {
            self.samples.pop_back();
        }
        self.samples.push_back((now, value));
        self.expire(now);
        self.samples.front().map(|&(_, v)| v).unwrap_or(value)
    }

    /// The current windowed minimum, expiring stale candidates first.
    pub fn get(&mut self, now: Instant) -> Option<Duration> {
        self.expire(now);
        self.samples.front().map(|&(_, v)| v)
    }

    fn expire(&mut self, now: Instant) {
        while self
            .samples
            .front()
            .is_some_and(|&(at, _)| now.saturating_since(at) > self.window)
        {
            // Never drop the last candidate: an idle period longer than
            // the window would otherwise leave the tracker empty, and
            // the most recent observation is still the best guess.
            if self.samples.len() == 1 {
                break;
            }
            self.samples.pop_front();
        }
    }
}

/// The prohibit-interval gate in front of the UDP receivers' feedback
/// (SCReAM, UDP Prague, FEC media): a report leaves with the first
/// datagram arriving at least [`FeedbackGate::INTERVAL`] after the
/// previous report; what accumulates in between waits for the next such
/// arrival or a timer flush.
#[derive(Debug)]
pub(crate) struct FeedbackGate {
    last_fb_at: Instant,
    /// Unreported state exists.
    dirty: bool,
}

impl FeedbackGate {
    /// Minimum spacing between two reports.
    pub(crate) const INTERVAL: Duration = Duration::from_millis(25);

    pub(crate) fn new() -> FeedbackGate {
        FeedbackGate {
            last_fb_at: Instant::ZERO,
            dirty: false,
        }
    }

    /// Is a report due at `now`? `arrival` is true when a datagram just
    /// arrived, false for a timer flush. A `true` answer records the
    /// report as sent.
    pub(crate) fn due(&mut self, now: Instant, arrival: bool) -> bool {
        self.dirty |= arrival;
        let due = self.dirty && now.saturating_since(self.last_fb_at) >= Self::INTERVAL;
        if due {
            self.last_fb_at = now;
            self.dirty = false;
        }
        due
    }
}

/// A pluggable congestion controller. All window values are in bytes.
/// `Send` is a supertrait so whole worlds (which box controllers per
/// flow) can move between — and be driven by — worker threads.
pub trait CongestionControl: Send {
    /// Process one cumulative ACK.
    fn on_ack(&mut self, ack: &AckSample);
    /// A loss was detected (fast retransmit). At most once per RTT.
    fn on_loss(&mut self, now: Instant);
    /// Retransmission timeout fired: collapse to one segment.
    fn on_rto(&mut self, now: Instant);
    /// Current congestion window in bytes.
    fn cwnd(&self) -> usize;
    /// Pacing rate in bytes/sec, or `None` to send purely ack-clocked.
    fn pacing_rate(&self) -> Option<f64> {
        None
    }
    /// ECN mode (decides the codepoint and the feedback format).
    fn ecn_mode(&self) -> EcnMode;
    /// Human-readable name for logs and figures.
    fn name(&self) -> &'static str;
    /// Drain typed state-transition events recorded since the last call
    /// (harvested into the run report). Default: none.
    fn take_events(&mut self) -> Vec<CcEvent> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_min_tracks_and_forgets() {
        let mut m = WindowedMin::new(Duration::from_secs(10));
        let t0 = Instant::ZERO;
        assert_eq!(m.update(t0, Duration::from_millis(20)), Duration::from_millis(20));
        // A lower sample becomes the floor immediately.
        assert_eq!(
            m.update(t0 + Duration::from_secs(1), Duration::from_millis(15)),
            Duration::from_millis(15)
        );
        // Higher samples don't displace an in-window floor.
        assert_eq!(
            m.update(t0 + Duration::from_secs(5), Duration::from_millis(60)),
            Duration::from_millis(15)
        );
        // ... but once the floor ages past the window, it is forgotten.
        assert_eq!(
            m.update(t0 + Duration::from_secs(12), Duration::from_millis(60)),
            Duration::from_millis(60)
        );
    }

    #[test]
    fn windowed_min_keeps_last_candidate_through_idle() {
        let mut m = WindowedMin::new(Duration::from_secs(10));
        m.update(Instant::ZERO, Duration::from_millis(30));
        // 30 s idle: the stale sample is still the best available guess.
        assert_eq!(
            m.get(Instant::ZERO + Duration::from_secs(30)),
            Some(Duration::from_millis(30))
        );
    }

    #[test]
    fn ecn_mode_codepoints() {
        assert_eq!(EcnMode::None.codepoint(), Ecn::NotEct);
        assert_eq!(EcnMode::Classic.codepoint(), Ecn::Ect0);
        assert_eq!(EcnMode::L4s.codepoint(), Ecn::Ect1);
    }
}
