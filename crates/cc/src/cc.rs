//! The congestion-control trait shared by all senders.

use std::collections::VecDeque;

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

// Prague's constants, shared by the TCP sender (`prague`) and the UDP
// one (`udp_prague`).

/// EWMA gain for Prague's α (DCTCP's g = 1/16).
pub(crate) const ALPHA_GAIN: f64 = 1.0 / 16.0;

/// Classic-AQM pattern: CE co-occurring with queueing delay above this
/// over the path floor reads as a classic (RFC 3168) single-queue AQM
/// (classic AQMs target tens of ms of standing queue; an L4S step
/// target sits around 1 ms).
const CLASSIC_DELAY: Duration = Duration::from_millis(15);

/// Consecutive suspicious rounds — RTT rounds for TCP, feedback epochs
/// for UDP — of classic or bleached evidence before a Prague sender
/// falls back to classic dynamics.
const FALLBACK_STREAK: u32 = 3;

/// How far back a Prague fallback detector remembers its RTT floor. A
/// lifetime minimum poisons the `srtt - min` queue estimate after a
/// handover to a longer-RTT cell: the old floor makes the clean new
/// path read as standing queue and can trip classic fallback on a good
/// L4S path. The [`WindowedMin`] forgets it within this window.
const MIN_RTT_WINDOW: Duration = Duration::from_secs(10);

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
    samples: VecDeque<(Instant, Duration)>,
}

impl WindowedMin {
    /// An empty tracker with the given expiry window.
    pub fn new(window: Duration) -> WindowedMin {
        WindowedMin {
            window,
            samples: VecDeque::new(),
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

/// The classic-ECN / bleaching fallback judge of the Prague senders: TCP
/// Prague hands it one verdict per ACK round, UDP Prague one per
/// feedback epoch. [`FALLBACK_STREAK`] consecutive classic verdicts
/// (CE while srtt sits [`CLASSIC_DELAY`] above the RTT floor) or
/// bleached ones (most arrivals lost their ECT codepoint) make the
/// sender fall back to Reno-friendly dynamics for good; classic wins a
/// tie. The fall is recorded as one [`CcEvent::ClassicFallback`].
#[derive(Debug)]
pub(crate) struct FallbackDetector {
    /// Windowed-lowest RTT sample (the queueing-delay baseline).
    floor: WindowedMin,
    classic_rounds: u32,
    bleach_rounds: u32,
    /// Set once: the recorded transition, until drained.
    event: Option<CcEvent>,
    fallen: bool,
}

impl FallbackDetector {
    pub(crate) fn new() -> FallbackDetector {
        FallbackDetector {
            floor: WindowedMin::new(MIN_RTT_WINDOW),
            classic_rounds: 0,
            bleach_rounds: 0,
            event: None,
            fallen: false,
        }
    }

    /// Feed one RTT sample to the floor.
    pub(crate) fn sample_floor(&mut self, now: Instant, rtt: Duration) {
        self.floor.update(now, rtt);
    }

    /// Does `srtt` sit a classic-scale queue above the floor?
    pub(crate) fn classic_queue(&mut self, now: Instant, srtt: Duration) -> bool {
        self.floor
            .get(now)
            .map_or(Duration::ZERO, |m| srtt.saturating_sub(m))
            > CLASSIC_DELAY
    }

    /// Judge one round: `Some(true)` is evidence, `Some(false)` a clean
    /// round that resets the streak, `None` no evidence either way.
    pub(crate) fn judge(&mut self, now: Instant, classic: Option<bool>, bleached: Option<bool>) {
        if self.fallen {
            return;
        }
        for (rounds, seen) in [
            (&mut self.classic_rounds, classic),
            (&mut self.bleach_rounds, bleached),
        ] {
            match seen {
                Some(true) => *rounds += 1,
                Some(false) => *rounds = 0,
                None => {}
            }
        }
        let reason = if self.classic_rounds >= FALLBACK_STREAK {
            FallbackReason::ClassicEcn
        } else if self.bleach_rounds >= FALLBACK_STREAK {
            FallbackReason::Bleached
        } else {
            return;
        };
        self.fallen = true;
        self.event = Some(CcEvent::ClassicFallback { at: now, reason });
    }

    /// The sender is in Reno-friendly mode for good.
    pub(crate) fn fallen(&self) -> bool {
        self.fallen
    }

    /// The fallback event, once.
    pub(crate) fn take_event(&mut self) -> Option<CcEvent> {
        self.event.take()
    }
}

/// Sparse RTT sampling for a rate-paced UDP sender: one `(datagrams
/// sent, send time)` probe per [`RttProbe::EVERY`] datagrams, at most
/// [`RttProbe::KEEP`] outstanding. A feedback report's cumulative
/// received count pops every probe it covers into a 7/8 EWMA.
#[derive(Debug, Default)]
pub(crate) struct RttProbe {
    sent: u64,
    probes: VecDeque<(u64, Instant)>,
    /// Smoothed RTT; `None` until the first probe returns.
    pub(crate) srtt: Option<Duration>,
}

impl RttProbe {
    /// Probe spacing in datagrams.
    const EVERY: u64 = 16;
    /// Outstanding probes kept; the oldest goes first.
    const KEEP: usize = 256;

    /// One datagram left at `now`.
    pub(crate) fn on_send(&mut self, now: Instant) {
        self.sent += 1;
        if self.sent % Self::EVERY == 1 {
            self.probes.push_back((self.sent, now));
            if self.probes.len() > Self::KEEP {
                self.probes.pop_front();
            }
        }
    }

    /// A report counting `received` datagrams arrived at `now`.
    pub(crate) fn on_report(&mut self, received: u64, now: Instant) {
        while let Some(&(count, sent)) = self.probes.front() {
            if count > received {
                break;
            }
            self.probes.pop_front();
            let rtt = now.saturating_since(sent);
            self.srtt = Some(match self.srtt {
                None => rtt,
                Some(s) => {
                    Duration::from_secs_f64(0.875 * s.as_secs_f64() + 0.125 * rtt.as_secs_f64())
                }
            });
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
        assert_eq!(
            m.update(t0, Duration::from_millis(20)),
            Duration::from_millis(20)
        );
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

    /// One verdict per round, all at instant `t`.
    fn judge_rounds(d: &mut FallbackDetector, t: Instant, rounds: &[(Option<bool>, Option<bool>)]) {
        for &(classic, bleached) in rounds {
            d.judge(t, classic, bleached);
        }
    }

    #[test]
    fn fallback_streak_survives_no_evidence_and_resets_on_a_clean_round() {
        let t = Instant::ZERO;
        let (yes, no) = (Some(true), Some(false));
        // Either streak, in turn: `None` leaves it as it is …
        for (hit, idle) in [((yes, None), (None, None)), ((None, yes), (None, None))] {
            let mut d = FallbackDetector::new();
            judge_rounds(&mut d, t, &[hit, hit, idle, idle, idle]);
            assert!(!d.fallen());
            d.judge(t, hit.0, hit.1);
            assert!(d.fallen(), "three rounds of evidence around idle ones");
        }
        // … a clean round starts it over.
        for (hit, clean) in [((yes, None), (no, None)), ((None, yes), (None, no))] {
            let mut d = FallbackDetector::new();
            judge_rounds(&mut d, t, &[hit, hit, clean, hit, hit]);
            assert!(!d.fallen());
        }
    }

    #[test]
    fn classic_outranks_bleaching_on_the_same_round() {
        let mut d = FallbackDetector::new();
        let both = (Some(true), Some(true));
        judge_rounds(&mut d, Instant::from_millis(1), &[both, both]);
        d.judge(Instant::from_millis(7), Some(true), Some(true));
        assert_eq!(
            d.take_event(),
            Some(CcEvent::ClassicFallback {
                at: Instant::from_millis(7),
                reason: FallbackReason::ClassicEcn,
            })
        );
    }

    #[test]
    fn fallen_is_terminal_and_its_event_is_taken_once() {
        let mut d = FallbackDetector::new();
        let bleached = (Some(false), Some(true));
        judge_rounds(&mut d, Instant::ZERO, &[bleached; 3]);
        assert!(matches!(
            d.take_event(),
            Some(CcEvent::ClassicFallback {
                reason: FallbackReason::Bleached,
                ..
            })
        ));
        assert_eq!(d.take_event(), None, "taken once");
        let clean = (Some(false), Some(false));
        judge_rounds(&mut d, Instant::ZERO, &[clean, (Some(true), None)]);
        judge_rounds(&mut d, Instant::ZERO, &[(Some(true), None); 3]);
        assert!(d.fallen(), "no way back");
        assert_eq!(d.take_event(), None, "no second event");
    }

    #[test]
    fn rtt_probe_samples_one_datagram_in_sixteen_and_keeps_the_newest() {
        let mut p = RttProbe::default();
        for i in 0..16 * 300 {
            p.on_send(Instant::from_millis(i));
        }
        assert_eq!(p.probes.len(), RttProbe::KEEP);
        // The 300 probes sit on datagrams 1, 17, 33, …; the first 44 went.
        let counts: Vec<u64> = p.probes.iter().map(|&(c, _)| c).collect();
        assert_eq!(counts[0], 16 * 44 + 1);
        assert!(counts.windows(2).all(|w| w[1] - w[0] == RttProbe::EVERY));
        assert_eq!(p.probes[0].1, Instant::from_millis(16 * 44));
    }

    #[test]
    fn rtt_probe_pops_by_cumulative_count_and_seeds_srtt_with_the_first_sample() {
        let mut p = RttProbe::default();
        // Probes on datagrams 1, 17 and 33, sent at 0, 16 and 32 ms.
        for i in 0..40 {
            p.on_send(Instant::from_millis(i));
        }
        p.on_report(0, Instant::from_millis(40));
        assert_eq!(p.srtt, None, "no probe covered yet");
        p.on_report(16, Instant::from_millis(50));
        assert_eq!(p.srtt, Some(Duration::from_millis(50)), "first seeds");
        assert_eq!(p.probes.len(), 2);
        // Both remaining probes return: 84 ms, then 68 ms, each at 1/8.
        p.on_report(40, Instant::from_millis(100));
        assert!(p.probes.is_empty());
        let want = 0.875 * (0.875 * 0.050 + 0.125 * 0.084) + 0.125 * 0.068;
        let got = p.srtt.expect("smoothed").as_secs_f64();
        assert!((got - want).abs() < 1e-9, "srtt {got}, want {want}");
    }

    #[test]
    fn ecn_mode_codepoints() {
        assert_eq!(EcnMode::None.codepoint(), Ecn::NotEct);
        assert_eq!(EcnMode::Classic.codepoint(), Ecn::Ect0);
        assert_eq!(EcnMode::L4s.codepoint(), Ecn::Ect1);
    }
}
