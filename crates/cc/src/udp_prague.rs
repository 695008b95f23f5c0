//! UDP Prague: the L4S team's rate-based Prague variant for interactive
//! applications (paper §6.1, Fig. 13). The receiver feeds back cumulative
//! packet/CE counts in the UDP payload; the sender runs the DCTCP-style
//! `α` update on a paced rate instead of a window.

use crate::cc::{CcEvent, FallbackDetector, FeedbackGate, RttProbe, ALPHA_GAIN};
use l4span_net::{Ecn, PacketBuf};
use l4span_sim::{Duration, Instant};

/// Payload bytes per datagram.
const MTU_PAYLOAD: usize = 1200;

/// Cumulative feedback counters (carried in the UDP payload uplink).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PragueFeedback {
    /// Datagrams received.
    pub packets: u64,
    /// Datagrams received CE-marked.
    pub ce_packets: u64,
    /// Datagrams that arrived Not-ECT. The sender marks everything
    /// ECT(1), so any such arrival is direct evidence of mid-path ECT
    /// bleaching.
    pub not_ect_packets: u64,
}

/// UDP Prague sender: rate-paced ECT(1) datagrams.
#[derive(Debug)]
pub struct UdpPragueSender {
    src_ip: u32,
    dst_ip: u32,
    src_port: u16,
    dst_port: u16,
    /// Paced send rate in bytes/sec.
    rate: f64,
    min_rate: f64,
    max_rate: f64,
    alpha: f64,
    last_fb: PragueFeedback,
    last_reduction: Instant,
    next_send_at: Instant,
    ident: u16,
    /// Estimated feedback round-trip (reduction gate).
    rtt_gate: Duration,
    /// RTT from sparse probes, smoothed at feedback arrival.
    rtt: RttProbe,
    /// Classic-path detector, engaged via
    /// [`UdpPragueSender::enable_fallback`].
    fallback: Option<FallbackDetector>,
}

impl UdpPragueSender {
    /// Create a sender with rate bounds in bytes/sec.
    pub fn new(
        src_ip: u32,
        dst_ip: u32,
        src_port: u16,
        dst_port: u16,
        min_rate: f64,
        start_rate: f64,
        max_rate: f64,
    ) -> UdpPragueSender {
        UdpPragueSender {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            rate: start_rate,
            min_rate,
            max_rate,
            alpha: 0.0,
            last_fb: PragueFeedback::default(),
            last_reduction: Instant::ZERO,
            next_send_at: Instant::ZERO,
            ident: 0,
            rtt_gate: Duration::from_millis(40),
            rtt: RttProbe::default(),
            fallback: None,
        }
    }

    /// Arm the classic-ECN / bleaching detector. Off by default so the
    /// vanilla sender's trajectory is untouched.
    pub fn enable_fallback(&mut self) {
        self.fallback = Some(FallbackDetector::new());
    }

    /// True once the detector has permanently switched this sender to
    /// Reno-friendly (rate-halving) dynamics.
    pub fn fallen_back(&self) -> bool {
        self.fallback.as_ref().is_some_and(FallbackDetector::fallen)
    }

    /// Drain the typed fallback event, if one fired since the last call.
    pub fn take_events(&mut self) -> Vec<CcEvent> {
        self.fallback
            .as_mut()
            .and_then(FallbackDetector::take_event)
            .into_iter()
            .collect()
    }

    /// Smoothed RTT observed via feedback, if any.
    pub fn srtt(&self) -> Option<Duration> {
        self.rtt.srtt
    }

    /// Current paced rate in bytes/sec.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The CE-fraction EWMA (diagnostics, mirrors Prague's α).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Stop sending (flow teardown).
    pub fn stop(&mut self) {
        self.next_send_at = Instant::MAX;
    }

    /// Emit datagrams due under the paced schedule, appending them to
    /// `out` (the per-pacing-tick hot path).
    pub fn poll_into(&mut self, now: Instant, out: &mut Vec<PacketBuf>) {
        let mut emitted = 0;
        while now >= self.next_send_at {
            self.ident = self.ident.wrapping_add(1);
            out.push(PacketBuf::udp(
                self.src_ip,
                self.dst_ip,
                Ecn::Ect1,
                self.ident,
                self.src_port,
                self.dst_port,
                MTU_PAYLOAD,
            ));
            let gap = Duration::from_secs_f64(MTU_PAYLOAD as f64 / self.rate.max(1.0));
            self.next_send_at = self.next_send_at.max(now) + gap;
            self.rtt.on_send(now);
            emitted += 1;
            if emitted >= 64 {
                break; // bound burst size after long idle gaps
            }
        }
    }

    /// When the pacer next releases a datagram.
    pub fn next_activity(&self) -> Instant {
        self.next_send_at
    }

    /// Apply one feedback report.
    pub fn on_feedback(&mut self, fb: &PragueFeedback, now: Instant) {
        self.rtt.on_report(fb.packets, now);
        let pkts = fb.packets.saturating_sub(self.last_fb.packets);
        let ce = fb.ce_packets.saturating_sub(self.last_fb.ce_packets);
        let not_ect = fb
            .not_ect_packets
            .saturating_sub(self.last_fb.not_ect_packets);
        self.last_fb = *fb;
        if pkts == 0 {
            return;
        }
        if let Some(det) = &mut self.fallback {
            // Classic: CE while srtt sits a classic queue above its
            // floor. Bleached: most datagrams arrived Not-ECT.
            let classic = self.rtt.srtt.map(|s| {
                det.sample_floor(now, s);
                ce > 0 && det.classic_queue(now, s)
            });
            det.judge(now, classic, Some(not_ect > pkts / 2));
        }
        let frac = ce as f64 / pkts as f64;
        self.alpha += ALPHA_GAIN * (frac - self.alpha);
        if ce > 0 && now.saturating_since(self.last_reduction) > self.rtt_gate {
            // Fallen back: classic rate-halving instead of the scalable
            // α-proportional cut.
            if self.fallen_back() {
                self.rate *= 0.5;
            } else {
                self.rate *= 1.0 - self.alpha / 2.0;
            }
            self.last_reduction = now;
        } else if ce == 0 {
            // Additive increase: one MTU per feedback interval.
            self.rate += MTU_PAYLOAD as f64 / FeedbackGate::INTERVAL.as_secs_f64() * 0.025;
        }
        self.rate = self.rate.clamp(self.min_rate, self.max_rate);
    }
}

/// UDP Prague receiver: counts datagrams and CE marks, reports every
/// 25 ms (the shared feedback prohibit interval).
#[derive(Debug)]
pub struct UdpPragueReceiver {
    src_ip: u32,
    dst_ip: u32,
    src_port: u16,
    dst_port: u16,
    state: PragueFeedback,
    gate: FeedbackGate,
    ident: u16,
    /// Total payload bytes received (diagnostics).
    pub received_bytes: u64,
}

impl UdpPragueReceiver {
    /// Create a receiver mirroring the sender's addressing.
    pub fn new(src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16) -> UdpPragueReceiver {
        UdpPragueReceiver {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            state: PragueFeedback::default(),
            gate: FeedbackGate::new(),
            ident: 0,
            received_bytes: 0,
        }
    }

    fn emit_feedback(&mut self) -> (PacketBuf, PragueFeedback) {
        self.ident = self.ident.wrapping_add(1);
        let fb_pkt = PacketBuf::udp(
            self.src_ip,
            self.dst_ip,
            Ecn::NotEct,
            self.ident,
            self.src_port,
            self.dst_port,
            32,
        );
        (fb_pkt, self.state)
    }

    /// Timer poll: flush a report suppressed by the prohibit interval
    /// (prevents the rate-paced sender from stalling when the last
    /// datagram of a burst arrives inside the interval).
    pub fn poll(&mut self, now: Instant) -> Option<(PacketBuf, PragueFeedback)> {
        self.gate.due(now, false).then(|| self.emit_feedback())
    }

    /// Ingest a datagram; maybe emit (feedback packet, feedback data).
    pub fn on_packet(
        &mut self,
        pkt: &PacketBuf,
        now: Instant,
    ) -> Option<(PacketBuf, PragueFeedback)> {
        self.state.packets += 1;
        self.received_bytes += pkt.payload_len() as u64;
        if pkt.ecn() == Ecn::Ce {
            self.state.ce_packets += 1;
        } else if pkt.ecn() == Ecn::NotEct {
            // The sender only emits ECT(1): a Not-ECT arrival means a
            // middlebox bleached the codepoint in transit.
            self.state.not_ect_packets += 1;
        }
        self.gate.due(now, true).then(|| self.emit_feedback())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::FallbackReason;

    #[test]
    fn pacing_respects_rate() {
        let mut s = UdpPragueSender::new(1, 2, 7000, 7001, 1e5, 1.2e6, 1e7);
        // 1.2 MB/s at 1200 B = 1000 pkt/s; over 100 ms expect ~100.
        let mut sent = Vec::new();
        for ms in 0..100u64 {
            s.poll_into(Instant::from_millis(ms), &mut sent);
        }
        let n = sent.len();
        assert!((90..=110).contains(&n), "sent {n}");
    }

    #[test]
    fn marks_reduce_rate_unmarked_grows() {
        let mut s = UdpPragueSender::new(1, 2, 7000, 7001, 1e4, 1e6, 1e8);
        let mut fb = PragueFeedback::default();
        let mut t = Instant::ZERO;
        // Marked epochs.
        for _ in 0..50 {
            fb.packets += 25;
            fb.ce_packets += 25;
            s.on_feedback(&fb, t);
            t += Duration::from_millis(50);
        }
        let low = s.rate();
        assert!(low < 1e6, "rate must fall: {low}");
        assert!(s.alpha() > 0.5);
        // Unmarked epochs recover.
        for _ in 0..200 {
            fb.packets += 25;
            s.on_feedback(&fb, t);
            t += Duration::from_millis(50);
        }
        assert!(s.rate() > low, "rate must grow back");
    }

    #[test]
    fn receiver_counts_and_paces() {
        let mut r = UdpPragueReceiver::new(2, 1, 7001, 7000);
        let mut ce = PacketBuf::udp(1, 2, Ecn::Ect1, 0, 7000, 7001, 1200);
        ce.set_ecn(Ecn::Ce);
        let ok = PacketBuf::udp(1, 2, Ecn::Ect1, 0, 7000, 7001, 1200);
        assert!(r.on_packet(&ok, Instant::from_millis(30)).is_some());
        assert!(r.on_packet(&ce, Instant::from_millis(31)).is_none());
        let (_, fb) = r.on_packet(&ok, Instant::from_millis(60)).unwrap();
        assert_eq!(fb.packets, 3);
        assert_eq!(fb.ce_packets, 1);
        assert_eq!(r.received_bytes, 3 * 1200);
    }

    #[test]
    fn burst_after_idle_is_bounded() {
        let mut s = UdpPragueSender::new(1, 2, 7000, 7001, 1e5, 1e7, 1e8);
        // A long gap would owe thousands of packets; the burst cap holds.
        let mut pkts = Vec::new();
        s.poll_into(Instant::from_secs(5), &mut pkts);
        assert!(pkts.len() <= 64);
    }

    #[test]
    fn receiver_counts_bleached_arrivals() {
        let mut r = UdpPragueReceiver::new(2, 1, 7001, 7000);
        let bleached = PacketBuf::udp(1, 2, Ecn::NotEct, 0, 7000, 7001, 1200);
        let (_, fb) = r.on_packet(&bleached, Instant::from_millis(30)).unwrap();
        assert_eq!(fb.not_ect_packets, 1);
        assert_eq!(fb.ce_packets, 0);
    }

    #[test]
    fn bleached_majority_trips_udp_fallback() {
        let mut s = UdpPragueSender::new(1, 2, 7000, 7001, 1e4, 1e6, 1e8);
        s.enable_fallback();
        let mut fb = PragueFeedback::default();
        let mut t = Instant::ZERO;
        for _ in 0..5 {
            fb.packets += 25;
            fb.not_ect_packets += 25;
            s.on_feedback(&fb, t);
            t += Duration::from_millis(25);
        }
        assert!(s.fallen_back());
        let evs = s.take_events();
        assert_eq!(evs.len(), 1);
        assert!(matches!(
            evs[0],
            CcEvent::ClassicFallback {
                reason: FallbackReason::Bleached,
                ..
            }
        ));
        assert!(s.take_events().is_empty(), "event drains once");
    }

    #[test]
    fn classic_delay_ce_trips_udp_fallback_and_halves_rate() {
        let mut s = UdpPragueSender::new(1, 2, 7000, 7001, 1e4, 1e6, 1e8);
        s.enable_fallback();
        // Seed the srtt floor, then inflate it past the classic
        // threshold: the detector needs both CE and standing delay.
        s.rtt.srtt = Some(Duration::from_millis(20));
        let mut fb = PragueFeedback::default();
        let mut t = Instant::ZERO;
        fb.packets += 25;
        s.on_feedback(&fb, t);
        s.rtt.srtt = Some(Duration::from_millis(60));
        for _ in 0..4 {
            t += Duration::from_millis(50);
            fb.packets += 25;
            fb.ce_packets += 3;
            s.on_feedback(&fb, t);
        }
        assert!(s.fallen_back());
        assert!(matches!(
            s.take_events()[0],
            CcEvent::ClassicFallback {
                reason: FallbackReason::ClassicEcn,
                ..
            }
        ));
        // Post-fallback CE epochs halve the rate outright.
        let before = s.rate();
        t += Duration::from_millis(50);
        fb.packets += 25;
        fb.ce_packets += 3;
        s.on_feedback(&fb, t);
        assert!((s.rate() / before - 0.5).abs() < 1e-9, "classic halving");
    }

    #[test]
    fn handover_to_longer_rtt_cell_does_not_trip_fallback() {
        // Regression: the detector used a *lifetime* min_srtt, so after
        // a handover 20 ms → 60 ms the clean new path read as 40 ms of
        // standing queue and CE marks on it tripped classic fallback.
        let mut s = UdpPragueSender::new(1, 2, 7000, 7001, 1e4, 1e6, 1e8);
        s.enable_fallback();
        let mut fb = PragueFeedback::default();
        let mut t = Instant::ZERO;
        // A second on the short-RTT cell establishes the 20 ms floor.
        s.rtt.srtt = Some(Duration::from_millis(20));
        for _ in 0..40 {
            fb.packets += 25;
            s.on_feedback(&fb, t);
            t += Duration::from_millis(25);
        }
        // Handover: the serving cell's path floor is now 60 ms. Clean
        // (unmarked) epochs ride out the windowed-min expiry.
        s.rtt.srtt = Some(Duration::from_millis(60));
        while t < Instant::from_secs(12) {
            fb.packets += 25;
            s.on_feedback(&fb, t);
            t += Duration::from_millis(25);
        }
        // L4S marking on the new cell at its own floor: srtt sits at
        // 60 ms, the windowed min has forgotten 20 ms, queue reads 0.
        for _ in 0..10 {
            fb.packets += 25;
            fb.ce_packets += 3;
            s.on_feedback(&fb, t);
            t += Duration::from_millis(25);
        }
        assert!(
            !s.fallen_back(),
            "clean L4S path after handover must not read as classic"
        );
        assert!(s.take_events().is_empty());
    }

    #[test]
    fn vanilla_udp_sender_never_falls_back() {
        let mut s = UdpPragueSender::new(1, 2, 7000, 7001, 1e4, 1e6, 1e8);
        let mut fb = PragueFeedback::default();
        let mut t = Instant::ZERO;
        for _ in 0..20 {
            fb.packets += 25;
            fb.not_ect_packets += 25;
            s.on_feedback(&fb, t);
            t += Duration::from_millis(25);
        }
        assert!(!s.fallen_back());
        assert!(s.take_events().is_empty());
    }
}
