//! SCReAM-style interactive video congestion control (RFC 8298 with the
//! L4S extension), as evaluated in paper §6.2.3 / Fig. 13.
//!
//! A media source produces frames at a fixed rate whose size tracks a
//! target bitrate; a congestion window paces RTP/UDP packets; RTCP-like
//! feedback returns cumulative received/CE-marked byte counters. In L4S
//! mode the sender keeps a DCTCP-style EWMA of the CE fraction and
//! applies a scaled multiplicative decrease; independently, a growing
//! queue-delay estimate (RTT above its observed floor) throttles the
//! window toward the RFC 8298 60 ms target. Feedback rides in the UDP
//! payload, so L4Span can only mark the downlink IP header — exactly the
//! fallback path of §4.4.

use std::num::NonZeroU32;

use crate::cc::FeedbackGate;
use l4span_net::{ipv4::unwrap_ident, Ecn, PacketBuf};
use l4span_sim::{Duration, Instant};

/// Queue-delay target (RFC 8298 default).
const QDELAY_TARGET: Duration = Duration::from_millis(60);
/// EWMA gain for the L4S CE fraction.
const L4S_ALPHA_GAIN: f64 = 1.0 / 16.0;
/// RTP payload bytes per packet.
const RTP_MTU: usize = 1200;

/// Cumulative counters carried in the (payload-borne) feedback message.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScreamFeedback {
    /// Highest *send counter* observed, reconstructed by the receiver
    /// from the 16-bit IP identification field (which the sender
    /// increments once per transmitted packet). Using a wire-visible
    /// counter keeps sender and receiver in sync even when the encoder's
    /// queue discipline skips RTP sequence numbers.
    pub highest_seq: u64,
    /// Cumulative payload bytes received.
    pub received_bytes: u64,
    /// Cumulative CE-marked payload bytes.
    pub ce_bytes: u64,
}

/// One RTP packet queued by the encoder, tagged with the frame it
/// belongs to so frame-level QoE can be tracked end to end.
#[derive(Debug, Clone, Copy)]
struct RtpPkt {
    len: usize,
    frame: u64,
    /// The frame's final packet.
    last: bool,
}

/// The id frame `frame` (0-based generation order) carries on its last
/// packet ([`PacketBuf::mark_frame_end`]): ids count from 1.
fn frame_id(frame: u64) -> NonZeroU32 {
    u32::try_from(frame + 1)
        .ok()
        .and_then(NonZeroU32::new)
        .expect("a call generates fewer than 2^32 frames")
}

/// Size of frame `frame` (0-based) of a source encoding `target_bps` at
/// one frame per `interval`. With an I/P pattern — every
/// `keyframe_every`-th frame `keyframe_boost`× the GOP-average size —
/// delta frames shrink so the GOP average stays on the target. An
/// `every` below 2, or a boost outside `(1, every)` that would leave
/// delta frames non-positive, keeps uniform sizes.
pub fn gop_frame_bytes(
    frame: u64,
    target_bps: f64,
    interval: Duration,
    keyframe_every: u32,
    keyframe_boost: f64,
) -> usize {
    let base = target_bps * interval.as_secs_f64() / 8.0;
    let k = keyframe_every as f64;
    if keyframe_every >= 2 && keyframe_boost > 1.0 && keyframe_boost < k {
        if frame.is_multiple_of(u64::from(keyframe_every)) {
            (base * keyframe_boost) as usize
        } else {
            (base * (k - keyframe_boost) / (k - 1.0)) as usize
        }
    } else {
        base as usize
    }
}

/// SCReAM sender: media source + window-based rate adaptation.
#[derive(Debug)]
pub struct ScreamSender {
    /// Addressing.
    src_ip: u32,
    dst_ip: u32,
    src_port: u16,
    dst_port: u16,
    l4s: bool,
    /// Target media bitrate (bit/s), clamped to [min, max].
    target_bps: f64,
    min_bps: f64,
    max_bps: f64,
    /// Frame cadence.
    frame_interval: Duration,
    next_frame_at: Instant,
    /// RTP queue of frame-tagged packets awaiting window room.
    rtp_queue: std::collections::VecDeque<RtpPkt>,
    next_seq: u64,
    /// Keyframe cadence: every `keyframe_every`-th frame is a keyframe
    /// (`0` = uniform frame sizes, the pre-keyframe behaviour).
    keyframe_every: u32,
    /// Keyframe size as a multiple of the GOP-average frame size; delta
    /// frames shrink so the GOP average stays on the target bitrate.
    keyframe_boost: f64,
    /// Frames generated so far (frame ids are 0-based).
    frame_count: u64,
    /// Frames at least partially discarded by the queue discipline.
    dropped_frames: std::collections::BTreeSet<u64>,
    /// Cumulative frames the encoder produced (QoE denominator).
    pub frames_generated: u64,
    /// Cumulative frames the encoder's queue discipline discarded (in
    /// whole or part); these can never be delivered complete.
    pub frames_dropped: u64,
    /// Send log for RTT estimation: (seq, send time).
    sent_log: std::collections::VecDeque<(u64, Instant)>,
    /// Congestion window in bytes and current flight.
    cwnd: f64,
    bytes_in_flight: usize,
    /// Count of packets actually transmitted (drives the IP ident).
    n_sent: u64,
    /// Cumulative payload bytes transmitted.
    sent_bytes: u64,
    /// Feedback bookkeeping.
    last_fb: ScreamFeedback,
    l4s_alpha: f64,
    min_rtt: Duration,
    srtt: Duration,
    last_reduction: Instant,
    ident: u16,
    /// Cumulative media bytes queued (diagnostics).
    pub media_bytes: u64,
}

impl ScreamSender {
    /// Create a sender with the given bitrate bounds (bit/s) and frame
    /// rate. `l4s` enables the scalable CE response (ECT(1) marking).
    #[allow(clippy::too_many_arguments)] // mirrors the SCReAM config tuple
    pub fn new(
        src_ip: u32,
        dst_ip: u32,
        src_port: u16,
        dst_port: u16,
        min_bps: f64,
        start_bps: f64,
        max_bps: f64,
        fps: f64,
        l4s: bool,
    ) -> ScreamSender {
        ScreamSender {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            l4s,
            target_bps: start_bps,
            min_bps,
            max_bps,
            frame_interval: Duration::from_secs_f64(1.0 / fps),
            next_frame_at: Instant::ZERO,
            rtp_queue: std::collections::VecDeque::new(),
            next_seq: 0,
            keyframe_every: 0,
            keyframe_boost: 1.0,
            frame_count: 0,
            dropped_frames: std::collections::BTreeSet::new(),
            frames_generated: 0,
            frames_dropped: 0,
            sent_log: std::collections::VecDeque::new(),
            cwnd: 20_000.0,
            bytes_in_flight: 0,
            n_sent: 0,
            sent_bytes: 0,
            last_fb: ScreamFeedback::default(),
            l4s_alpha: 0.0,
            min_rtt: Duration::MAX,
            srtt: Duration::from_millis(50),
            last_reduction: Instant::ZERO,
            ident: 0,
            media_bytes: 0,
        }
    }

    /// Enable an I/P keyframe pattern (see [`gop_frame_bytes`]).
    pub fn with_keyframes(mut self, every: u32, boost: f64) -> ScreamSender {
        self.keyframe_every = every;
        self.keyframe_boost = boost;
        self
    }

    /// Current target bitrate (bit/s).
    pub fn target_bps(&self) -> f64 {
        self.target_bps
    }

    /// The encoder's capture instant of the frame `frame` names (the id
    /// on its last packet, [`PacketBuf::frame_end`]). Frame `k` is
    /// captured at `k` frame intervals: `poll_into` steps its capture
    /// clock from zero by the interval, so the instant is derived, not
    /// stored.
    pub fn frame_captured(&self, frame: NonZeroU32) -> Instant {
        Instant::ZERO + self.frame_interval * u64::from(frame.get() - 1)
    }

    /// The DCTCP-style CE fraction EWMA (diagnostics).
    pub fn l4s_alpha(&self) -> f64 {
        self.l4s_alpha
    }

    /// Smoothed RTT as seen via feedback.
    pub fn srtt(&self) -> Duration {
        self.srtt
    }

    fn ecn(&self) -> Ecn {
        if self.l4s {
            Ecn::Ect1
        } else {
            Ecn::Ect0
        }
    }

    /// Stop producing media (ends the call).
    pub fn stop(&mut self) {
        self.next_frame_at = Instant::MAX;
    }

    /// Produce media frames and emit as many RTP packets as the window
    /// allows, appending them to `out`. Call at (or after)
    /// `next_activity()`.
    pub fn poll_into(&mut self, now: Instant, out: &mut Vec<PacketBuf>) {
        // Frame generation.
        while now >= self.next_frame_at {
            let frame = self.frame_count;
            let frame_bytes = gop_frame_bytes(
                frame,
                self.target_bps,
                self.frame_interval,
                self.keyframe_every,
                self.keyframe_boost,
            );
            self.frame_count += 1;
            self.frames_generated += 1;
            self.media_bytes += frame_bytes as u64;
            let mut left = frame_bytes.max(200);
            while left > 0 {
                let take = left.min(RTP_MTU);
                self.rtp_queue.push_back(RtpPkt {
                    len: take,
                    frame,
                    last: left == take,
                });
                self.next_seq += 1;
                left -= take;
            }
            self.next_frame_at += self.frame_interval;
            // RTP queue discipline: if the queue exceeds ~400 ms of media,
            // drop the oldest frame's worth (the encoder would skip).
            let cap = (self.target_bps * 0.4 / 8.0) as usize;
            let mut queued: usize = self.rtp_queue.iter().map(|p| p.len).sum();
            while queued > cap && !self.rtp_queue.is_empty() {
                let p = self.rtp_queue.pop_front().expect("non-empty");
                queued -= p.len;
                // The frame this packet belonged to can no longer arrive
                // complete; count it once and forget it after its tail.
                if self.dropped_frames.insert(p.frame) {
                    self.frames_dropped += 1;
                }
                if p.last {
                    self.dropped_frames.remove(&p.frame);
                }
            }
        }
        // Window-limited emission.
        while let Some(&p) = self.rtp_queue.front() {
            if self.bytes_in_flight as f64 + p.len as f64 > self.cwnd {
                break;
            }
            self.rtp_queue.pop_front();
            // RTP seq is internal; the wire counter is n_sent.
            self.n_sent += 1;
            self.ident = (self.n_sent & 0xFFFF) as u16;
            let mut pkt = PacketBuf::udp(
                self.src_ip,
                self.dst_ip,
                self.ecn(),
                self.ident,
                self.src_port,
                self.dst_port,
                p.len,
            );
            // The last packet of a frame names it, like RTP's marker
            // bit: its arrival completes the frame. Not if the queue
            // discipline discarded the frame's head: it arrives corrupt.
            if p.last && !self.dropped_frames.remove(&p.frame) {
                pkt.mark_frame_end(frame_id(p.frame));
            }
            out.push(pkt);
            self.bytes_in_flight += p.len;
            self.sent_bytes += p.len as u64;
            self.sent_log.push_back((self.n_sent, now));
            if self.sent_log.len() > 4096 {
                self.sent_log.pop_front();
            }
        }
    }

    /// Next frame-generation instant.
    pub fn next_activity(&self) -> Instant {
        self.next_frame_at
    }

    /// Process one feedback report.
    pub fn on_feedback(&mut self, fb: &ScreamFeedback, now: Instant) {
        let acked_bytes = fb
            .received_bytes
            .saturating_sub(self.last_fb.received_bytes);
        let ce_delta = fb.ce_bytes.saturating_sub(self.last_fb.ce_bytes);
        // Exact in-flight reconciliation: sent minus cumulatively
        // received (self-correcting even if a feedback report is lost).
        self.bytes_in_flight = self.sent_bytes.saturating_sub(fb.received_bytes) as usize;
        // RTT from the send log.
        while let Some(&(seq, sent)) = self.sent_log.front() {
            if seq < fb.highest_seq {
                self.sent_log.pop_front();
                continue;
            }
            if seq == fb.highest_seq {
                let rtt = now.saturating_since(sent);
                self.min_rtt = self.min_rtt.min(rtt);
                self.srtt = Duration::from_secs_f64(
                    0.9 * self.srtt.as_secs_f64() + 0.1 * rtt.as_secs_f64(),
                );
                self.sent_log.pop_front();
            }
            break;
        }
        self.last_fb = *fb;
        if acked_bytes == 0 {
            return;
        }
        let qdelay = self.srtt.saturating_sub(self.min_rtt.min(self.srtt));
        let ce_frac = (ce_delta as f64 / acked_bytes as f64).clamp(0.0, 1.0);
        if self.l4s {
            self.l4s_alpha += L4S_ALPHA_GAIN * (ce_frac - self.l4s_alpha);
        }
        let may_reduce = now.saturating_since(self.last_reduction) > self.srtt;
        if self.l4s && ce_delta > 0 && may_reduce {
            // Scalable response: proportional to the EWMA CE fraction
            // only — a fixed floor would overwhelm the additive recovery
            // under L4Span's sparse frame-burst marks.
            self.cwnd *= 1.0 - 0.5 * self.l4s_alpha;
            self.last_reduction = now;
        } else if qdelay > QDELAY_TARGET && may_reduce {
            // Delay-based backoff toward the 60 ms target.
            let over = (qdelay.as_secs_f64() / QDELAY_TARGET.as_secs_f64() - 1.0).min(1.0);
            self.cwnd *= 1.0 - 0.1 * over;
            self.last_reduction = now;
        } else if ce_delta == 0 {
            // RFC 8298-flavoured increase: one MTU per clean report plus
            // a multiplicative component while far from the media cap.
            self.cwnd += RTP_MTU as f64 + 0.05 * acked_bytes as f64;
        }
        self.cwnd = self.cwnd.clamp(4.0 * RTP_MTU as f64, 4e7);
        // Couple the media rate to cwnd/srtt with 10% headroom.
        let rate = self.cwnd * 8.0 / self.srtt.as_secs_f64().max(1e-3) * 0.9;
        self.target_bps = rate.clamp(self.min_bps, self.max_bps);
    }
}

/// SCReAM receiver: counts bytes/CE and emits periodic feedback.
#[derive(Debug)]
pub struct ScreamReceiver {
    src_ip: u32,
    dst_ip: u32,
    src_port: u16,
    dst_port: u16,
    state: ScreamFeedback,
    /// Unwrapped send counter (from the 16-bit IP ident).
    highest_abs: u64,
    gate: FeedbackGate,
    ident: u16,
}

impl ScreamReceiver {
    /// Create a receiver mirroring the sender's addressing.
    pub fn new(src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16) -> ScreamReceiver {
        ScreamReceiver {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            state: ScreamFeedback::default(),
            highest_abs: 0,
            gate: FeedbackGate::new(),
            ident: 0,
        }
    }

    fn emit_feedback(&mut self) -> (PacketBuf, ScreamFeedback) {
        self.ident = self.ident.wrapping_add(1);
        let fb_pkt = PacketBuf::udp(
            self.src_ip,
            self.dst_ip,
            Ecn::NotEct,
            self.ident,
            self.src_port,
            self.dst_port,
            64, // RTCP feedback payload
        );
        (fb_pkt, self.state)
    }

    /// Timer poll: emit a pending report whose prohibit interval has
    /// elapsed (real RTCP reports periodically; without this, a report
    /// suppressed at the last packet's arrival would never be sent and
    /// the window-limited sender would deadlock).
    pub fn poll(&mut self, now: Instant) -> Option<(PacketBuf, ScreamFeedback)> {
        self.gate.due(now, false).then(|| self.emit_feedback())
    }

    /// Ingest a media packet; maybe emit (feedback packet, feedback data).
    /// The feedback *packet* is what rides the uplink; the data is the
    /// payload the harness hands to the sender when it arrives.
    pub fn on_packet(
        &mut self,
        pkt: &PacketBuf,
        now: Instant,
    ) -> Option<(PacketBuf, ScreamFeedback)> {
        let len = pkt.payload_len() as u64;
        self.state.received_bytes += len;
        if pkt.ecn() == Ecn::Ce {
            self.state.ce_bytes += len;
        }
        // Unwrap the 16-bit send counter; a late packet never lowers it.
        let high = self.highest_abs;
        self.highest_abs = unwrap_ident(pkt.ip().identification, high).max(high);
        self.state.highest_seq = self.highest_abs;
        self.gate.due(now, true).then(|| self.emit_feedback())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sender(l4s: bool) -> ScreamSender {
        ScreamSender::new(1, 2, 5004, 5006, 0.5e6, 2e6, 20e6, 25.0, l4s)
    }

    /// What one sender poll at `now` emits.
    fn poll(s: &mut ScreamSender, now: Instant) -> Vec<PacketBuf> {
        let mut out = Vec::new();
        s.poll_into(now, &mut out);
        out
    }

    #[test]
    fn frames_emit_paced_rtp_packets() {
        let mut s = sender(true);
        let pkts = poll(&mut s, Instant::ZERO);
        assert!(!pkts.is_empty());
        assert!(pkts.iter().all(|p| p.ecn() == Ecn::Ect1));
        // 2 Mbit/s at 25 fps = 10 kB frames = ~9 packets.
        assert!(pkts.len() >= 8, "{}", pkts.len());
    }

    #[test]
    fn keyframe_pattern_boosts_keyframes_and_keeps_gop_average() {
        let mut s = sender(true).with_keyframes(5, 3.0);
        s.cwnd = 1e9; // never window-limited in this test
        let mut t = Instant::ZERO;
        let mut sizes = Vec::new();
        for _ in 0..5 {
            let pkts = poll(&mut s, t);
            sizes.push(pkts.iter().map(|p| p.payload_len()).sum::<usize>());
            t += Duration::from_millis(40);
        }
        // 2 Mbit/s at 25 fps: base 10 kB; keyframe 30 kB, deltas 5 kB.
        assert!(sizes[0] > 2 * sizes[1], "keyframe dominates: {sizes:?}");
        assert_eq!(sizes[1], sizes[2]);
        let total: usize = sizes.iter().sum();
        let base = 5 * 10_000;
        assert!(
            (total as f64 - base as f64).abs() < 0.02 * base as f64,
            "GOP average holds: {total} vs {base}"
        );
        assert_eq!(s.frames_generated, 5);
    }

    #[test]
    fn invalid_keyframe_config_keeps_uniform_sizes() {
        let mut a = sender(true);
        let mut b = sender(true).with_keyframes(1, 0.5);
        let pa = poll(&mut a, Instant::ZERO);
        let pb = poll(&mut b, Instant::ZERO);
        assert_eq!(pa.len(), pb.len());
    }

    /// The frame ids the packets carry, in emission order.
    fn frame_ends(pkts: &[PacketBuf]) -> Vec<u32> {
        pkts.iter()
            .filter_map(|p| p.frame_end())
            .map(NonZeroU32::get)
            .collect()
    }

    #[test]
    fn only_the_last_packet_of_an_intact_frame_carries_its_id() {
        // 30 fps: the interval, 33 333 333 ns, is not a whole number of
        // milliseconds, so a drifting derivation would show.
        let mut s = ScreamSender::new(1, 2, 5004, 5006, 0.5e6, 2e6, 20e6, 30.0, true);
        s.cwnd = 1e9; // never window-limited
        let interval = Duration::from_secs_f64(1.0 / 30.0);
        // The capture clock the sender steps, frame by frame.
        let mut captured = Instant::ZERO;
        for k in 0..90u32 {
            let pkts = poll(&mut s, captured);
            assert!(pkts.len() > 1, "frame {k} spans several packets");
            let (last, head) = pkts.split_last().unwrap();
            assert!(head.iter().all(|p| p.frame_end().is_none()), "frame {k}");
            let id = last.frame_end().expect("the last packet names its frame");
            assert_eq!(id.get(), k + 1, "ids count from 1");
            assert_eq!(
                s.frame_captured(id),
                captured,
                "frame {k}'s capture instant"
            );
            captured += interval;
        }
    }

    #[test]
    fn a_frame_whose_head_was_discarded_carries_no_id() {
        // GOPs of three frames (20 kB keyframe, two 5 kB deltas) against
        // the 400 ms cap of 100 kB: the tenth frame overflows it by
        // 10 kB, which the discipline takes off the front of the 20 kB
        // keyframe 0, leaving its tail queued.
        let mut s = sender(true).with_keyframes(3, 2.0);
        s.cwnd = 0.0;
        let mut t = Instant::ZERO;
        for _ in 0..10 {
            assert!(poll(&mut s, t).is_empty());
            t += Duration::from_millis(40);
        }
        assert_eq!(s.frames_dropped, 1);
        assert!(
            s.dropped_frames.contains(&0),
            "frame 0 lost its head, not its tail"
        );
        s.cwnd = 1e9;
        let pkts = poll(&mut s, t - Duration::from_millis(40));
        assert!(pkts.last().is_some_and(|p| p.frame_end().is_some()));
        assert_eq!(
            frame_ends(&pkts),
            (2..=10).collect::<Vec<u32>>(),
            "frames 1 to 9 only"
        );
        assert!(s.dropped_frames.is_empty(), "frame 0's tail left the queue");
    }

    #[test]
    fn encoder_drops_are_counted_and_unmarked() {
        let mut s = sender(true);
        s.cwnd = 0.0; // nothing ever leaves: the 400 ms cap must engage
        let mut t = Instant::ZERO;
        for _ in 0..40 {
            let pkts = poll(&mut s, t);
            assert!(pkts.is_empty());
            t += Duration::from_millis(40);
        }
        assert!(s.frames_dropped > 0, "queue discipline engaged");
        // Whatever the discipline left completes, one id per frame.
        s.cwnd = 1e9;
        let pkts = poll(&mut s, t);
        let ends = frame_ends(&pkts).len() as u64;
        assert_eq!(ends, s.frames_generated - s.frames_dropped);
    }

    #[test]
    fn ce_feedback_cuts_rate_in_l4s_mode() {
        let mut s = sender(true);
        let mut t = Instant::ZERO;
        let mut fb = ScreamFeedback::default();
        // Warm up without marks.
        for _ in 0..20 {
            let pkts = poll(&mut s, t);
            fb.received_bytes += pkts.iter().map(|p| p.payload_len() as u64).sum::<u64>();
            fb.highest_seq = s.next_seq.saturating_sub(1);
            s.on_feedback(&fb, t + Duration::from_millis(30));
            t += Duration::from_millis(40);
        }
        let before = s.target_bps();
        // Now heavy marking for a while.
        for _ in 0..30 {
            let pkts = poll(&mut s, t);
            let bytes: u64 = pkts.iter().map(|p| p.payload_len() as u64).sum();
            fb.received_bytes += bytes;
            fb.ce_bytes += bytes; // all marked
            fb.highest_seq = s.next_seq.saturating_sub(1);
            s.on_feedback(&fb, t + Duration::from_millis(30));
            t += Duration::from_millis(40);
        }
        assert!(
            s.target_bps() < before * 0.8,
            "rate must drop: {} -> {}",
            before,
            s.target_bps()
        );
        assert!(s.l4s_alpha() > 0.1);
    }

    #[test]
    fn rate_respects_bounds() {
        let mut s = sender(true);
        let mut fb = ScreamFeedback::default();
        let mut t = Instant::ZERO;
        for _ in 0..200 {
            let pkts = poll(&mut s, t);
            let bytes: u64 = pkts.iter().map(|p| p.payload_len() as u64).sum();
            fb.received_bytes += bytes;
            fb.ce_bytes += bytes;
            fb.highest_seq = s.next_seq.saturating_sub(1);
            s.on_feedback(&fb, t + Duration::from_millis(30));
            t += Duration::from_millis(40);
        }
        assert!(s.target_bps() >= 0.5e6, "min clamp: {}", s.target_bps());
    }

    #[test]
    fn receiver_paces_feedback() {
        let mut r = ScreamReceiver::new(2, 1, 5006, 5004);
        let pkt = PacketBuf::udp(1, 2, Ecn::Ect1, 0, 5004, 5006, 1200);
        let f1 = r.on_packet(&pkt, Instant::from_millis(30));
        assert!(f1.is_some(), "first packet after interval triggers fb");
        let f2 = r.on_packet(&pkt, Instant::from_millis(31));
        assert!(f2.is_none(), "too soon");
        let f3 = r.on_packet(&pkt, Instant::from_millis(60));
        assert!(f3.is_some());
        let (_, fb) = f3.unwrap();
        assert_eq!(fb.received_bytes, 3 * 1200);
    }

    #[test]
    fn ce_bytes_counted_at_receiver() {
        let mut r = ScreamReceiver::new(2, 1, 5006, 5004);
        let mut pkt = PacketBuf::udp(1, 2, Ecn::Ect1, 0, 5004, 5006, 1000);
        pkt.set_ecn(Ecn::Ce);
        let (_, fb) = r.on_packet(&pkt, Instant::from_millis(30)).unwrap();
        assert_eq!(fb.ce_bytes, 1000);
    }
}
