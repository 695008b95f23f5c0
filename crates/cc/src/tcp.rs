//! TCP sender and receiver machinery.
//!
//! The sender is the content server of Fig. 1: it performs the handshake,
//! paces segments under a pluggable [`CongestionControl`], detects loss
//! via three duplicate ACKs and RTO, and reads congestion feedback in
//! either classic-ECN (ECE/CWR) or AccECN (byte counter) form. The
//! receiver is the UE-side kernel: it acknowledges cumulatively, latches
//! ECN-Echo until CWR (RFC 3168 §6.1), or maintains AccECN counters.
//!
//! Simplifications (documented in DESIGN.md): sequence numbers are u64
//! internally and truncated to the 32-bit wire field (flows here move far
//! less than 4 GiB); no SACK (the RLC delivers in order, so cumulative
//! ACKs lose little); receive window is unbounded.
//!
//! **Direction neutrality.** Neither endpoint knows where it sits in
//! the topology: the [`TcpReceiver`] always initiates the connection
//! and the [`TcpSender`] always owns the data bytes, wherever the
//! harness places them. A downlink flow puts the sender at a content
//! server and the receiver at the UE; an **uplink** flow mirrors the
//! `TcpConfig` addressing (`local` = the UE) so the sender lives at the
//! UE feeding the grant-driven uplink queue while the receiver — and
//! its SYN/ACK stream — lives at the server and rides the downlink.
//! `TcpConfig::downlink_tuple` therefore names the *data-direction*
//! five-tuple, whichever physical direction that is.

use std::collections::{BTreeMap, VecDeque};

use l4span_net::{AccEcnCounters, Ecn, FiveTuple, PacketBuf, Protocol, TcpFlags, TcpHeader};
use l4span_sim::{Duration, Instant};

use crate::cc::{AckSample, CcEvent, CongestionControl, EcnMode};

/// Default payload bytes per segment.
pub const DEFAULT_MSS: usize = 1400;
/// Minimum retransmission timeout (Linux-like).
const MIN_RTO: Duration = Duration::from_millis(200);
/// Maximum RTO backoff.
const MAX_RTO: Duration = Duration::from_secs(10);

/// Addressing for one TCP connection (server perspective).
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Server (sender) IP.
    pub local_ip: u32,
    /// Client (receiver / UE) IP.
    pub remote_ip: u32,
    /// Server port.
    pub local_port: u16,
    /// Client port.
    pub remote_port: u16,
    /// Payload bytes per segment.
    pub mss: usize,
    /// Total payload bytes to send; `None` = unlimited (greedy).
    pub app_limit: Option<u64>,
    /// Send-buffer cap on bytes in flight (Linux `tcp_wmem[2]`-style;
    /// iperf3 runs hit this long before cwnd in a bufferbloated RAN).
    pub snd_buf: usize,
}

impl TcpConfig {
    /// A convenient default for scenario builders.
    pub fn new(local_ip: u32, remote_ip: u32, local_port: u16, remote_port: u16) -> TcpConfig {
        TcpConfig {
            local_ip,
            remote_ip,
            local_port,
            remote_port,
            mss: DEFAULT_MSS,
            app_limit: None,
            snd_buf: 4 << 20,
        }
    }

    /// The five-tuple of the downlink (server→client) direction.
    pub fn downlink_tuple(&self) -> FiveTuple {
        FiveTuple {
            src_ip: self.local_ip,
            dst_ip: self.remote_ip,
            src_port: self.local_port,
            dst_port: self.remote_port,
            protocol: Protocol::Tcp,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SenderState {
    Listen,
    SynAckSent,
    Established,
}

/// First-use reservation of the in-flight ring: a window of this many
/// segments never regrows it, and an idle sender never pays for it.
const INFLIGHT_RESERVE: usize = 32;

#[derive(Debug, Clone, Copy)]
struct SentSeg {
    seq: u64,
    end: u64,
    t_sent: Instant,
    is_retx: bool,
}

/// The server-side TCP endpoint.
pub struct TcpSender {
    cfg: TcpConfig,
    cc: Box<dyn CongestionControl>,
    state: SenderState,
    snd_nxt: u64,
    snd_una: u64,
    /// Outstanding segments in sequence order: disjoint, ascending, the
    /// oldest at the front. New data enters at the back; a retransmitted
    /// segment (always the oldest) re-enters at the front.
    inflight: VecDeque<SentSeg>,
    bytes_in_flight: usize,
    dupacks: u32,
    in_recovery: bool,
    recover: u64,
    srtt: Option<Duration>,
    rttvar: Duration,
    rto: Duration,
    rto_deadline: Option<Instant>,
    delivered: u64,
    // Classic ECN state.
    cwr_pending: bool,
    ece_gate: Instant,
    // AccECN state.
    acc_last: AccEcnCounters,
    // Pacing.
    next_send_at: Instant,
    ident: u16,
    /// Application-driven mode: the app may still [`TcpSender::offer`]
    /// more bytes, so a drained `app_limit` does not mean finished.
    app_open: bool,
    /// Count of fast retransmits (diagnostics).
    pub fast_retx: u64,
    /// Count of RTO retransmits (diagnostics).
    pub rto_retx: u64,
}

impl TcpSender {
    /// Create a sender in LISTEN state with the given congestion control.
    pub fn new(cfg: TcpConfig, cc: Box<dyn CongestionControl>) -> TcpSender {
        TcpSender {
            cfg,
            cc,
            state: SenderState::Listen,
            snd_nxt: 0,
            snd_una: 0,
            inflight: VecDeque::new(),
            bytes_in_flight: 0,
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            srtt: None,
            rttvar: Duration::ZERO,
            rto: Duration::from_secs(1),
            rto_deadline: None,
            delivered: 0,
            cwr_pending: false,
            ece_gate: Instant::ZERO,
            acc_last: AccEcnCounters::default(),
            next_send_at: Instant::ZERO,
            ident: 0,
            app_open: false,
            fast_retx: 0,
            rto_retx: 0,
        }
    }

    /// Create a sender in application-driven mode: it starts with no
    /// payload to send and the application feeds it incrementally via
    /// [`TcpSender::offer`]. [`TcpSender::finished`] stays `false` until
    /// [`TcpSender::close_app`] declares the stream complete (so a
    /// momentarily drained send buffer between application bursts is not
    /// mistaken for the end of the flow). `cfg.app_limit` is ignored.
    pub fn app_driven(mut cfg: TcpConfig, cc: Box<dyn CongestionControl>) -> TcpSender {
        cfg.app_limit = Some(0);
        let mut s = TcpSender::new(cfg, cc);
        s.app_open = true;
        s
    }

    /// Application-driven mode: make `bytes` more payload available to
    /// the stream. The caller should `poll` afterwards so newly
    /// unblocked segments go out immediately. Returns whether the offer
    /// was accepted: after [`TcpSender::stop`] or
    /// [`TcpSender::close_app`] the stream is sealed and offers are
    /// refused, so a scheduled flow stop quiesces even an application
    /// that keeps ticking.
    pub fn offer(&mut self, bytes: u64) -> bool {
        if !self.app_open {
            return false;
        }
        if let Some(limit) = &mut self.cfg.app_limit {
            *limit += bytes;
        }
        true
    }

    /// Application-driven mode: the application will offer no more
    /// bytes; once everything offered is acked the flow is finished.
    pub fn close_app(&mut self) {
        self.app_open = false;
    }

    /// Total payload bytes the application has made available so far
    /// (`u64::MAX` for a greedy flow).
    pub fn offered(&self) -> u64 {
        self.cfg.app_limit.unwrap_or(u64::MAX)
    }

    /// A smoothed estimate of the rate this connection can currently
    /// sustain, in bit/s: one (send-buffer-capped) window per smoothed
    /// RTT. `None` before the first RTT sample. This is the signal the
    /// harness feeds to application rate-adaptation hooks (a video
    /// encoder tracking its transport).
    pub fn rate_estimate_bps(&self) -> Option<f64> {
        self.srtt.map(|s| {
            (self.cc.cwnd().min(self.cfg.snd_buf)) as f64 * 8.0 / s.as_secs_f64().max(1e-4)
        })
    }

    /// The congestion controller (for diagnostics).
    pub fn cc(&self) -> &dyn CongestionControl {
        &*self.cc
    }

    /// Drain the controller's typed state-transition events (harvested
    /// into the run report).
    pub fn take_cc_events(&mut self) -> Vec<CcEvent> {
        self.cc.take_events()
    }

    /// Smoothed RTT, if measured.
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt
    }

    /// Cumulatively delivered payload bytes.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Bytes currently in flight.
    pub fn inflight_bytes(&self) -> usize {
        self.bytes_in_flight
    }

    /// True once the handshake completed.
    pub fn established(&self) -> bool {
        self.state == SenderState::Established
    }

    /// For app-limited flows: all payload delivered. An
    /// [application-driven](TcpSender::app_driven) sender additionally
    /// requires [`TcpSender::close_app`] — between bursts the stream is
    /// drained but not over.
    pub fn finished(&self) -> bool {
        match self.cfg.app_limit {
            Some(limit) => !self.app_open && self.snd_una >= limit,
            None => false,
        }
    }

    /// Connection config.
    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Stop generating new data (the flow's staggered end in Fig. 14):
    /// everything already sent still gets retransmitted/acked.
    pub fn stop(&mut self) {
        self.cfg.app_limit = Some(self.snd_nxt);
        self.app_open = false;
    }

    fn next_ident(&mut self) -> u16 {
        self.ident = self.ident.wrapping_add(1);
        self.ident
    }

    fn ecn_codepoint(&self) -> Ecn {
        self.cc.ecn_mode().codepoint()
    }

    fn make_data_segment(
        &mut self,
        seq: u64,
        len: usize,
        is_retx: bool,
        now: Instant,
    ) -> PacketBuf {
        let mut flags = TcpFlags::new().with(TcpFlags::ACK);
        if self.cwr_pending && self.cc.ecn_mode() == EcnMode::Classic {
            flags.set(TcpFlags::CWR);
            self.cwr_pending = false;
        }
        let hdr = TcpHeader {
            src_port: self.cfg.local_port,
            dst_port: self.cfg.remote_port,
            seq: seq as u32,
            ack: 1, // client's SYN occupies its seq 0
            flags,
            ..TcpHeader::default()
        };
        let ident = self.next_ident();
        let pkt = PacketBuf::tcp(
            self.cfg.local_ip,
            self.cfg.remote_ip,
            self.ecn_codepoint(),
            ident,
            &hdr,
            len,
        );
        let seg = SentSeg {
            seq,
            end: seq + len as u64,
            t_sent: now,
            is_retx,
        };
        if is_retx {
            debug_assert!(
                self.inflight.front().is_none_or(|f| seg.end <= f.seq),
                "a retransmission is the oldest outstanding segment"
            );
            self.inflight.push_front(seg);
        } else {
            debug_assert!(
                self.inflight.back().is_none_or(|b| b.end <= seq),
                "new data follows everything in flight"
            );
            if self.inflight.capacity() == 0 {
                self.inflight.reserve(INFLIGHT_RESERVE);
            }
            self.inflight.push_back(seg);
        }
        self.bytes_in_flight += len;
        if self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.rto);
        }
        pkt
    }

    /// Pacing rate in bytes/sec: the controller's own if it has one
    /// (BBR), else the Linux-style `2·cwnd/srtt` that smooths ack-clock
    /// bursts — essential over a TDD uplink that batches ACKs into
    /// 2.5 ms clumps (and a Prague *requirement*).
    fn pacing_rate(&self) -> Option<f64> {
        self.cc.pacing_rate().or_else(|| {
            self.srtt
                .map(|s| 2.0 * self.cc.cwnd() as f64 / s.as_secs_f64().max(1e-4))
        })
    }

    /// Emit new data while the window, application limit, and pacer
    /// allow, appending to the caller's buffer (the per-event hot path,
    /// so no allocation here).
    fn emit_data_into(&mut self, now: Instant, out: &mut Vec<PacketBuf>) {
        if self.state != SenderState::Established {
            return;
        }
        loop {
            let inflight = self.inflight_bytes();
            let cwnd = self.cc.cwnd().min(self.cfg.snd_buf);
            if inflight + self.cfg.mss > cwnd {
                break;
            }
            let len = match self.cfg.app_limit {
                Some(limit) => {
                    if self.snd_nxt >= limit {
                        break;
                    }
                    ((limit - self.snd_nxt) as usize).min(self.cfg.mss)
                }
                None => self.cfg.mss,
            };
            let pacing = self.pacing_rate();
            if pacing.is_some() && now < self.next_send_at {
                break;
            }
            let seq = self.snd_nxt;
            self.snd_nxt += len as u64;
            out.push(self.make_data_segment(seq, len, false, now));
            if let Some(rate) = pacing {
                if rate > 0.0 {
                    let gap = Duration::from_secs_f64(len as f64 / rate);
                    self.next_send_at = self.next_send_at.max(now) + gap;
                }
            }
        }
    }

    /// Handle an uplink packet from the client (SYN or ACK). Packets
    /// to transmit now are appended to `out`.
    pub fn on_packet_into(&mut self, pkt: &PacketBuf, now: Instant, out: &mut Vec<PacketBuf>) {
        let Some(hdr) = pkt.tcp_header() else {
            return;
        };
        match self.state {
            SenderState::Listen => {
                if hdr.flags.contains(TcpFlags::SYN) {
                    self.state = SenderState::SynAckSent;
                    let mut flags = TcpFlags::new().with(TcpFlags::SYN).with(TcpFlags::ACK);
                    if self.cc.ecn_mode() == EcnMode::Classic {
                        flags.set(TcpFlags::ECE); // RFC 3168 negotiation
                    }
                    let synack = TcpHeader {
                        src_port: self.cfg.local_port,
                        dst_port: self.cfg.remote_port,
                        seq: 0,
                        ack: 1,
                        flags,
                        mss: Some(self.cfg.mss as u16),
                        accecn: (self.cc.ecn_mode() == EcnMode::L4s).then(AccEcnCounters::default),
                        ..TcpHeader::default()
                    };
                    let ident = self.next_ident();
                    out.push(PacketBuf::tcp(
                        self.cfg.local_ip,
                        self.cfg.remote_ip,
                        Ecn::NotEct, // control packets are not ECT (RFC 3168)
                        ident,
                        &synack,
                        0,
                    ));
                }
            }
            SenderState::SynAckSent => {
                if hdr.flags.contains(TcpFlags::ACK) && !hdr.flags.contains(TcpFlags::SYN) {
                    self.state = SenderState::Established;
                    self.snd_nxt = 0;
                    self.snd_una = 0;
                    self.emit_data_into(now, out);
                }
            }
            SenderState::Established => self.on_ack_into(&hdr, now, out),
        }
    }

    fn on_ack_into(&mut self, hdr: &TcpHeader, now: Instant, out: &mut Vec<PacketBuf>) {
        if !hdr.flags.contains(TcpFlags::ACK) {
            return;
        }
        // Reconstruct the 64-bit ack from the 32-bit field near snd_una.
        let ack = unwrap_seq(hdr.ack, self.snd_una);
        if ack > self.snd_nxt {
            return; // acks data never sent: bogus, drop
        }
        let mut newly_acked = 0u64;
        let mut rtt_sample = None;
        if ack > self.snd_una {
            newly_acked = ack - self.snd_una;
            self.snd_una = ack;
            self.dupacks = 0;
            // Remove fully-covered segments: a prefix of the ring,
            // because segments are disjoint and in sequence order.
            let mut newest: Option<SentSeg> = None;
            while let Some(&s) = self.inflight.front().filter(|s| s.end <= ack) {
                self.inflight.pop_front();
                self.bytes_in_flight -= (s.end - s.seq) as usize;
                if !s.is_retx {
                    newest = Some(match newest {
                        Some(n) if n.t_sent >= s.t_sent => n,
                        _ => s,
                    });
                }
            }
            self.delivered += newly_acked;
            if let Some(s) = newest {
                let rtt = now.saturating_since(s.t_sent);
                rtt_sample = Some(rtt);
                self.update_rtt(rtt);
            }
            self.rto_deadline = if self.inflight.is_empty() {
                None
            } else {
                Some(now + self.rto)
            };
            if self.in_recovery && ack >= self.recover {
                self.in_recovery = false;
            }
        } else if ack == self.snd_una && !self.inflight.is_empty() {
            self.dupacks += 1;
        }

        let srtt = self.srtt.unwrap_or(Duration::from_millis(100));

        // --- ECN feedback ---
        let mut ce_bytes = 0usize;
        let mut ect_bytes = None;
        match self.cc.ecn_mode() {
            EcnMode::L4s => {
                if let Some(acc) = hdr.accecn {
                    let delta = acc.ce_bytes.wrapping_sub(self.acc_last.ce_bytes) & 0x00FF_FFFF;
                    // Serial-number arithmetic on the 24-bit counter: a
                    // "delta" in the upper half of the space is a stale
                    // (reordered) ACK whose counter is older than ours —
                    // ignore it entirely, including for `acc_last`.
                    // Deltas larger than newly_acked are legitimate here:
                    // an in-network bookkeeper (L4Span §4.4) may account
                    // CE for bytes that entered the RAN ahead of what
                    // this ACK covers.
                    if delta < (1 << 23) {
                        ce_bytes = delta as usize;
                        // The per-codepoint counters advance together, so
                        // the CE freshness test covers all three; their
                        // summed delta is the "bytes that arrived with
                        // any ECN codepoint" signal bleach detection
                        // compares against newly-acked bytes.
                        let d0 =
                            acc.ect0_bytes.wrapping_sub(self.acc_last.ect0_bytes) & 0x00FF_FFFF;
                        let d1 =
                            acc.ect1_bytes.wrapping_sub(self.acc_last.ect1_bytes) & 0x00FF_FFFF;
                        ect_bytes = Some((delta + d0 + d1) as usize);
                        self.acc_last = acc;
                    }
                }
            }
            EcnMode::Classic => {
                if hdr.flags.contains(TcpFlags::ECE) && now >= self.ece_gate {
                    // RFC 3168: respond like a loss, once per RTT, and set
                    // CWR on the next data segment.
                    self.cc.on_loss(now);
                    self.cwr_pending = true;
                    self.ece_gate = now + srtt;
                }
            }
            EcnMode::None => {}
        }

        // --- Loss detection: three duplicate ACKs ---
        if self.dupacks >= 3 && !self.in_recovery {
            self.in_recovery = true;
            self.recover = self.snd_nxt;
            self.cc.on_loss(now);
            self.fast_retx += 1;
            self.retransmit_oldest(now, out);
        }

        if newly_acked > 0 {
            // Delivery-rate sample over the smoothed RTT window.
            let rate = Some(self.delivered_rate_sample(now, srtt));
            let sample = AckSample {
                now,
                newly_acked: newly_acked as usize,
                ce_bytes,
                ect_bytes,
                ece: hdr.flags.contains(TcpFlags::ECE),
                rtt: rtt_sample,
                srtt,
                inflight: self.inflight_bytes(),
                delivery_rate: rate,
                app_limited: self.cfg.app_limit.is_some(),
            };
            self.cc.on_ack(&sample);
        }

        self.emit_data_into(now, out);
    }

    /// Retransmit the oldest outstanding segment (fast retransmit and
    /// RTO): it leaves the front of the ring and re-enters there with a
    /// fresh timestamp.
    fn retransmit_oldest(&mut self, now: Instant, out: &mut Vec<PacketBuf>) {
        if let Some(seg) = self.inflight.pop_front() {
            let len = (seg.end - seg.seq) as usize;
            self.bytes_in_flight -= len;
            out.push(self.make_data_segment(seg.seq, len, true, now));
        }
    }

    /// Rate sample: bytes delivered over the last smoothed RTT.
    fn delivered_rate_sample(&self, _now: Instant, srtt: Duration) -> f64 {
        // Approximation: one cwnd of data delivered per srtt when the
        // window is full. Using acked bytes over the RTT avoids keeping a
        // full rate-sample history and is accurate once flows saturate.
        let inflight = self.inflight_bytes() as f64;
        let w = (self.cc.cwnd() as f64).min(inflight.max(self.cfg.mss as f64));
        w / srtt.as_secs_f64().max(1e-4)
    }

    fn update_rtt(&mut self, rtt: Duration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let delta = if srtt > rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = (self.rttvar * 3 + delta) / 4;
                self.srtt = Some((srtt * 7 + rtt) / 8);
            }
        }
        let srtt = self.srtt.expect("just set");
        self.rto = (srtt + self.rttvar * 4).max(MIN_RTO).min(MAX_RTO);
    }

    /// Timer poll: fires RTO retransmissions and releases paced
    /// segments, appending them to `out`. This fires once per pacing/RTO
    /// timer event, so the harness reuses one scratch buffer across all
    /// flows.
    pub fn poll_into(&mut self, now: Instant, out: &mut Vec<PacketBuf>) {
        if let Some(deadline) = self.rto_deadline {
            if now >= deadline && !self.inflight.is_empty() {
                self.rto_retx += 1;
                self.cc.on_rto(now);
                self.rto = (self.rto * 2).min(MAX_RTO);
                self.dupacks = 0;
                self.in_recovery = false;
                self.retransmit_oldest(now, out);
                self.rto_deadline = Some(now + self.rto);
            }
        }
        self.emit_data_into(now, out);
    }

    /// Next instant this sender needs a `poll` (RTO deadline or pacing
    /// release), if any.
    pub fn next_activity(&self) -> Option<Instant> {
        let mut next = self.rto_deadline;
        // If pacing currently gates sendable data, wake at the release.
        if self.state == SenderState::Established
            && self.pacing_rate().is_some()
            && self.inflight_bytes() + self.cfg.mss <= self.cc.cwnd().min(self.cfg.snd_buf)
            && self.cfg.app_limit.is_none_or(|l| self.snd_nxt < l)
        {
            next = Some(match next {
                Some(n) => n.min(self.next_send_at),
                None => self.next_send_at,
            });
        }
        next
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReceiverState {
    Closed,
    SynSent,
    Established,
}

/// The client-side (UE) TCP endpoint: initiates the connection and
/// acknowledges data with the configured ECN feedback format.
#[derive(Debug)]
pub struct TcpReceiver {
    cfg: TcpConfig,
    mode: EcnMode,
    state: ReceiverState,
    rcv_nxt: u64,
    /// Out-of-order byte ranges received ahead of `rcv_nxt`.
    ooo: BTreeMap<u64, u64>,
    /// Classic ECN: ECE latched until CWR observed.
    ece_latch: bool,
    /// AccECN cumulative counters.
    acc: AccEcnCounters,
    ce_packets: u32,
    ident: u16,
    /// Total payload bytes received in order.
    pub received: u64,
    /// CE-marked payload bytes observed (diagnostics).
    pub ce_bytes_seen: u64,
}

impl TcpReceiver {
    /// Create a receiver; `mode` must match the sender's ECN mode.
    pub fn new(cfg: TcpConfig, mode: EcnMode) -> TcpReceiver {
        TcpReceiver {
            cfg,
            mode,
            state: ReceiverState::Closed,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            ece_latch: false,
            acc: AccEcnCounters::default(),
            ce_packets: 0,
            ident: 0,
            received: 0,
            ce_bytes_seen: 0,
        }
    }

    /// Established yet?
    pub fn established(&self) -> bool {
        self.state == ReceiverState::Established
    }

    fn next_ident(&mut self) -> u16 {
        self.ident = self.ident.wrapping_add(1);
        self.ident
    }

    /// Begin the handshake: returns the SYN to send uplink.
    pub fn start(&mut self, _now: Instant) -> PacketBuf {
        self.state = ReceiverState::SynSent;
        let syn = TcpHeader {
            src_port: self.cfg.remote_port,
            dst_port: self.cfg.local_port,
            seq: 0,
            ack: 0,
            flags: match self.mode {
                // RFC 3168 negotiation: SYN carries ECE+CWR.
                EcnMode::Classic => TcpFlags::new()
                    .with(TcpFlags::SYN)
                    .with(TcpFlags::ECE)
                    .with(TcpFlags::CWR),
                _ => TcpFlags::new().with(TcpFlags::SYN),
            },
            mss: Some(self.cfg.mss as u16),
            accecn: (self.mode == EcnMode::L4s).then(AccEcnCounters::default),
            ..TcpHeader::default()
        };
        let ident = self.next_ident();
        PacketBuf::tcp(
            self.cfg.remote_ip,
            self.cfg.local_ip,
            Ecn::NotEct,
            ident,
            &syn,
            0,
        )
    }

    fn make_ack(&mut self) -> PacketBuf {
        let mut flags = TcpFlags::new().with(TcpFlags::ACK);
        let mut accecn = None;
        match self.mode {
            EcnMode::Classic => {
                if self.ece_latch {
                    flags.set(TcpFlags::ECE);
                }
            }
            EcnMode::L4s => {
                flags.set_ace((self.ce_packets & 0b111) as u8);
                accecn = Some(self.acc.wrapped());
            }
            EcnMode::None => {}
        }
        let hdr = TcpHeader {
            src_port: self.cfg.remote_port,
            dst_port: self.cfg.local_port,
            seq: 1, // client sends no data after its SYN
            ack: self.rcv_nxt as u32,
            flags,
            accecn,
            ..TcpHeader::default()
        };
        let ident = self.next_ident();
        PacketBuf::tcp(
            self.cfg.remote_ip,
            self.cfg.local_ip,
            Ecn::NotEct, // pure ACKs are not ECT
            ident,
            &hdr,
            0,
        )
    }

    /// Handle a downlink packet; returns the ACK to send, if any.
    pub fn on_packet(&mut self, pkt: &PacketBuf, _now: Instant) -> Option<PacketBuf> {
        let hdr = pkt.tcp_header()?;
        match self.state {
            ReceiverState::Closed => None,
            ReceiverState::SynSent => {
                if hdr.flags.contains(TcpFlags::SYN) && hdr.flags.contains(TcpFlags::ACK) {
                    self.state = ReceiverState::Established;
                    // Final handshake ACK.
                    let ack = TcpHeader {
                        src_port: self.cfg.remote_port,
                        dst_port: self.cfg.local_port,
                        seq: 1,
                        ack: 1,
                        flags: TcpFlags::new().with(TcpFlags::ACK),
                        ..TcpHeader::default()
                    };
                    let ident = self.next_ident();
                    Some(PacketBuf::tcp(
                        self.cfg.remote_ip,
                        self.cfg.local_ip,
                        Ecn::NotEct,
                        ident,
                        &ack,
                        0,
                    ))
                } else {
                    None
                }
            }
            ReceiverState::Established => {
                let len = pkt.payload_len() as u64;
                if len == 0 {
                    return None; // pure control packet
                }
                // ECN accounting happens per data packet received.
                let ecn = pkt.ecn();
                match ecn {
                    Ecn::Ce => {
                        self.ce_packets = self.ce_packets.wrapping_add(1);
                        self.acc.ce_bytes = (self.acc.ce_bytes + len as u32) & 0x00FF_FFFF;
                        self.ce_bytes_seen += len;
                        if self.mode == EcnMode::Classic {
                            self.ece_latch = true;
                        }
                    }
                    Ecn::Ect0 => {
                        self.acc.ect0_bytes = (self.acc.ect0_bytes + len as u32) & 0x00FF_FFFF;
                    }
                    Ecn::Ect1 => {
                        self.acc.ect1_bytes = (self.acc.ect1_bytes + len as u32) & 0x00FF_FFFF;
                    }
                    Ecn::NotEct => {}
                }
                if self.mode == EcnMode::Classic && hdr.flags.contains(TcpFlags::CWR) {
                    self.ece_latch = false;
                }
                let seq = unwrap_seq(hdr.seq, self.rcv_nxt);
                let end = seq + len;
                if end > self.rcv_nxt {
                    if seq <= self.rcv_nxt {
                        self.rcv_nxt = end;
                        // Drain contiguous out-of-order data.
                        while let Some((&s, &e)) = self.ooo.iter().next() {
                            if s <= self.rcv_nxt {
                                self.ooo.remove(&s);
                                self.rcv_nxt = self.rcv_nxt.max(e);
                            } else {
                                break;
                            }
                        }
                    } else {
                        self.ooo.insert(seq, end);
                    }
                }
                self.received = self.rcv_nxt;
                Some(self.make_ack())
            }
        }
    }
}

/// Reconstruct a 64-bit sequence value from a 32-bit wire field, choosing
/// the candidate nearest `reference`.
fn unwrap_seq(wire: u32, reference: u64) -> u64 {
    let base = reference & !0xFFFF_FFFFu64;
    let cand = base | u64::from(wire);
    // Pick among cand - 2^32, cand, cand + 2^32 whichever is closest.
    let mut best = cand;
    let mut best_d = cand.abs_diff(reference);
    if cand >= 1 << 32 {
        let lo = cand - (1 << 32);
        if lo.abs_diff(reference) < best_d {
            best = lo;
            best_d = lo.abs_diff(reference);
        }
    }
    let hi = cand + (1 << 32);
    if hi.abs_diff(reference) < best_d {
        best = hi;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cubic::Cubic;
    use crate::prague::Prague;
    use crate::reno::Reno;

    fn pair(cc: Box<dyn CongestionControl>) -> (TcpSender, TcpReceiver) {
        let cfg = TcpConfig::new(0x0A00_0001, 0x0A00_0002, 443, 50_000);
        let mode = cc.ecn_mode();
        (TcpSender::new(cfg, cc), TcpReceiver::new(cfg, mode))
    }

    /// What the sender transmits in response to `pkt`.
    fn recv(s: &mut TcpSender, pkt: &PacketBuf, now: Instant) -> Vec<PacketBuf> {
        let mut out = Vec::new();
        s.on_packet_into(pkt, now, &mut out);
        out
    }

    /// What a timer poll at `now` releases.
    fn poll(s: &mut TcpSender, now: Instant) -> Vec<PacketBuf> {
        let mut out = Vec::new();
        s.poll_into(now, &mut out);
        out
    }

    /// Run the handshake; returns the initial data burst.
    fn handshake(s: &mut TcpSender, r: &mut TcpReceiver, now: Instant) -> Vec<PacketBuf> {
        let syn = r.start(now);
        let synack = recv(s, &syn, now);
        assert_eq!(synack.len(), 1);
        let ack = r.on_packet(&synack[0], now).expect("handshake ack");
        let burst = recv(s, &ack, now);
        assert!(s.established() && r.established());
        burst
    }

    #[test]
    fn handshake_then_initial_window() {
        let (mut s, mut r) = pair(Box::new(Reno::new(1400)));
        let burst = handshake(&mut s, &mut r, Instant::ZERO);
        assert_eq!(burst.len(), 10, "IW10");
        assert!(burst.iter().all(|p| p.payload_len() == 1400));
        assert!(burst.iter().all(|p| p.ecn() == Ecn::Ect0), "classic ECT(0)");
    }

    #[test]
    fn prague_data_is_ect1_with_accecn_acks() {
        let (mut s, mut r) = pair(Box::new(Prague::new(1400)));
        let burst = handshake(&mut s, &mut r, Instant::ZERO);
        assert!(burst.iter().all(|p| p.ecn() == Ecn::Ect1));
        let ack = r
            .on_packet(&burst[0], Instant::from_millis(20))
            .expect("ack");
        let h = ack.tcp_header().unwrap();
        assert!(h.accecn.is_some(), "AccECN option present");
        assert_eq!(h.accecn.unwrap().ect1_bytes, 1400);
    }

    #[test]
    fn ack_clock_advances_window() {
        let (mut s, mut r) = pair(Box::new(Reno::new(1400)));
        let burst = handshake(&mut s, &mut r, Instant::ZERO);
        let mut t = Instant::from_millis(40);
        let mut total_sent = burst.len();
        let mut queue = burst;
        // One RTT of acks: slow start should roughly double inflight.
        // (Pacing gates bursts, so pump `poll` as virtual time passes.)
        let mut new_pkts = Vec::new();
        for p in queue.drain(..) {
            if let Some(ack) = r.on_packet(&p, t) {
                s.on_packet_into(&ack, t, &mut new_pkts);
            }
            t += Duration::from_millis(2);
            s.poll_into(t, &mut new_pkts);
        }
        for _ in 0..50 {
            t += Duration::from_millis(2);
            s.poll_into(t, &mut new_pkts);
        }
        total_sent += new_pkts.len();
        assert!(total_sent >= 18, "slow start growth, sent {total_sent}");
        assert!(s.srtt().is_some());
    }

    #[test]
    fn ce_mark_reaches_classic_sender_as_ece_and_halves() {
        let (mut s, mut r) = pair(Box::new(Cubic::new(1400)));
        let burst = handshake(&mut s, &mut r, Instant::ZERO);
        let mut t = Instant::from_millis(40);
        // Grow the window a bit first (pump poll so pacing releases).
        let mut pkts = Vec::new();
        for p in &burst {
            if let Some(ack) = r.on_packet(p, t) {
                s.on_packet_into(&ack, t, &mut pkts);
            }
            t += Duration::from_millis(1);
            s.poll_into(t, &mut pkts);
        }
        assert!(!pkts.is_empty(), "new data flowed after the acks");
        let w = s.cc().cwnd();
        // Mark one downlink packet CE.
        let mut marked = pkts[0];
        marked.set_ecn(Ecn::Ce);
        let t2 = Instant::from_millis(80);
        let ack = r.on_packet(&marked, t2).expect("ack");
        let h = ack.tcp_header().unwrap();
        assert!(h.flags.contains(TcpFlags::ECE), "ECE latched");
        // The reacting call may already emit the CWR-carrying segment.
        let mut sent_after = recv(&mut s, &ack, t2);
        assert!(
            (s.cc().cwnd() as f64) < 0.8 * w as f64,
            "cubic must back off: {} vs {w}",
            s.cc().cwnd()
        );
        // Keep acking the remaining flight until the (reduced) window
        // opens; the first new data segment must carry CWR. Pump `poll`
        // so the pacer releases segments as time advances.
        let mut t3 = Instant::from_millis(81);
        for p in pkts.iter().skip(1) {
            if let Some(a) = r.on_packet(p, t3) {
                s.on_packet_into(&a, t3, &mut sent_after);
            }
            t3 += Duration::from_millis(2);
            s.poll_into(t3, &mut sent_after);
        }
        for _ in 0..100 {
            t3 += Duration::from_millis(2);
            s.poll_into(t3, &mut sent_after);
        }
        let cwr_seg = sent_after
            .iter()
            .find(|p| p.tcp_header().unwrap().flags.contains(TcpFlags::CWR));
        assert!(cwr_seg.is_some(), "CWR must be set after ECE reaction");
        let ack2 = r.on_packet(cwr_seg.unwrap(), t3);
        assert!(
            !ack2
                .unwrap()
                .tcp_header()
                .unwrap()
                .flags
                .contains(TcpFlags::ECE),
            "CWR clears the ECE latch"
        );
    }

    #[test]
    fn ece_reaction_is_once_per_rtt() {
        let (mut s, mut r) = pair(Box::new(Cubic::new(1400)));
        let burst = handshake(&mut s, &mut r, Instant::ZERO);
        let t = Instant::from_millis(40);
        let mut marked1 = burst[0];
        marked1.set_ecn(Ecn::Ce);
        let ack1 = r.on_packet(&marked1, t).unwrap();
        recv(&mut s, &ack1, t);
        let w = s.cc().cwnd();
        // A second ECE ack a moment later must not halve again.
        let mut marked2 = burst[1];
        marked2.set_ecn(Ecn::Ce);
        let ack2 = r.on_packet(&marked2, t + Duration::from_millis(1)).unwrap();
        recv(&mut s, &ack2, t + Duration::from_millis(1));
        assert!(
            s.cc().cwnd() >= w && s.cc().cwnd() < w + 2 * 1400,
            "gated for one RTT: {} vs {w}",
            s.cc().cwnd()
        );
    }

    #[test]
    fn accecn_ce_bytes_flow_to_prague() {
        let (mut s, mut r) = pair(Box::new(Prague::new(1400)));
        let burst = handshake(&mut s, &mut r, Instant::ZERO);
        let t = Instant::from_millis(40);
        let mut marked = burst[0];
        marked.set_ecn(Ecn::Ce);
        let w = s.cc().cwnd();
        let ack = r.on_packet(&marked, t).unwrap();
        recv(&mut s, &ack, t);
        let cut = w - s.cc().cwnd();
        assert!(cut > 0, "prague reduces on CE bytes");
        assert!(
            (cut as f64) < 0.2 * w as f64,
            "but only slightly (alpha small): cut {cut} of {w}"
        );
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit() {
        let (mut s, mut r) = pair(Box::new(Reno::new(1400)));
        let burst = handshake(&mut s, &mut r, Instant::ZERO);
        assert!(burst.len() >= 5);
        let t = Instant::from_millis(40);
        // Drop burst[0]; deliver 1..5 -> four dupacks for seq 0.
        let mut retx = Vec::new();
        for p in &burst[1..6] {
            if let Some(ack) = r.on_packet(p, t) {
                s.on_packet_into(&ack, t, &mut retx);
            }
        }
        assert_eq!(s.fast_retx, 1, "one fast retransmit episode");
        let retx_seg = retx
            .iter()
            .find(|p| p.tcp_header().unwrap().seq == 0)
            .expect("seq 0 retransmitted");
        // Receiver fills the hole and acks everything.
        let ack = r.on_packet(retx_seg, t + Duration::from_millis(1)).unwrap();
        assert_eq!(
            unwrap_seq(ack.tcp_header().unwrap().ack, 0),
            6 * 1400,
            "cumulative ack covers the ooo data"
        );
    }

    #[test]
    fn rto_fires_and_retransmits() {
        let (mut s, mut r) = pair(Box::new(Reno::new(1400)));
        let burst = handshake(&mut s, &mut r, Instant::ZERO);
        assert!(!burst.is_empty());
        // No acks arrive at all; poll past the RTO deadline.
        let deadline = s.next_activity().expect("rto armed");
        let out = poll(&mut s, deadline + Duration::from_millis(1));
        assert_eq!(s.rto_retx, 1);
        assert!(out.iter().any(|p| p.tcp_header().unwrap().seq == 0));
        assert_eq!(s.cc().cwnd(), 1400, "reno collapses to 1 MSS");
        let _ = r;
    }

    #[test]
    fn app_limited_flow_finishes() {
        let mut cfg = TcpConfig::new(1, 2, 443, 50_000);
        cfg.app_limit = Some(14_000); // the paper's 14 kB short flow
        let mut s = TcpSender::new(cfg, Box::new(Cubic::new(1400)));
        let mut r = TcpReceiver::new(cfg, EcnMode::Classic);
        let syn = r.start(Instant::ZERO);
        let synack = recv(&mut s, &syn, Instant::ZERO);
        let ack = r.on_packet(&synack[0], Instant::ZERO).unwrap();
        let burst = recv(&mut s, &ack, Instant::ZERO);
        assert_eq!(burst.len(), 10, "14000/1400 = 10 segments fit IW");
        assert!(!s.finished());
        let t = Instant::from_millis(40);
        for p in &burst {
            if let Some(a) = r.on_packet(p, t) {
                recv(&mut s, &a, t);
            }
        }
        assert!(s.finished());
        assert_eq!(r.received, 14_000);
    }

    #[test]
    fn app_driven_sender_sends_only_offered_bytes_and_finishes_on_close() {
        let cfg = TcpConfig::new(1, 2, 443, 50_000);
        let mut s = TcpSender::app_driven(cfg, Box::new(Cubic::new(1400)));
        let mut r = TcpReceiver::new(cfg, EcnMode::Classic);
        let syn = r.start(Instant::ZERO);
        let synack = recv(&mut s, &syn, Instant::ZERO);
        let ack = r.on_packet(&synack[0], Instant::ZERO).unwrap();
        let burst = recv(&mut s, &ack, Instant::ZERO);
        assert!(burst.is_empty(), "nothing offered yet, nothing sent");
        assert!(!s.finished(), "drained but the app is still open");

        s.offer(2800);
        let out = poll(&mut s, Instant::from_millis(1));
        assert_eq!(out.len(), 2, "exactly the offered two segments");
        let t = Instant::from_millis(40);
        for p in &out {
            if let Some(a) = r.on_packet(p, t) {
                recv(&mut s, &a, t);
            }
        }
        assert!(!s.finished(), "acked, but more bursts may come");
        s.offer(1400);
        s.close_app();
        let out2 = poll(&mut s, Instant::from_millis(41));
        assert_eq!(out2.len(), 1);
        assert!(!s.finished());
        let t2 = Instant::from_millis(80);
        for p in &out2 {
            if let Some(a) = r.on_packet(p, t2) {
                recv(&mut s, &a, t2);
            }
        }
        assert!(s.finished(), "closed and fully acked");
        assert_eq!(r.received, 4200);
        assert!(s.rate_estimate_bps().unwrap() > 0.0);
    }

    #[test]
    fn unwrap_seq_handles_wraparound() {
        assert_eq!(unwrap_seq(5, 3), 5);
        assert_eq!(unwrap_seq(5, (1 << 32) - 10), (1 << 32) + 5);
        assert_eq!(unwrap_seq(u32::MAX - 1, 1 << 32), (1 << 33) - 2 - (1 << 32));
        assert_eq!(unwrap_seq(0, 0), 0);
    }
}
