//! The TCP sender as it was while its in-flight set was a
//! `BTreeMap<seq, segment>`: the same state machine as
//! `l4span::cc::TcpSender` (greedy or fixed-size flows; the
//! application-driven entry points do not touch the in-flight set and are
//! left out), kept as the reference the ring-backed sender is compared to.

use std::collections::BTreeMap;

use l4span::cc::tcp::TcpConfig;
use l4span::cc::{AckSample, CongestionControl, EcnMode};
use l4span::net::{AccEcnCounters, Ecn, PacketBuf, TcpFlags, TcpHeader};
use l4span::sim::{Duration, Instant};

const MIN_RTO: Duration = Duration::from_millis(200);
const MAX_RTO: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Listen,
    SynAckSent,
    Established,
}

#[derive(Debug, Clone, Copy)]
struct SentSeg {
    end: u64,
    sent_at: Instant,
    is_retx: bool,
}

pub struct TreeTcpSender {
    cfg: TcpConfig,
    pub cc: Box<dyn CongestionControl>,
    state: State,
    snd_nxt: u64,
    snd_una: u64,
    inflight: BTreeMap<u64, SentSeg>,
    pub bytes_in_flight: usize,
    dupacks: u32,
    in_recovery: bool,
    recover: u64,
    pub srtt: Option<Duration>,
    rttvar: Duration,
    rto: Duration,
    rto_backoff: u32,
    rto_deadline: Option<Instant>,
    pub delivered: u64,
    cwr_pending: bool,
    ece_gate: Instant,
    acc_last: AccEcnCounters,
    next_send_at: Instant,
    ident: u16,
    pub fast_retx: u64,
    pub rto_retx: u64,
}

impl TreeTcpSender {
    pub fn new(cfg: TcpConfig, cc: Box<dyn CongestionControl>) -> TreeTcpSender {
        TreeTcpSender {
            cfg,
            cc,
            state: State::Listen,
            snd_nxt: 0,
            snd_una: 0,
            inflight: BTreeMap::new(),
            bytes_in_flight: 0,
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            srtt: None,
            rttvar: Duration::ZERO,
            rto: Duration::from_secs(1),
            rto_backoff: 0,
            rto_deadline: None,
            delivered: 0,
            cwr_pending: false,
            ece_gate: Instant::ZERO,
            acc_last: AccEcnCounters::default(),
            next_send_at: Instant::ZERO,
            ident: 0,
            fast_retx: 0,
            rto_retx: 0,
        }
    }

    pub fn finished(&self) -> bool {
        self.cfg
            .app_limit
            .is_some_and(|limit| self.snd_una >= limit)
    }

    fn next_ident(&mut self) -> u16 {
        self.ident = self.ident.wrapping_add(1);
        self.ident
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
            ack: 1,
            flags,
            ..TcpHeader::default()
        };
        let ident = self.next_ident();
        let pkt = PacketBuf::tcp(
            self.cfg.local_ip,
            self.cfg.remote_ip,
            self.cc.ecn_mode().codepoint(),
            ident,
            &hdr,
            len,
        );
        let prev = self.inflight.insert(
            seq,
            SentSeg {
                end: seq + len as u64,
                sent_at: now,
                is_retx,
            },
        );
        assert!(prev.is_none(), "segment re-inserted while in flight");
        self.bytes_in_flight += len;
        if self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.rto);
        }
        pkt
    }

    fn pacing_rate(&self) -> Option<f64> {
        self.cc.pacing_rate().or_else(|| {
            self.srtt
                .map(|s| 2.0 * self.cc.cwnd() as f64 / s.as_secs_f64().max(1e-4))
        })
    }

    fn emit_data_into(&mut self, now: Instant, out: &mut Vec<PacketBuf>) {
        if self.state != State::Established {
            return;
        }
        loop {
            let cwnd = self.cc.cwnd().min(self.cfg.snd_buf);
            if self.bytes_in_flight + self.cfg.mss > cwnd {
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

    pub fn on_packet_into(&mut self, pkt: &PacketBuf, now: Instant, out: &mut Vec<PacketBuf>) {
        let Some(hdr) = pkt.tcp_header() else {
            return;
        };
        match self.state {
            State::Listen => {
                if hdr.flags.contains(TcpFlags::SYN) {
                    self.state = State::SynAckSent;
                    let mut flags = TcpFlags::new().with(TcpFlags::SYN).with(TcpFlags::ACK);
                    if self.cc.ecn_mode() == EcnMode::Classic {
                        flags.set(TcpFlags::ECE);
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
                        Ecn::NotEct,
                        ident,
                        &synack,
                        0,
                    ));
                }
            }
            State::SynAckSent => {
                if hdr.flags.contains(TcpFlags::ACK) && !hdr.flags.contains(TcpFlags::SYN) {
                    self.state = State::Established;
                    self.snd_nxt = 0;
                    self.snd_una = 0;
                    self.emit_data_into(now, out);
                }
            }
            State::Established => self.on_ack_into(&hdr, now, out),
        }
    }

    fn on_ack_into(&mut self, hdr: &TcpHeader, now: Instant, out: &mut Vec<PacketBuf>) {
        if !hdr.flags.contains(TcpFlags::ACK) {
            return;
        }
        let ack = unwrap_seq(hdr.ack, self.snd_una);
        if ack > self.snd_nxt {
            return;
        }
        let mut newly_acked = 0u64;
        let mut rtt_sample = None;
        if ack > self.snd_una {
            newly_acked = ack - self.snd_una;
            self.snd_una = ack;
            self.dupacks = 0;
            let covered: Vec<u64> = self
                .inflight
                .range(..ack)
                .filter(|(_, s)| s.end <= ack)
                .map(|(&k, _)| k)
                .collect();
            let mut newest: Option<SentSeg> = None;
            for &k in &covered {
                let s = self.inflight.remove(&k).expect("listed");
                self.bytes_in_flight -= (s.end - k) as usize;
                if !s.is_retx {
                    newest = Some(match newest {
                        Some(n) if n.sent_at >= s.sent_at => n,
                        _ => s,
                    });
                }
            }
            self.delivered += newly_acked;
            if let Some(s) = newest {
                let rtt = now.saturating_since(s.sent_at);
                rtt_sample = Some(rtt);
                self.update_rtt(rtt);
            }
            self.rto_backoff = 0;
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

        let mut ce_bytes = 0usize;
        let mut ect_bytes = None;
        match self.cc.ecn_mode() {
            EcnMode::L4s => {
                if let Some(acc) = hdr.accecn {
                    let delta = acc.ce_bytes.wrapping_sub(self.acc_last.ce_bytes) & 0x00FF_FFFF;
                    if delta < (1 << 23) {
                        ce_bytes = delta as usize;
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
                    self.cc.on_loss(now);
                    self.cwr_pending = true;
                    self.ece_gate = now + srtt;
                }
            }
            EcnMode::None => {}
        }

        if self.dupacks >= 3 && !self.in_recovery {
            self.in_recovery = true;
            self.recover = self.snd_nxt;
            self.cc.on_loss(now);
            self.fast_retx += 1;
            self.retransmit_first(now, out);
        }

        if newly_acked > 0 {
            let inflight = self.bytes_in_flight as f64;
            let w = (self.cc.cwnd() as f64).min(inflight.max(self.cfg.mss as f64));
            let sample = AckSample {
                now,
                newly_acked: newly_acked as usize,
                ce_bytes,
                ect_bytes,
                ece: hdr.flags.contains(TcpFlags::ECE),
                rtt: rtt_sample,
                srtt,
                inflight: self.bytes_in_flight,
                delivery_rate: Some(w / srtt.as_secs_f64().max(1e-4)),
                app_limited: self.cfg.app_limit.is_some(),
            };
            self.cc.on_ack(&sample);
        }

        self.emit_data_into(now, out);
    }

    fn retransmit_first(&mut self, now: Instant, out: &mut Vec<PacketBuf>) {
        if let Some((&seq, seg)) = self.inflight.iter().next() {
            let len = (seg.end - seq) as usize;
            self.inflight.remove(&seq);
            self.bytes_in_flight -= len;
            out.push(self.make_data_segment(seq, len, true, now));
        }
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

    pub fn poll_into(&mut self, now: Instant, out: &mut Vec<PacketBuf>) {
        if let Some(deadline) = self.rto_deadline {
            if now >= deadline && !self.inflight.is_empty() {
                self.rto_retx += 1;
                self.cc.on_rto(now);
                self.rto_backoff = (self.rto_backoff + 1).min(8);
                self.rto = (self.rto * 2).min(MAX_RTO);
                self.dupacks = 0;
                self.in_recovery = false;
                self.retransmit_first(now, out);
                self.rto_deadline = Some(now + self.rto);
            }
        }
        self.emit_data_into(now, out);
    }

    pub fn next_activity(&self) -> Option<Instant> {
        let mut next = self.rto_deadline;
        if self.state == State::Established
            && self.pacing_rate().is_some()
            && self.bytes_in_flight + self.cfg.mss <= self.cc.cwnd().min(self.cfg.snd_buf)
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

fn unwrap_seq(wire: u32, reference: u64) -> u64 {
    let base = reference & !0xFFFF_FFFFu64;
    let cand = base | u64::from(wire);
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
