//! A TCP sender written from RFC 9293 (passive open), RFC 5681 with
//! RFC 6582's `recover` (loss recovery), RFC 6298 (the timer), RFC 3168
//! (ECE/CWR) and AccECN (byte counters). Every rule cites its section;
//! where the model departs on purpose the rule is the model's, marked
//! `deviates from`.

use std::collections::BTreeMap;

use l4span::cc::tcp::TcpConfig;
use l4span::cc::{AckSample, CongestionControl, EcnMode};
use l4span::net::{AccEcnCounters, Ecn, PacketBuf, TcpFlags, TcpHeader};
use l4span::sim::{Duration, Instant};

// deviates from RFC 6298 §2.4 (RTO ≥ 1 s) and §2.5 (a cap, if any, ≥ 60 s).
const MIN_RTO: Duration = Duration::from_millis(200);
const MAX_RTO: Duration = Duration::from_secs(10);

/// RFC 5681 §3.1's window, the reference's own where the model runs Reno.
pub struct Rfc5681 {
    cwnd: usize,
    ssthresh: usize,
    credit: usize,
    mss: usize,
}

/// deviates from RFC 5681 §3.1 (IW ≤ 4·SMSS): IW = 10·SMSS (RFC 6928).
pub fn rfc5681(mss: usize) -> Box<dyn CongestionControl> {
    Box::new(Rfc5681 {
        cwnd: 10 * mss,
        ssthresh: usize::MAX,
        credit: 0,
        mss,
    })
}

impl CongestionControl for Rfc5681 {
    /// §3.1: slow start while cwnd < ssthresh (deviates from eq. (2),
    /// += min(N, SMSS): uncapped), then one SMSS per cwnd of acked bytes.
    fn on_ack(&mut self, a: &AckSample) {
        if self.cwnd < self.ssthresh {
            self.cwnd += a.newly_acked;
            return;
        }
        self.credit += a.newly_acked;
        while self.credit >= self.cwnd {
            self.credit -= self.cwnd;
            self.cwnd += self.mss;
        }
    }

    /// §3.2 step 2: cwnd = ssthresh. deviates from eq. (4) (FlightSize/2):
    /// cwnd/2; from step 3 (cwnd = ssthresh + 3·SMSS, then inflated): none.
    fn on_loss(&mut self, _: Instant) {
        self.ssthresh = (self.cwnd / 2).max(2 * self.mss);
        (self.cwnd, self.credit) = (self.ssthresh, 0);
    }

    /// §3.1: a timeout leaves cwnd = LW = 1 SMSS. deviates from §3.1 (hold
    /// ssthresh when the timer resends a segment again): recomputed.
    fn on_rto(&mut self, now: Instant) {
        self.on_loss(now);
        self.cwnd = self.mss;
    }

    fn cwnd(&self) -> usize {
        self.cwnd
    }

    fn ecn_mode(&self) -> EcnMode {
        EcnMode::Classic // RFC 3168 §6.1.2: ECE is answered like a loss
    }

    fn name(&self) -> &'static str {
        "rfc5681"
    }
}

pub struct RfcSender {
    cfg: TcpConfig,
    pub cc: Box<dyn CongestionControl>,
    /// RFC 9293 §3.3.2: `None` in LISTEN, `Some(false)` in SYN-RECEIVED.
    established: Option<bool>,
    snd_una: u64,
    snd_nxt: u64,
    /// RFC 9293 §3.10.7.4's retransmission queue: seq → (end, sent at, resent).
    q: BTreeMap<u64, (u64, Instant, bool)>,
    dupacks: u32,
    recover: Option<u64>, // RFC 6582 §3.2, while in fast recovery
    pub srtt: Option<Duration>,
    rttvar: Duration,
    rto: Duration,
    timer: Option<Instant>,
    cwr: bool,
    ece_gate: Instant,
    acc: AccEcnCounters,
    next_send: Instant,
    ident: u16,
    pub fast_retx: u64,
    pub rto_retx: u64,
}

impl RfcSender {
    pub fn new(cfg: TcpConfig, cc: Box<dyn CongestionControl>) -> RfcSender {
        RfcSender {
            cfg,
            cc,
            established: None,
            snd_una: 0,
            snd_nxt: 0,
            q: BTreeMap::new(),
            dupacks: 0,
            recover: None,
            srtt: None,
            rttvar: Duration::ZERO,
            rto: Duration::from_secs(1), // RFC 6298 §2.1
            timer: None,
            cwr: false,
            ece_gate: Instant::ZERO,
            acc: AccEcnCounters::default(),
            next_send: Instant::ZERO,
            ident: 0,
            fast_retx: 0,
            rto_retx: 0,
        }
    }

    /// All acked: the SYN takes no sequence number (see `on_packet_into`).
    pub fn delivered(&self) -> u64 {
        self.snd_una
    }

    pub fn finished(&self) -> bool {
        self.cfg.app_limit.is_some_and(|l| self.snd_una >= l)
    }

    /// deviates from RFC 5681 §2 (FlightSize = SND.NXT − SND.UNA): a
    /// segment stays in flight whole until it is wholly acked.
    pub fn flight(&self) -> usize {
        (self.snd_nxt - self.q.keys().next().unwrap_or(&self.snd_nxt)) as usize
    }

    /// RFC 5681 §2: send while FlightSize + SMSS ≤ min(cwnd, rwnd); rwnd is
    /// unbounded here and the send buffer caps instead.
    fn can_send(&self) -> bool {
        let wnd = self.cc.cwnd().min(self.cfg.snd_buf);
        let unsent = self.cfg.app_limit.is_none_or(|l| self.snd_nxt < l);
        self.established == Some(true) && self.flight() + self.cfg.mss <= wnd && unsent
    }

    /// deviates from RFC 5681 (send as the window allows): paced at the
    /// controller's rate, else at 2·cwnd/SRTT once there is an SRTT.
    fn pacing(&self) -> Option<f64> {
        let own = |s: Duration| 2.0 * self.cc.cwnd() as f64 / s.as_secs_f64().max(1e-4);
        self.cc.pacing_rate().or_else(|| self.srtt.map(own))
    }

    pub fn next_activity(&self) -> Option<Instant> {
        let paced = (self.can_send() && self.pacing().is_some()).then_some(self.next_send);
        [self.timer, paced].into_iter().flatten().min()
    }

    fn packet(&mut self, mut hdr: TcpHeader, ecn: Ecn, len: usize) -> PacketBuf {
        let c = self.cfg;
        (hdr.src_port, hdr.dst_port, hdr.ack) = (c.local_port, c.remote_port, 1);
        self.ident = self.ident.wrapping_add(1);
        PacketBuf::tcp(c.local_ip, c.remote_ip, ecn, self.ident, &hdr, len)
    }

    fn send(&mut self, seq: u64, len: usize, resent: bool, now: Instant) -> PacketBuf {
        let mut flags = TcpFlags::new().with(TcpFlags::ACK);
        // RFC 3168 §6.1.2: CWR on the first data segment after a cut. deviates
        // from it (new data only, after any cut): only ECE cuts set CWR, and a
        // retransmission carries it; from §6.1.5: resent segments are ECT too.
        if std::mem::take(&mut self.cwr) {
            flags.set(TcpFlags::CWR);
        }
        let hdr = TcpHeader {
            seq: seq as u32,
            flags,
            ..TcpHeader::default()
        };
        self.q.insert(seq, (seq + len as u64, now, resent));
        self.timer.get_or_insert(now + self.rto); // RFC 6298 §5.1
        self.packet(hdr, self.cc.ecn_mode().codepoint(), len)
    }

    /// RFC 5681 §3.2 step 2, RFC 6298 §5.4: resend the first unacked segment.
    fn retransmit(&mut self, now: Instant, out: &mut Vec<PacketBuf>) {
        if let Some((&seq, &(end, ..))) = self.q.first_key_value() {
            out.push(self.send(seq, (end - seq) as usize, true, now));
        }
    }

    fn emit(&mut self, now: Instant, out: &mut Vec<PacketBuf>) {
        while self.can_send() {
            let (mss, nxt) = (self.cfg.mss as u64, self.snd_nxt);
            let len = self.cfg.app_limit.map_or(mss, |l| (l - nxt).min(mss));
            let pacing = self.pacing();
            if pacing.is_some() && now < self.next_send {
                break;
            }
            self.snd_nxt += len;
            out.push(self.send(nxt, len as usize, false, now));
            if let Some(rate) = pacing.filter(|&r| r > 0.0) {
                let gap = Duration::from_secs_f64(len as f64 / rate);
                self.next_send = self.next_send.max(now) + gap;
            }
        }
    }

    pub fn on_packet_into(&mut self, pkt: &PacketBuf, now: Instant, out: &mut Vec<PacketBuf>) {
        let Some(h) = pkt.tcp_header() else { return };
        let syn = h.flags.contains(TcpFlags::SYN);
        let ack = h.flags.contains(TcpFlags::ACK);
        match self.established {
            Some(true) if ack => self.on_ack(&h, now, out),
            // RFC 9293 §3.10.7.4: an ACK in SYN-RECEIVED establishes. deviates:
            // SEG.ACK is not checked, the SYN takes no sequence number (§3.4:
            // data starts at ISS) and the SYN,ACK is never resent (RFC 6298 §5).
            Some(false) if ack && !syn => {
                self.established = Some(true);
                self.emit(now, out);
            }
            // RFC 9293 §3.10.7.2: LISTEN answers a SYN with a non-ECT (RFC 3168
            // §6.1.1) SYN,ACK, ISS = 0. deviates from RFC 3168 §6.1.1: it is
            // ECN-setup without checking the SYN for ECE and CWR.
            None if syn => {
                self.established = Some(false);
                let mode = self.cc.ecn_mode();
                let ece = if mode == EcnMode::Classic {
                    TcpFlags::ECE
                } else {
                    0
                };
                let hdr = TcpHeader {
                    flags: TcpFlags::new().with(TcpFlags::SYN | TcpFlags::ACK | ece),
                    mss: Some(self.cfg.mss as u16),
                    accecn: (mode == EcnMode::L4s).then(AccEcnCounters::default),
                    ..TcpHeader::default()
                };
                out.push(self.packet(hdr, Ecn::NotEct, 0));
            }
            _ => {}
        }
    }

    fn on_ack(&mut self, h: &TcpHeader, now: Instant, out: &mut Vec<PacketBuf>) {
        // RFC 9293 §3.4: sequence numbers compare modulo 2^32.
        let delta = h.ack.wrapping_sub(self.snd_una as u32) as i32;
        let ack = self.snd_una.wrapping_add_signed(delta.into());
        // RFC 9293 §3.10.7.4: SEG.ACK > SND.NXT acks unsent data: drop it.
        // deviates: no ACK is sent in reply.
        if ack > self.snd_nxt {
            return;
        }
        let (mut newly, mut rtt) = (0, None);
        if ack > self.snd_una {
            (newly, self.snd_una, self.dupacks) = (ack - self.snd_una, ack, 0);
            // RFC 9293 §3.10.7.4: wholly acked segments leave the queue;
            // RFC 6298 §3 (Karn): a resent one gives no RTT sample.
            let mut newest = None;
            while let Some(e) = self.q.first_entry().filter(|e| e.get().0 <= ack) {
                let (_, sent, resent) = e.remove();
                newest = newest.max((!resent).then_some(sent));
            }
            rtt = newest.map(|sent| now.saturating_since(sent));
            if let Some(r) = rtt {
                self.measure(r);
            }
            // RFC 6298 §5.2 / §5.3: stop the timer if all is acked, else restart it.
            self.timer = (!self.q.is_empty()).then(|| now + self.rto);
            // RFC 6582 §3.2 step 3: a full ACK ends fast recovery. deviates from
            // its partial-ACK rule: nothing is resent; the timer repairs.
            self.recover = self.recover.filter(|&r| ack < r);
        } else if ack == self.snd_una && !self.q.is_empty() {
            self.dupacks += 1; // RFC 5681 §2: a DUPLICATE ACKNOWLEDGMENT
        }
        let srtt = self.srtt.unwrap_or(Duration::from_millis(100));
        let ece = h.flags.contains(TcpFlags::ECE);
        let (mut ce, mut ect) = (0, None);
        match self.cc.ecn_mode() {
            // AccECN §3.2: 24-bit byte counters; a delta in the upper half of
            // the serial space is a stale ACK and changes nothing.
            EcnMode::L4s => {
                let d = |a: u32, b: u32| (a.wrapping_sub(b) & 0xFF_FFFF) as usize;
                let acc = self.acc;
                if let Some(a) = h.accecn.filter(|a| d(a.ce_bytes, acc.ce_bytes) < 1 << 23) {
                    ce = d(a.ce_bytes, acc.ce_bytes);
                    let ects = d(a.ect0_bytes, acc.ect0_bytes) + d(a.ect1_bytes, acc.ect1_bytes);
                    (ect, self.acc) = (Some(ce + ects), a);
                }
            }
            // RFC 3168 §6.1.2: answer ECE like a loss, at most once per window
            // ("more loosely", per RTT: one SRTT), then CWR. deviates from it:
            // loss cuts do not close the gate.
            EcnMode::Classic if ece && now >= self.ece_gate => {
                self.cc.on_loss(now);
                (self.cwr, self.ece_gate) = (true, now + srtt);
            }
            _ => {}
        }
        // RFC 5681 §3.2 step 2, RFC 6582 §3.2 step 2: the third duplicate ACK
        // resends and sets recover = SND.NXT. deviates from RFC 6582: no check
        // that the ACK covers more than the last recover.
        if self.dupacks >= 3 && self.recover.is_none() {
            self.recover = Some(self.snd_nxt);
            self.cc.on_loss(now);
            self.fast_retx += 1;
            self.retransmit(now, out);
        }
        // deviates from AccECN §3.2: the counters of an ACK of no new data
        // are consumed above but never reach the controller.
        if newly > 0 {
            let inflight = self.flight();
            let w = (self.cc.cwnd() as f64).min(inflight.max(self.cfg.mss) as f64);
            self.cc.on_ack(&AckSample {
                now,
                newly_acked: newly as usize,
                ce_bytes: ce,
                ect_bytes: ect,
                ece,
                rtt,
                srtt,
                inflight,
                delivery_rate: Some(w / srtt.as_secs_f64().max(1e-4)),
                app_limited: self.cfg.app_limit.is_some(),
            });
        }
        self.emit(now, out);
    }

    /// RFC 6298 §2.2 (first sample), §2.3 (RTTVAR from the old SRTT, then
    /// SRTT); RTO = SRTT + max(G, 4·RTTVAR) with G → 0 on a ns clock.
    fn measure(&mut self, r: Duration) {
        self.rttvar = match self.srtt {
            None => r / 2,
            Some(s) => (self.rttvar * 3 + s.max(r) - s.min(r)) / 4,
        };
        let s = (self.srtt.unwrap_or(r) * 7 + r) / 8;
        (self.srtt, self.rto) = (Some(s), (s + self.rttvar * 4).max(MIN_RTO).min(MAX_RTO));
    }

    /// RFC 6298 §5.4–5.6: on expiry resend, back off RTO ×2 (capped, §2.5)
    /// and restart the timer. deviates from RFC 6582 §3.2 step 4 (recover =
    /// the highest sequence number sent): recovery just ends.
    pub fn poll_into(&mut self, now: Instant, out: &mut Vec<PacketBuf>) {
        if self.timer.is_some_and(|t| now >= t) && !self.q.is_empty() {
            (self.rto_retx, self.dupacks, self.recover) = (self.rto_retx + 1, 0, None);
            self.cc.on_rto(now);
            self.rto = (self.rto * 2).min(MAX_RTO);
            self.retransmit(now, out);
            self.timer = Some(now + self.rto);
        }
        self.emit(now, out);
    }
}
