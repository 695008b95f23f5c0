//! An RLC AM/UM transmitter and receiver written from TS 38.322 over its
//! §7.1 state variables. Every rule cites its section; one the model keeps
//! against the spec is marked `deviates from`. Not modelled: the SN wrap
//! and windows (§7.1), SDU discard (§5.4), head-of-queue times, and a last
//! byte arriving without the packet (it rides that byte's PDU, below).

use std::collections::{BTreeMap, VecDeque};

use l4span::net::PacketBuf;
use l4span::ran::rlc::{Nack, RlcStatus, Sdu, Segment, Sn};
use l4span::sim::{Duration, Instant};

// deviates from §7.3 (configured by RRC): fixed.
const T_POLL_RETRANSMIT: Duration = Duration::from_millis(45);
const T_REASSEMBLY: Duration = Duration::from_millis(50);

fn size(sdu: &Sdu) -> u32 {
    sdu.pkt.wire_len() as u32
}

/// Backlog bytes, SDUs buffered, drops; whether any SDU is unacked, the
/// highest SN submitted, the highest delivered.
pub type Observed = ((usize, usize, u64), (bool, Option<Sn>, Option<Sn>));

#[derive(Default)]
pub struct SpecTx {
    pub am: bool,
    pub capacity: usize,
    pub overhead: usize, // §6.2.2: header bytes per PDU
    /// §5.2.3.1.1: SDUs not yet wholly submitted; SO of the front one.
    buffer: VecDeque<Sdu>,
    so: u32,
    /// §5.3.2: SDUs submitted, not acked; the first is TX_Next_Ack.
    unacked: BTreeMap<Sn, Sdu>,
    retx: VecDeque<(Sn, u32, u32)>, // §5.3.2: (SN, SO, end) to resend
    /// §7.1 TX_Next. deviates from §7.1 (the SN of the next new SDU): one
    /// past the highest SN submitted, as PDCP's SNs are kept (`enqueue`).
    tx_next: Sn,
    delivered: Option<Sn>, // §5.2.3.1.1: the highest indicated delivered
    drops: u64,
    poll_started: Instant,
}

impl SpecTx {
    pub fn observed(&self) -> Observed {
        let queued: usize = self.buffer.iter().map(|s| size(s) as usize).sum();
        let retx: usize = self.retx.iter().map(|r| (r.2 - r.1) as usize).sum();
        let backlog = queued - self.so as usize + retx;
        let (len, unacked) = (self.buffer.len(), !self.unacked.is_empty());
        let sns = (unacked, self.tx_next.checked_sub(1), self.delivered);
        ((backlog, len, self.drops), sns)
    }

    /// §5.2.3.1.1: an SDU from upper layers. deviates from §5.2.3.1.1 and
    /// §5.4 (numbered TX_Next; discarded on PDCP's word): it keeps PDCP's
    /// SN, ascending with holes, and a full buffer of `capacity` SDUs drops
    /// it, a hole an AM receiver waits on forever (ROADMAP item 13).
    pub fn enqueue(&mut self, sdu: Sdu) -> bool {
        if self.buffer.len() < self.capacity {
            self.buffer.push_back(sdu);
            return true;
        }
        self.drops += 1;
        false
    }

    /// A transmission opportunity of `budget` bytes; returns the bytes used.
    /// Each SDU wholly submitted goes to `done` as (SN, size, CU ingress, now).
    pub fn pull(
        &mut self,
        mut budget: usize,
        now: Instant,
        segs: &mut Vec<Segment>,
        done: &mut Vec<(Sn, usize, Instant, Instant)>,
    ) -> usize {
        // §5.3.3.4: at t-PollRetransmit expiry an unacked SDU is resent with
        // a poll (POLL_SN, §5.3.3.2). deviates from §5.3.3.2–4 (started with
        // the poll; expires only with both buffers empty or a stalled window;
        // POLL_SN = TX_Next − 1): started by a STATUS or expiry, read at each
        // opportunity with no retransmission pending; SDU TX_Next_Ack whole.
        let expired = now.saturating_since(self.poll_started) > T_POLL_RETRANSMIT;
        if let Some((&tx_next_ack, sdu)) = self.unacked.first_key_value() {
            if expired && self.retx.is_empty() {
                self.retx.push_back((tx_next_ack, 0, size(sdu)));
                self.poll_started = now;
            }
        }
        let start = budget;
        while budget > self.overhead {
            let room = (budget - self.overhead).min(u32::MAX as usize) as u32;
            // §5.2.3.1.1: retransmissions go ahead of new data.
            let (sdu, offset, len) = if let Some((sn, so, end)) = self.retx.front_mut() {
                let (sdu, from, len) = (self.unacked[sn], *so, (*end - *so).min(room));
                *so += len;
                if *so == *end {
                    self.retx.pop_front();
                }
                (sdu, from, len)
            } else if let Some(&sdu) = self.buffer.front() {
                let (from, len) = (self.so, (size(&sdu) - self.so).min(room));
                self.so += len;
                if self.so == size(&sdu) {
                    self.buffer.pop_front();
                    self.so = 0;
                    done.push((sdu.sn, size(&sdu) as usize, sdu.t_ingress, now));
                    self.tx_next = self.tx_next.max(sdu.sn + 1);
                    // §5.2.3.1.1: AM keeps it for ARQ; UM (§5.2.2.1) does not.
                    if self.am {
                        self.unacked.insert(sdu.sn, sdu);
                    }
                }
                (sdu, from, len)
            } else {
                break;
            };
            // deviates from §6.2.2 (the PDUs' bytes are the SDU): the packet
            // rides the PDU with the SDU's last byte.
            let (sn, sdu_size) = (sdu.sn, size(&sdu));
            let payload = (offset + len == sdu_size).then_some(sdu.pkt);
            segs.push(Segment {
                sn,
                offset,
                len,
                sdu_size,
                payload,
            });
            budget -= len as usize + self.overhead;
        }
        start - budget
    }

    /// §5.3.2: a STATUS PDU; returns how many SDUs it newly acknowledged.
    pub fn on_status(&mut self, st: &RlcStatus, now: Instant) -> usize {
        // §5.3.3.3: a STATUS reporting POLL_SN stops t-PollRetransmit.
        // deviates from §5.3.3.3: any STATUS restarts it.
        self.poll_started = now;
        // deviates from §6.2.3.8 (ACK_SN acks the SNs below it not
        // NACKed): it acks the SNs below it; NACK_SNs lie at or above it.
        let later = self.unacked.split_off(&st.ack_sn);
        let acked = std::mem::replace(&mut self.unacked, later);
        // §5.2.3.1.1: delivery is indicated to upper layers.
        self.delivered = self.delivered.max(acked.keys().next_back().copied());
        // deviates from §5.3.2 (TX_Next_Ack ≤ NACK_SN < TX_Next): a NACK of
        // an SN not held (acked, never sent, a hole) is ignored.
        for n in st.nacks.iter().filter(|n| self.unacked.contains_key(&n.sn)) {
            let size = size(&self.unacked[&n.sn]);
            // §6.2.3.12–13: SOstart..SOend. deviates from §6.2.3.11–13 (no
            // SO fields for a whole SDU; SOend 0xFFFF to its end): (0,
            // u32::MAX) is the whole SDU, and a range clamps to it.
            let (from, to) = (n.from.min(size), n.to.min(size));
            // deviates from §5.3.2 (every NACK is considered): an empty
            // range, or one already pending as it is, is skipped.
            if from < to && !self.retx.contains(&(n.sn, from, to)) {
                self.retx.push_back((n.sn, from, to));
            }
        }
        self.retx.retain(|r| self.unacked.contains_key(&r.0));
        acked.len()
    }

    /// deviates from §5.1.2 (discard all SDUs, stop all timers): the unacked
    /// SDUs, then the buffer (a part-sent SDU whole), are lifted out in SN
    /// order for PDCP to forward (TS 38.300 §9.2.3.2); TX_Next returns to
    /// 0 (§7.1) while t-PollRetransmit and the counters carry on.
    pub fn drain(&mut self) -> Vec<Sdu> {
        (self.so, self.tx_next) = (0, 0);
        self.retx.clear();
        let unacked = std::mem::take(&mut self.unacked);
        unacked.into_values().chain(self.buffer.drain(..)).collect()
    }

    /// A UE's re-establishment (TS 38.323 §5.1.2): all back, past `capacity`.
    pub fn requeue(&mut self) {
        let sdus = self.drain();
        self.buffer.extend(sdus);
    }
}

/// §5.3.4: the byte ranges of an SDU still missing, in SO order, from the
/// segments of it received.
fn missing(segs: &[Segment]) -> Vec<(u32, u32)> {
    let size = segs[0].sdu_size;
    let mut have: Vec<_> = segs.iter().map(|s| (s.offset, s.offset + s.len)).collect();
    have.push((size, size)); // closes a gap up to the end
    have.sort_unstable();
    let (mut gaps, mut so) = (Vec::new(), 0);
    for (from, to) in have {
        if from > so {
            gaps.push((so, from));
        }
        so = so.max(to);
    }
    gaps
}

#[derive(Default)]
pub struct SpecRx {
    pub am: bool,
    /// §5.2.3.2.2: the reception buffer, SNs ≥ RX_Next: when each SDU's
    /// first segment came, and its segments.
    buf: BTreeMap<Sn, (Instant, Vec<Segment>)>,
    /// §7.1 RX_Next: the first SN not delivered. deviates from §5.2.2.2.3
    /// and §5.2.3.2.3 (an SDU goes up once reassembled): SDUs go up in SN
    /// order, PDCP's t-Reordering folded in.
    pub rx_next: Sn,
    rx_next_highest: Sn, // §7.1: one past the highest SN received
    pub period: Duration,
    prohibit_started: Instant,
    triggered: bool, // §5.3.4: a STATUS report is triggered
    pub skipped: u64,
}

impl SpecRx {
    /// §5.2.3.2.2: a segment arrives; the SDUs then in order go to `out`.
    pub fn on_segment(&mut self, s: Segment, now: Instant, out: &mut Vec<(Sn, PacketBuf)>) {
        // §5.2.3.2.2: below RX_Next it is a duplicate, discarded.
        if s.sn < self.rx_next {
            return;
        }
        // §5.2.3.2.3: RX_Next_Highest follows the highest SN received.
        self.rx_next_highest = self.rx_next_highest.max(s.sn + 1);
        // deviates from §5.3.4 (a poll or t-Reassembly triggers a STATUS):
        // any segment received does.
        self.triggered = true;
        self.buf.entry(s.sn).or_insert((now, Vec::new())).1.push(s);
        self.deliver(out);
    }

    /// UM t-Reassembly. deviates from §5.2.2.2.4 (moves RX_Next_Reassembly
    /// past every SN not reassembled): it runs from each SDU's first segment;
    /// when the oldest SDU held is that old, SN RX_Next is skipped, what
    /// arrived of it discarded and counted. (AM: see `status_due`.)
    pub fn poll(&mut self, now: Instant, out: &mut Vec<(Sn, PacketBuf)>) {
        let expired = |(first, _): &(Instant, _)| now.saturating_since(*first) > T_REASSEMBLY;
        while !self.am && self.buf.values().next().is_some_and(expired) {
            self.skipped += u64::from(self.buf.remove(&self.rx_next).is_some());
            self.rx_next += 1;
            self.deliver(out);
        }
    }

    /// §5.2.3.2.3: RX_Next moves past each complete SDU, delivered in order.
    fn deliver(&mut self, out: &mut Vec<(Sn, PacketBuf)>) {
        while let Some((_, segs)) = self.buf.get(&self.rx_next) {
            if !missing(segs).is_empty() {
                break;
            }
            let pkt = segs.iter().rev().find_map(|s| s.payload);
            out.push((self.rx_next, pkt.expect("rides the last byte")));
            self.buf.remove(&self.rx_next);
            self.rx_next += 1;
        }
    }

    /// deviates from §5.1.2 (discard all, reset the state): partial SDUs
    /// go; RX_Next and complete SDUs stay (PDCP's reordering buffer,
    /// TS 38.323 §5.1.2), and a STATUS is triggered.
    pub fn reestablish(&mut self) {
        self.buf.retain(|_, (_, segs)| missing(segs).is_empty());
        self.triggered = true;
    }

    /// §5.3.4: t-StatusProhibit, started as a STATUS goes out, holds the
    /// next. deviates from §5.2.3.2.4 (t-Reassembly expiry triggers one):
    /// the two timers are one cadence; a STATUS is due a `period` after the
    /// last while one is triggered or an SN below RX_Next_Highest is missing.
    pub fn status_due(&self, now: Instant) -> bool {
        self.am
            && (self.triggered || self.rx_next_highest > self.rx_next)
            && now.saturating_since(self.prohibit_started) >= self.period
    }

    /// §5.3.4: the STATUS PDU. deviates from §5.2.3.2.4 and §5.3.4 (ACK_SN =
    /// RX_Highest_Status, set at t-Reassembly expiry): RX_Highest_Status is
    /// RX_Next_Highest, ACK_SN is RX_Next, and each SN between is NACKed by
    /// its missing bytes, or as (0, u32::MAX) if none arrived.
    pub fn make_status(&mut self, now: Instant) -> Option<RlcStatus> {
        if !self.status_due(now) {
            return None;
        }
        (self.prohibit_started, self.triggered) = (now, false);
        let (ack_sn, rx_highest_status) = (self.rx_next, self.rx_next_highest);
        let mut nacks = Vec::new();
        for sn in ack_sn..rx_highest_status {
            let whole = vec![(0, u32::MAX)];
            let gaps = self.buf.get(&sn).map_or(whole, |(_, segs)| missing(segs));
            nacks.extend(gaps.into_iter().map(|(from, to)| Nack { sn, from, to }));
        }
        Some(RlcStatus { ack_sn, nacks })
    }
}
