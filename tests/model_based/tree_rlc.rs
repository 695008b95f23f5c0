//! The RLC entities as they were while the unacknowledged store and the
//! reassembly window were `BTreeMap`s keyed by SN: the same state
//! machines as `l4span::ran::rlc::{RlcTx, RlcRx}` (minus their buffer
//! pools, which no output depends on), kept as the reference the
//! ring-backed entities are compared to.

use std::collections::{BTreeMap, VecDeque};

use l4span::net::PacketBuf;
use l4span::ran::config::RlcMode;
use l4span::ran::rlc::{ByteRange, Nack, RlcStatus, Sdu, Segment, Sn, TxRecord};
use l4span::sim::{Duration, Instant};

struct SduTx {
    sn: Sn,
    pkt: PacketBuf,
    size: u32,
    t_ingress: Instant,
    t_head: Option<Instant>,
    t_first_tx: Option<Instant>,
    txed: u32,
}

struct UnackedSdu {
    pkt: PacketBuf,
    size: u32,
    t_ingress: Instant,
}

#[derive(Clone, Copy, PartialEq, Eq)]
struct RetxSeg {
    sn: Sn,
    from: u32,
    to: u32,
}

const T_POLL_RETRANSMIT: Duration = Duration::from_millis(45);

pub struct TreeRlcTx {
    mode: RlcMode,
    capacity_sdus: usize,
    segment_overhead: usize,
    queue: VecDeque<SduTx>,
    retx: VecDeque<RetxSeg>,
    unacked: BTreeMap<Sn, UnackedSdu>,
    queued_bytes: usize,
    pub highest_txed: Option<Sn>,
    pub highest_delivered: Option<Sn>,
    pub drops: u64,
    last_status_at: Instant,
    last_poll_retx_at: Instant,
}

impl TreeRlcTx {
    pub fn new(mode: RlcMode, capacity_sdus: usize, segment_overhead: usize) -> TreeRlcTx {
        TreeRlcTx {
            mode,
            capacity_sdus,
            segment_overhead,
            queue: VecDeque::new(),
            retx: VecDeque::new(),
            unacked: BTreeMap::new(),
            queued_bytes: 0,
            highest_txed: None,
            highest_delivered: None,
            drops: 0,
            last_status_at: Instant::ZERO,
            last_poll_retx_at: Instant::ZERO,
        }
    }

    pub fn enqueue(&mut self, sn: Sn, pkt: PacketBuf, t_ingress: Instant, now: Instant) -> bool {
        if self.queue.len() >= self.capacity_sdus {
            self.drops += 1;
            return false;
        }
        self.push_sdu(sn, pkt, t_ingress, now);
        true
    }

    fn push_sdu(&mut self, sn: Sn, pkt: PacketBuf, t_ingress: Instant, now: Instant) {
        let size = u32::try_from(pkt.wire_len()).expect("SDU exceeds the u32 offset space");
        let head = self.queue.is_empty() && self.retx.is_empty();
        self.queued_bytes += size as usize;
        self.queue.push_back(SduTx {
            sn,
            pkt,
            size,
            t_ingress,
            t_head: if head { Some(now) } else { None },
            t_first_tx: None,
            txed: 0,
        });
    }

    pub fn reestablish_requeue(&mut self, now: Instant) {
        for f in self.drain_for_handover() {
            self.push_sdu(f.sn, f.pkt, f.t_ingress, now);
        }
    }

    pub fn backlog_bytes(&self) -> usize {
        let retx: usize = self.retx.iter().map(|r| (r.to - r.from) as usize).sum();
        self.queued_bytes + retx
    }

    pub fn queue_len_sdus(&self) -> usize {
        self.queue.len()
    }

    pub fn has_unacked(&self) -> bool {
        !self.unacked.is_empty()
    }

    pub fn pull(
        &mut self,
        mut budget: usize,
        now: Instant,
        txed: &mut Vec<TxRecord>,
        segments: &mut Vec<Segment>,
    ) -> usize {
        let mut consumed = 0usize;
        let oh = self.segment_overhead;
        if self.mode == RlcMode::Am && !self.unacked.is_empty() && self.retx.is_empty() {
            let reference = self.last_status_at.max(self.last_poll_retx_at);
            if now.saturating_since(reference) > T_POLL_RETRANSMIT {
                let (&sn, sdu) = self.unacked.iter().next().expect("non-empty");
                self.retx.push_back(RetxSeg {
                    sn,
                    from: 0,
                    to: sdu.size,
                });
                self.last_poll_retx_at = now;
            }
        }
        loop {
            if budget <= oh {
                break;
            }
            let avail = budget - oh;
            if let Some(r) = self.retx.front_mut() {
                let want = (r.to - r.from) as usize;
                let take = want.min(avail) as u32;
                let sdu = self
                    .unacked
                    .get(&r.sn)
                    .expect("retx range for SDU not in unacked store");
                let seg = Segment {
                    sn: r.sn,
                    offset: r.from,
                    len: take,
                    sdu_size: sdu.size,
                    payload: (r.from + take == sdu.size).then_some(sdu.pkt),
                };
                budget -= take as usize + oh;
                consumed += take as usize + oh;
                r.from += take;
                if r.from >= r.to {
                    self.retx.pop_front();
                }
                segments.push(seg);
                continue;
            }
            let Some(s) = self.queue.front_mut() else {
                break;
            };
            s.t_head.get_or_insert(now);
            s.t_first_tx.get_or_insert(now);
            let remaining = (s.size - s.txed) as usize;
            let take = remaining.min(avail) as u32;
            let last = s.txed + take == s.size;
            let seg = Segment {
                sn: s.sn,
                offset: s.txed,
                len: take,
                sdu_size: s.size,
                payload: last.then_some(s.pkt),
            };
            s.txed += take;
            budget -= take as usize + oh;
            consumed += take as usize + oh;
            self.queued_bytes -= take as usize;
            segments.push(seg);
            if last {
                let done = self.queue.pop_front().expect("front exists");
                txed.push(TxRecord {
                    sn: done.sn,
                    size: done.size as usize,
                    t_ingress: done.t_ingress,
                    t_head: done.t_head.unwrap_or(now),
                    t_first_tx: done.t_first_tx.unwrap_or(now),
                    t_txed: now,
                });
                self.highest_txed = Some(self.highest_txed.map_or(done.sn, |h| h.max(done.sn)));
                if self.mode == RlcMode::Am {
                    self.unacked.insert(
                        done.sn,
                        UnackedSdu {
                            pkt: done.pkt,
                            size: done.size,
                            t_ingress: done.t_ingress,
                        },
                    );
                }
                if let Some(next) = self.queue.front_mut() {
                    next.t_head.get_or_insert(now);
                }
            }
        }
        consumed
    }

    pub fn drain_for_handover(&mut self) -> Vec<Sdu> {
        let mut out = Vec::new();
        for (sn, sdu) in std::mem::take(&mut self.unacked) {
            out.push(Sdu {
                sn,
                pkt: sdu.pkt,
                t_ingress: sdu.t_ingress,
            });
        }
        for s in self.queue.drain(..) {
            out.push(Sdu {
                sn: s.sn,
                pkt: s.pkt,
                t_ingress: s.t_ingress,
            });
        }
        self.retx.clear();
        self.queued_bytes = 0;
        self.highest_txed = None;
        out
    }

    pub fn on_status(&mut self, status: &RlcStatus, now: Instant) -> usize {
        assert_eq!(self.mode, RlcMode::Am, "status report in UM");
        self.last_status_at = now;
        let mut acked = 0;
        while let Some(e) = self.unacked.first_entry() {
            let sn = *e.key();
            if sn >= status.ack_sn {
                break;
            }
            e.remove();
            acked += 1;
            self.highest_delivered = Some(self.highest_delivered.map_or(sn, |h| h.max(sn)));
        }
        for n in &status.nacks {
            let Some(sdu) = self.unacked.get(&n.sn) else {
                continue;
            };
            let (from, to) = if sdu.size == 0 {
                (0, 0)
            } else {
                let from = n.from.min(sdu.size);
                let to = n.to.min(sdu.size);
                if from >= to {
                    continue;
                }
                (from, to)
            };
            let seg = RetxSeg { sn: n.sn, from, to };
            if !self.retx.contains(&seg) {
                self.retx.push_back(seg);
            }
        }
        self.retx.retain(|r| self.unacked.contains_key(&r.sn));
        acked
    }
}

struct RxEntry {
    ranges: Vec<ByteRange>,
    size: u32,
    payload: Option<PacketBuf>,
    t_first: Instant,
}

impl RxEntry {
    fn add_range(&mut self, from: u32, to: u32) {
        self.ranges.push((from, to));
        self.ranges.sort_unstable();
        let mut w = 0;
        for i in 1..self.ranges.len() {
            let (f, t) = self.ranges[i];
            if f <= self.ranges[w].1 {
                self.ranges[w].1 = self.ranges[w].1.max(t);
            } else {
                w += 1;
                self.ranges[w] = (f, t);
            }
        }
        self.ranges.truncate(w + 1);
    }

    fn complete(&self) -> bool {
        self.ranges == [(0, self.size)] && self.payload.is_some()
    }

    fn for_each_missing(&self, mut gap: impl FnMut(u32, u32)) {
        let mut cursor = 0u32;
        let mut any = false;
        for &(f, t) in &self.ranges {
            if f > cursor {
                gap(cursor, f);
                any = true;
            }
            cursor = cursor.max(t);
        }
        if cursor < self.size {
            gap(cursor, self.size);
            any = true;
        }
        if !any && self.payload.is_none() {
            gap(self.size.saturating_sub(1), self.size);
        }
    }
}

/// `(sn, packet)` of a delivered SDU.
pub type Delivered = (Sn, PacketBuf);

pub struct TreeRlcRx {
    mode: RlcMode,
    entries: BTreeMap<Sn, RxEntry>,
    pub next_expected: Sn,
    highest_seen: Option<Sn>,
    reassembly_timeout: Duration,
    status_period: Duration,
    last_status: Instant,
    dirty: bool,
    pub skipped: u64,
}

impl TreeRlcRx {
    pub fn new(mode: RlcMode, status_period: Duration) -> TreeRlcRx {
        TreeRlcRx {
            mode,
            entries: BTreeMap::new(),
            next_expected: 0,
            highest_seen: None,
            reassembly_timeout: Duration::from_millis(50),
            status_period,
            last_status: Instant::ZERO,
            dirty: false,
            skipped: 0,
        }
    }

    pub fn on_segment(&mut self, seg: Segment, now: Instant, out: &mut Vec<Delivered>) {
        if seg.sn < self.next_expected {
            return;
        }
        self.highest_seen = Some(self.highest_seen.map_or(seg.sn, |h| h.max(seg.sn)));
        self.dirty = true;
        let entry = self.entries.entry(seg.sn).or_insert_with(|| RxEntry {
            ranges: Vec::new(),
            size: seg.sdu_size,
            payload: None,
            t_first: now,
        });
        entry.add_range(seg.offset, seg.offset + seg.len);
        if let Some(p) = seg.payload {
            entry.payload = Some(p);
        }
        self.deliver_in_order(out)
    }

    fn deliver_in_order(&mut self, out: &mut Vec<Delivered>) {
        while let Some(e) = self.entries.get(&self.next_expected) {
            if !e.complete() {
                break;
            }
            let sn = self.next_expected;
            let mut e = self.entries.remove(&sn).expect("present");
            out.push((sn, e.payload.take().expect("complete implies payload")));
            self.next_expected += 1;
        }
    }

    pub fn poll(&mut self, now: Instant, out: &mut Vec<Delivered>) {
        if self.mode == RlcMode::Am {
            return;
        }
        loop {
            let stuck = match self.entries.get(&self.next_expected) {
                Some(e) if !e.complete() => {
                    now.saturating_since(e.t_first) > self.reassembly_timeout
                }
                Some(_) => false,
                None => match self.entries.range(self.next_expected..).next() {
                    Some((_, e)) => now.saturating_since(e.t_first) > self.reassembly_timeout,
                    None => false,
                },
            };
            if !stuck {
                break;
            }
            if self.entries.remove(&self.next_expected).is_some() {
                self.skipped += 1;
            }
            self.next_expected += 1;
            self.deliver_in_order(out);
        }
    }

    pub fn reestablish(&mut self) {
        self.entries.retain(|_, e| e.complete());
        self.dirty = true;
    }

    pub fn status_due(&self, now: Instant) -> bool {
        let outstanding = self.highest_seen.is_some_and(|h| h >= self.next_expected);
        self.mode == RlcMode::Am
            && (self.dirty || outstanding)
            && now.saturating_since(self.last_status) >= self.status_period
    }

    pub fn make_status(&mut self, now: Instant) -> Option<RlcStatus> {
        if !self.status_due(now) {
            return None;
        }
        self.last_status = now;
        self.dirty = false;
        let mut nacks = Vec::new();
        if let Some(high) = self.highest_seen {
            for sn in self.next_expected..=high {
                match self.entries.get(&sn) {
                    Some(e) => e.for_each_missing(|from, to| nacks.push(Nack { sn, from, to })),
                    None => nacks.push(Nack {
                        sn,
                        from: 0,
                        to: u32::MAX,
                    }),
                }
            }
        }
        Some(RlcStatus {
            ack_sn: self.next_expected,
            nacks,
        })
    }
}
