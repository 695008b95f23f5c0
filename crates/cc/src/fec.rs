//! Sliding-window FEC/ARQ media endpoint: the loss-*repairing* sender
//! the L4Span evaluation lacks (every other transport here *defers*
//! under congestion; this one spends rate on redundancy instead).
//!
//! The wire protocol is systematic sliding-window FEC in the RLNC
//! style: source packets go out unmodified (one sequence number each),
//! and after every [`REPAIR_EVERY`] source packets the sender emits one
//! repair packet covering the last [`FEC_WINDOW`] source sequences — a
//! parity symbol that can reconstruct exactly one missing packet of its
//! coverage window. Deeper gaps fall back to NACK-driven ARQ: the
//! receiver NACKs sequences the repair stream could not recover, and
//! the sender retransmits them *unless the frame deadline has passed*,
//! in which case the sequence is abandoned (media frames are useless
//! late — RFC 8854's rationale for bounding retransmission).
//!
//! Rate control is NADA (RFC 8698, [`NadaCore`]) — one core per bonded
//! leg, coupled RFC 8382-style when the harness' shared-bottleneck
//! detector says both legs sit behind the same queue.
//!
//! The classification bookkeeping lives in PacketBuf-free cores
//! ([`FecSenderCore`], [`FecReceiverCore`]) so the conservation
//! property — every offered sequence ends up **exactly one** of
//! delivered / repaired / abandoned, and nothing is delivered twice —
//! is directly testable (the `fec_conservation` proptest).

use std::collections::VecDeque;

use crate::cc::{FeedbackGate, RttProbe};
use crate::nada::NadaCore;
use l4span_net::{ipv4::unwrap_ident, Ecn, PacketBuf};
use l4span_sim::{Duration, Instant};

/// Source packets between two repair packets (25% repair overhead).
pub const REPAIR_EVERY: u64 = 4;
/// Source sequences one repair packet covers (and can repair one of).
pub const FEC_WINDOW: u64 = 16;
/// Payload bytes of a source packet (fixed-size symbols).
pub const MTU_PAYLOAD: usize = 1200;
/// Payload bytes of a repair packet — also the wire discriminator
/// separating repair from source packets at the receiver.
pub const REPAIR_PAYLOAD: usize = 1196;
/// How long a gap must stand before it is NACKed (reorder grace).
const NACK_GRACE: Duration = Duration::from_millis(2);
/// Minimum spacing between NACKs of the same sequence.
const RENACK_INTERVAL: Duration = Duration::from_millis(25);
/// Default frame deadline: past this, repairs are pointless.
pub const DEFAULT_DEADLINE: Duration = Duration::from_millis(100);
/// Packets emitted per poll at most (post-idle burst bound).
const BURST_CAP: usize = 128;

/// What one arriving source/retransmitted packet amounted to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// First sight of this sequence: delivered to the app.
    Fresh,
    /// Already delivered/repaired (an ARQ copy raced the original) or
    /// already abandoned: dropped, **not** re-delivered.
    Duplicate,
}

/// The sender's verdict on one NACKed sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NackVerdict {
    /// Still inside the frame deadline: retransmit.
    Retx,
    /// Past the deadline (or aged out of the ARQ ledger): abandoned.
    Abandon,
}

/// Sender-side codec state: sequence assignment, the repair cadence,
/// and the deadline-aware ARQ ledger.
#[derive(Debug)]
pub struct FecSenderCore {
    next_seq: u64,
    since_repair: u64,
    /// `(seq, capture time)` of in-ledger sources, oldest first.
    ledger: VecDeque<(u64, Instant)>,
    deadline: Duration,
    /// Source sequences offered so far.
    pub offered: u64,
    /// ARQ retransmissions issued.
    pub retx: u64,
    /// NACKed sequences given up on (deadline passed).
    pub abandoned: u64,
    /// Repair packets emitted.
    pub repairs: u64,
}

impl FecSenderCore {
    /// An empty codec with the given frame deadline.
    pub fn new(deadline: Duration) -> FecSenderCore {
        FecSenderCore {
            next_seq: 0,
            since_repair: 0,
            ledger: VecDeque::new(),
            deadline,
            offered: 0,
            retx: 0,
            abandoned: 0,
            repairs: 0,
        }
    }

    /// Assign the next source sequence, captured at `now`.
    pub fn source(&mut self, now: Instant) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.offered += 1;
        self.since_repair += 1;
        self.ledger.push_back((seq, now));
        // Ledger entries past the deadline can never be retransmitted
        // again — pruning here bounds the ledger to one deadline's
        // worth of sources.
        while self
            .ledger
            .front()
            .is_some_and(|&(_, cap)| now.saturating_since(cap) > self.deadline)
        {
            self.ledger.pop_front();
        }
        seq
    }

    /// After every [`REPAIR_EVERY`] sources: the coverage `[base, end)`
    /// of the repair packet now due, if one is.
    pub fn repair_due(&mut self) -> Option<(u64, u64)> {
        if self.since_repair < REPAIR_EVERY {
            return None;
        }
        self.since_repair = 0;
        self.repairs += 1;
        let end = self.next_seq;
        Some((end.saturating_sub(FEC_WINDOW), end))
    }

    /// Judge one NACK: retransmit while the frame deadline holds,
    /// abandon after.
    pub fn on_nack(&mut self, seq: u64, now: Instant) -> NackVerdict {
        let capture = self
            .ledger
            .binary_search_by_key(&seq, |&(s, _)| s)
            .ok()
            .map(|i| self.ledger[i].1);
        match capture {
            Some(cap) if now.saturating_since(cap) <= self.deadline => {
                self.retx += 1;
                NackVerdict::Retx
            }
            _ => {
                self.abandoned += 1;
                NackVerdict::Abandon
            }
        }
    }
}

/// Per-sequence receiver state inside the classification window.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Missing {
        detected: Instant,
        last_nack: Option<Instant>,
    },
    Delivered,
    Repaired,
    Abandoned,
}

/// Receiver-side codec state: gap tracking, single-loss repair,
/// NACK scheduling, and the authoritative delivered / repaired /
/// abandoned classification (each sequence counted exactly once).
#[derive(Debug)]
pub struct FecReceiverCore {
    /// Every sequence below `base` is classified.
    base: u64,
    /// States of `[base, base + slots.len())`.
    slots: VecDeque<Slot>,
    /// Give up on a missing sequence after this long (the receiver's
    /// view of the sender's frame deadline, plus NACK slack).
    expiry: Duration,
    /// Sequences delivered to the app directly (source or ARQ copy).
    pub delivered: u64,
    /// Sequences reconstructed from a repair packet.
    pub repaired: u64,
    /// Sequences given up on.
    pub abandoned: u64,
    /// Copies dropped by the dedup gate.
    pub duplicates: u64,
    /// Repair packets that arrived with nothing to do.
    pub repairs_unused: u64,
}

impl FecReceiverCore {
    /// An empty receiver whose patience matches the sender `deadline`.
    pub fn new(deadline: Duration) -> FecReceiverCore {
        FecReceiverCore {
            base: 0,
            slots: VecDeque::new(),
            expiry: deadline + RENACK_INTERVAL,
            delivered: 0,
            repaired: 0,
            abandoned: 0,
            duplicates: 0,
            repairs_unused: 0,
        }
    }

    /// Highest sequence the receiver knows exists (exclusive).
    pub fn high(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    fn extend_to(&mut self, end: u64, now: Instant) {
        while self.high() < end {
            self.slots.push_back(Slot::Missing {
                detected: now,
                last_nack: None,
            });
        }
    }

    fn classify(&mut self, seq: u64, to: Slot) {
        let i = (seq - self.base) as usize;
        match to {
            Slot::Delivered => self.delivered += 1,
            Slot::Repaired => self.repaired += 1,
            Slot::Abandoned => self.abandoned += 1,
            Slot::Missing { .. } => unreachable!("classify() only finalizes"),
        }
        self.slots[i] = to;
        self.pop_classified_prefix();
    }

    /// Pop the classified prefix: `base` only ever moves forward.
    fn pop_classified_prefix(&mut self) {
        while matches!(
            self.slots.front(),
            Some(Slot::Delivered | Slot::Repaired | Slot::Abandoned)
        ) {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// One source (or retransmitted) packet arrived.
    pub fn on_source(&mut self, seq: u64, now: Instant) -> Arrival {
        if seq < self.base {
            self.duplicates += 1;
            return Arrival::Duplicate;
        }
        self.extend_to(seq + 1, now);
        match self.slots[(seq - self.base) as usize] {
            Slot::Missing { .. } => {
                self.classify(seq, Slot::Delivered);
                Arrival::Fresh
            }
            _ => {
                self.duplicates += 1;
                Arrival::Duplicate
            }
        }
    }

    /// One repair packet covering `[cov_base, cov_end)` arrived: it
    /// reconstructs a single missing sequence, if exactly one is
    /// missing. It also *announces* `cov_end` — sequences the receiver
    /// never saw become visible (and NACKable) gaps.
    pub fn on_repair(&mut self, cov_base: u64, cov_end: u64, now: Instant) -> Option<u64> {
        self.extend_to(cov_end, now);
        let lo = cov_base.max(self.base);
        let mut missing = None;
        let mut n_missing = 0u32;
        for seq in lo..cov_end {
            if matches!(self.slots[(seq - self.base) as usize], Slot::Missing { .. }) {
                n_missing += 1;
                missing = Some(seq);
            }
        }
        if n_missing == 1 {
            let seq = missing.expect("counted one");
            self.classify(seq, Slot::Repaired);
            Some(seq)
        } else {
            self.repairs_unused += 1;
            None
        }
    }

    /// Collect the sequences due a (re-)NACK, oldest first, and expire
    /// gaps that outlived the deadline into `Abandoned`.
    pub fn poll_nacks(&mut self, now: Instant, out: &mut Vec<u64>) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let seq = self.base + i as u64;
            if let Slot::Missing {
                detected,
                last_nack,
            } = slot
            {
                if now.saturating_since(*detected) > self.expiry {
                    *slot = Slot::Abandoned;
                    self.abandoned += 1;
                } else if now.saturating_since(*detected) >= NACK_GRACE
                    && last_nack.is_none_or(|at| now.saturating_since(at) >= RENACK_INTERVAL)
                {
                    *last_nack = Some(now);
                    out.push(seq);
                }
            }
        }
        self.pop_classified_prefix();
    }

    /// Declare the stream over: `offered` sequences exist in total.
    /// Whatever is still missing is abandoned — after this, the
    /// delivered + repaired + abandoned partition is complete.
    pub fn close(&mut self, offered: u64, now: Instant) {
        self.extend_to(offered, now);
        // `classify` pops the classified prefix, so a non-empty deque
        // always has a `Missing` front here.
        while !self.slots.is_empty() {
            let seq = self.base;
            self.classify(seq, Slot::Abandoned);
        }
    }
}

/// Cumulative per-leg receive counters carried in feedback.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FecLegStats {
    /// Packets received on this leg.
    pub packets: u64,
    /// Of those, CE-marked.
    pub ce_packets: u64,
    /// Of those, arrived Not-ECT (mid-path bleaching evidence).
    pub not_ect_packets: u64,
}

/// One receiver feedback report.
#[derive(Debug, Clone, Default)]
pub struct FecFeedback {
    /// Cumulative per-leg counters (leg 1 stays zero on single-leg
    /// flows).
    pub legs: [FecLegStats; 2],
    /// Sequences to retransmit.
    pub nacks: Vec<u64>,
    /// The harness' shared-bottleneck verdict for bonded flows: `true`
    /// couples the sender's per-leg NADA cores (RFC 8382).
    pub coupled: bool,
}

/// The media sender: frame-paced source packets + sliding-window
/// repair, NACK-driven ARQ, one NADA core per leg.
#[derive(Debug)]
pub struct FecMediaSender {
    src_ip: u32,
    dst_ip: u32,
    src_port: u16,
    dst_port: u16,
    core: FecSenderCore,
    legs: Vec<NadaCore>,
    /// Weighted-striping credits (deficit round-robin over leg rates).
    credit: Vec<f64>,
    coupled: bool,
    fps: f64,
    next_frame_at: Instant,
    /// Pending ARQ retransmissions (seq order).
    retx_q: VecDeque<u64>,
    /// Per-leg RTT from sparse probes.
    rtt: Vec<RttProbe>,
    last_fb: [FecLegStats; 2],
}

impl FecMediaSender {
    /// A sender with NADA rate bounds in bytes/sec, `fps` frame
    /// cadence, and `n_legs` bonded legs (1 or 2).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        src_ip: u32,
        dst_ip: u32,
        src_port: u16,
        dst_port: u16,
        min_rate: f64,
        start_rate: f64,
        max_rate: f64,
        fps: f64,
        n_legs: usize,
    ) -> FecMediaSender {
        assert!((1..=2).contains(&n_legs), "one or two legs");
        // Independent legs each run a full NADA core; halve the bounds
        // so the *flow's* rate envelope matches the spec regardless of
        // leg count.
        let div = n_legs as f64;
        FecMediaSender {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            core: FecSenderCore::new(DEFAULT_DEADLINE),
            legs: (0..n_legs)
                .map(|_| NadaCore::new(min_rate / div, start_rate / div, max_rate / div))
                .collect(),
            credit: vec![0.0; n_legs],
            coupled: false,
            fps,
            next_frame_at: Instant::ZERO,
            retx_q: VecDeque::new(),
            rtt: (0..n_legs).map(|_| RttProbe::default()).collect(),
            last_fb: [FecLegStats::default(); 2],
        }
    }

    /// The flow's total target rate in bytes/sec: the sum of the leg
    /// rates when independent; one flow's worth — the better leg's
    /// rate, split across both — when the legs share a bottleneck.
    pub fn total_rate(&self) -> f64 {
        if self.coupled && self.legs.len() == 2 {
            self.legs[0].rate().max(self.legs[1].rate())
        } else {
            self.legs.iter().map(|l| l.rate()).sum()
        }
    }

    /// Per-leg striping shares (sum to 1; a single-leg sender leaves
    /// the second entry zero).
    fn shares(&self) -> [f64; 2] {
        if self.coupled && self.legs.len() == 2 {
            return [0.5, 0.5];
        }
        let total: f64 = self.legs.iter().map(|l| l.rate()).sum();
        let mut shares = [0.0; 2];
        for (s, l) in shares.iter_mut().zip(&self.legs) {
            *s = l.rate() / total.max(1.0);
        }
        shares
    }

    /// The codec / ARQ ledger (diagnostics and tests).
    pub fn codec(&self) -> &FecSenderCore {
        &self.core
    }

    /// The RFC 8382 coupling state last echoed by the receiver.
    pub fn coupled(&self) -> bool {
        self.coupled
    }

    /// Smoothed RTT of `leg`, if feedback produced one yet.
    pub fn leg_srtt(&self, leg: usize) -> Option<Duration> {
        self.rtt.get(leg).and_then(|p| p.srtt)
    }

    /// Stop sending (flow teardown).
    pub fn stop(&mut self) {
        self.next_frame_at = Instant::MAX;
        self.retx_q.clear();
    }

    /// When the sender next has something to emit.
    pub fn next_activity(&self) -> Instant {
        if self.retx_q.is_empty() {
            self.next_frame_at
        } else {
            Instant::ZERO
        }
    }

    fn pick_leg(&mut self) -> u8 {
        let shares = self.shares();
        let mut best = 0;
        for i in 1..self.credit.len() {
            if self.credit[i] > self.credit[best] {
                best = i;
            }
        }
        for (c, s) in self.credit.iter_mut().zip(&shares) {
            *c += s;
        }
        self.credit[best] -= 1.0;
        best as u8
    }

    fn push(
        &mut self,
        seq_ident: u16,
        payload: usize,
        now: Instant,
        out: &mut Vec<(u8, PacketBuf)>,
    ) {
        let leg = self.pick_leg();
        out.push((
            leg,
            PacketBuf::udp(
                self.src_ip,
                self.dst_ip,
                Ecn::Ect1,
                seq_ident,
                self.src_port,
                self.dst_port,
                payload,
            ),
        ));
        self.rtt[leg as usize].on_send(now);
    }

    /// Emit everything due: pending retransmissions first (they race a
    /// deadline), then frames under the NADA rate, with repair packets
    /// on the [`REPAIR_EVERY`] cadence.
    pub fn poll_into(&mut self, now: Instant, out: &mut Vec<(u8, PacketBuf)>) {
        let mut emitted = 0;
        while let Some(seq) = self.retx_q.pop_front() {
            self.push(seq as u16, MTU_PAYLOAD, now, out);
            emitted += 1;
            if emitted >= BURST_CAP {
                return;
            }
        }
        while now >= self.next_frame_at {
            let frame_bytes = (self.total_rate() / self.fps).max(MTU_PAYLOAD as f64);
            let n_pkts = (frame_bytes / MTU_PAYLOAD as f64).ceil() as usize;
            for _ in 0..n_pkts {
                let seq = self.core.source(now);
                self.push(seq as u16, MTU_PAYLOAD, now, out);
                if let Some((_base, end)) = self.core.repair_due() {
                    // Repair ident = coverage end; the receiver derives
                    // the base from the shared FEC_WINDOW constant.
                    self.push(end as u16, REPAIR_PAYLOAD, now, out);
                }
                emitted += 1;
            }
            self.next_frame_at =
                self.next_frame_at.max(now) + Duration::from_secs_f64(1.0 / self.fps);
            if emitted >= BURST_CAP {
                break;
            }
        }
    }

    /// Apply one receiver feedback report.
    pub fn on_feedback(&mut self, fb: &FecFeedback, now: Instant) {
        self.coupled = fb.coupled && self.legs.len() == 2;
        for li in 0..self.legs.len() {
            let cur = fb.legs[li];
            let prev = self.last_fb[li];
            self.rtt[li].on_report(cur.packets, now);
            let pkts = cur.packets.saturating_sub(prev.packets);
            let ce = cur.ce_packets.saturating_sub(prev.ce_packets);
            if pkts > 0 {
                let srtt = self.rtt[li].srtt.unwrap_or(Duration::from_millis(40));
                self.legs[li].on_sample(
                    now,
                    pkts * MTU_PAYLOAD as u64,
                    ce * MTU_PAYLOAD as u64,
                    srtt,
                );
            }
            self.last_fb[li] = cur;
        }
        for &seq in &fb.nacks {
            if self.core.on_nack(seq, now) == NackVerdict::Retx {
                self.retx_q.push_back(seq);
            }
        }
    }
}

/// NACK buffers a [`FecMediaReceiver`] keeps for reuse.
const NACK_POOL: usize = 4;

/// The media receiver (server side): classification, per-leg counters,
/// NACK + coupling feedback.
#[derive(Debug)]
pub struct FecMediaReceiver {
    src_ip: u32,
    dst_ip: u32,
    src_port: u16,
    dst_port: u16,
    core: FecReceiverCore,
    legs: [FecLegStats; 2],
    coupled: bool,
    gate: FeedbackGate,
    fb_ident: u16,
    /// NACK buffers of consumed reports ([`FecMediaReceiver::recycle`]),
    /// at most [`NACK_POOL`]: several reports are in flight at once, and
    /// each takes a grown buffer from here instead of starting empty.
    spare_nacks: Vec<Vec<u64>>,
    /// Payload bytes received (diagnostics).
    pub received_bytes: u64,
}

impl FecMediaReceiver {
    /// A receiver mirroring the sender's addressing.
    pub fn new(src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16) -> FecMediaReceiver {
        FecMediaReceiver {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            core: FecReceiverCore::new(DEFAULT_DEADLINE),
            legs: [FecLegStats::default(); 2],
            coupled: false,
            gate: FeedbackGate::new(),
            fb_ident: 0,
            spare_nacks: Vec::new(),
            received_bytes: 0,
        }
    }

    /// A report this receiver emitted has been consumed by the sender:
    /// its NACK buffer serves the next report. Optional — a dropped
    /// report only costs the next NACKing one an allocation.
    pub fn recycle(&mut self, fb: FecFeedback) {
        let mut nacks = fb.nacks;
        // A report that never NACKed comes back without a buffer worth
        // keeping; a full pool already covers the reports in flight.
        if nacks.capacity() > 0 && self.spare_nacks.len() < NACK_POOL {
            nacks.clear();
            self.spare_nacks.push(nacks);
        }
    }

    /// The classification core (metrics harvest and tests).
    pub fn codec(&self) -> &FecReceiverCore {
        &self.core
    }

    /// Declare the stream over: abandon whatever is still outstanding
    /// so delivered + repaired + abandoned sums to `offered` (see
    /// [`FecReceiverCore::close`]).
    pub fn close(&mut self, offered: u64, now: Instant) {
        self.core.close(offered, now);
    }

    /// Inject the harness' shared-bottleneck verdict; echoed to the
    /// sender in every feedback report.
    pub fn set_coupled(&mut self, coupled: bool) {
        self.coupled = coupled;
    }

    fn emit_feedback(&mut self, now: Instant) -> (PacketBuf, FecFeedback) {
        self.fb_ident = self.fb_ident.wrapping_add(1);
        let mut fb = FecFeedback {
            legs: self.legs,
            nacks: self.spare_nacks.pop().unwrap_or_default(),
            coupled: self.coupled,
        };
        self.core.poll_nacks(now, &mut fb.nacks);
        let pkt = PacketBuf::udp(
            self.src_ip,
            self.dst_ip,
            Ecn::NotEct,
            self.fb_ident,
            self.src_port,
            self.dst_port,
            40,
        );
        (pkt, fb)
    }

    /// Ingest one datagram that arrived on `leg`; maybe emit feedback.
    pub fn on_packet(
        &mut self,
        pkt: &PacketBuf,
        leg: u8,
        now: Instant,
    ) -> Option<(PacketBuf, FecFeedback)> {
        let stats = &mut self.legs[(leg as usize).min(1)];
        stats.packets += 1;
        match pkt.ecn() {
            Ecn::Ce => stats.ce_packets += 1,
            Ecn::NotEct => stats.not_ect_packets += 1,
            _ => {}
        }
        self.received_bytes += pkt.payload_len() as u64;
        let seq = unwrap_ident(pkt.identification(), self.core.high());
        if pkt.payload_len() == REPAIR_PAYLOAD {
            self.core
                .on_repair(seq.saturating_sub(FEC_WINDOW), seq, now);
        } else {
            self.core.on_source(seq, now);
        }
        self.gate.due(now, true).then(|| self.emit_feedback(now))
    }

    /// Timer poll: flush feedback suppressed by the prohibit interval
    /// (keeps NACKs and rate feedback flowing through loss bursts).
    pub fn poll(&mut self, now: Instant) -> Option<(PacketBuf, FecFeedback)> {
        self.gate.due(now, false).then(|| self.emit_feedback(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repair_cadence_and_coverage() {
        let mut s = FecSenderCore::new(DEFAULT_DEADLINE);
        let t = Instant::ZERO;
        for i in 0..REPAIR_EVERY - 1 {
            s.source(t);
            assert!(s.repair_due().is_none(), "no repair before {i}");
        }
        s.source(t);
        assert_eq!(s.repair_due(), Some((0, REPAIR_EVERY)));
        for _ in 0..FEC_WINDOW {
            s.source(t);
        }
        let (base, end) = loop {
            if let Some(c) = s.repair_due() {
                break c;
            }
            s.source(t);
        };
        assert_eq!(end - base, FEC_WINDOW, "coverage saturates at the window");
    }

    #[test]
    fn single_gap_is_repaired_double_gap_is_nacked() {
        let t = Instant::ZERO;
        let mut r = FecReceiverCore::new(DEFAULT_DEADLINE);
        for seq in [0u64, 1, 3] {
            assert_eq!(r.on_source(seq, t), Arrival::Fresh);
        }
        // One missing (2) in [0, 4): the repair reconstructs it.
        assert_eq!(r.on_repair(0, 4, t), Some(2));
        assert_eq!((r.delivered, r.repaired), (3, 1));

        // Two missing (5, 6) in [4, 8): the repair is useless; both
        // gaps become NACKable after the reorder grace.
        assert_eq!(r.on_source(4, t), Arrival::Fresh);
        assert_eq!(r.on_source(7, t), Arrival::Fresh);
        assert_eq!(r.on_repair(4, 8, t), None);
        let mut nacks = Vec::new();
        r.poll_nacks(t + NACK_GRACE, &mut nacks);
        assert_eq!(nacks, vec![5, 6]);
    }

    #[test]
    fn repair_announces_unseen_tail() {
        let t = Instant::ZERO;
        let mut r = FecReceiverCore::new(DEFAULT_DEADLINE);
        r.on_source(0, t);
        // Sources 1..4 all lost; the repair alone reveals them. Three
        // missing → no repair, but all three become NACKable.
        assert_eq!(r.on_repair(0, 4, t), None);
        let mut nacks = Vec::new();
        r.poll_nacks(t + NACK_GRACE, &mut nacks);
        assert_eq!(nacks, vec![1, 2, 3]);
    }

    #[test]
    fn duplicates_never_deliver_twice() {
        let t = Instant::ZERO;
        let mut r = FecReceiverCore::new(DEFAULT_DEADLINE);
        assert_eq!(r.on_source(0, t), Arrival::Fresh);
        assert_eq!(r.on_source(0, t), Arrival::Duplicate);
        // Repaired, then the ARQ copy shows up late: still a duplicate.
        r.on_source(1, t);
        r.on_source(3, t);
        assert_eq!(r.on_repair(0, 4, t), Some(2));
        assert_eq!(r.on_source(2, t), Arrival::Duplicate);
        assert_eq!(r.delivered + r.repaired, 4);
        assert_eq!(r.duplicates, 2);
    }

    #[test]
    fn nack_respects_deadline_at_sender() {
        let mut s = FecSenderCore::new(DEFAULT_DEADLINE);
        let t0 = Instant::ZERO;
        let seq = s.source(t0);
        assert_eq!(
            s.on_nack(seq, t0 + Duration::from_millis(50)),
            NackVerdict::Retx
        );
        assert_eq!(
            s.on_nack(seq, t0 + DEFAULT_DEADLINE + Duration::from_millis(1)),
            NackVerdict::Abandon
        );
        assert_eq!((s.retx, s.abandoned), (1, 1));
    }

    #[test]
    fn receiver_expires_stale_gaps_to_abandoned() {
        let t = Instant::ZERO;
        let mut r = FecReceiverCore::new(DEFAULT_DEADLINE);
        r.on_source(0, t);
        r.on_source(2, t); // gap at 1
        let late = t + DEFAULT_DEADLINE + RENACK_INTERVAL + Duration::from_millis(1);
        let mut nacks = Vec::new();
        r.poll_nacks(late, &mut nacks);
        assert!(nacks.is_empty(), "expired gaps are not NACKed");
        assert_eq!(r.abandoned, 1);
        assert_eq!(r.delivered, 2);
        // Conservation after close: 3 offered, 3 classified.
        r.close(3, late);
        assert_eq!(r.delivered + r.repaired + r.abandoned, 3);
    }

    #[test]
    fn sender_stripes_by_leg_rates() {
        let mut s = FecMediaSender::new(1, 2, 5008, 5009, 1e4, 2e6, 1e8, 50.0, 2);
        let mut out = Vec::new();
        s.poll_into(Instant::ZERO, &mut out);
        assert!(!out.is_empty());
        // Equal leg rates → alternating stripe, both legs used.
        let on0 = out.iter().filter(|&&(l, _)| l == 0).count();
        let on1 = out.len() - on0;
        assert!(on0 > 0 && on1 > 0, "both legs carry packets: {on0}/{on1}");
        assert!((on0 as i64 - on1 as i64).abs() <= 1, "even split");
    }

    #[test]
    fn feedback_drives_nada_and_arq() {
        let mut s = FecMediaSender::new(1, 2, 5008, 5009, 1e4, 1e6, 1e8, 50.0, 1);
        let mut out = Vec::new();
        s.poll_into(Instant::ZERO, &mut out);
        let sent = out.len() as u64;
        assert!(sent > 0);
        let fb = FecFeedback {
            legs: [
                FecLegStats {
                    packets: sent,
                    ce_packets: 0,
                    not_ect_packets: 0,
                },
                FecLegStats::default(),
            ],
            nacks: vec![0],
            coupled: false,
        };
        s.on_feedback(&fb, Instant::from_millis(30));
        // The NACK of an in-deadline seq queues a retransmission …
        assert_eq!(s.codec().retx, 1);
        out.clear();
        s.poll_into(Instant::from_millis(31), &mut out);
        assert!(
            out.iter().any(|(_, p)| p.identification() == 0),
            "retx of seq 0 goes out"
        );
        // … and a NACK past the deadline is abandoned.
        let mut fb2 = fb.clone();
        fb2.nacks = vec![1];
        s.on_feedback(&fb2, Instant::from_millis(30) + DEFAULT_DEADLINE * 2);
        assert_eq!(s.codec().abandoned, 1);
    }

    #[test]
    fn media_receiver_round_trip_classifies() {
        let mut s = FecMediaSender::new(1, 2, 5008, 5009, 1e4, 1e6, 1e8, 50.0, 1);
        let mut r = FecMediaReceiver::new(2, 1, 5009, 5008);
        let mut out = Vec::new();
        s.poll_into(Instant::ZERO, &mut out);
        let n_src = out
            .iter()
            .filter(|(_, p)| p.payload_len() == MTU_PAYLOAD)
            .count() as u64;
        for (i, (leg, pkt)) in out.drain(..).enumerate() {
            // Drop one source packet mid-frame; the next repair packet
            // covers it as the window's single gap.
            if i == 1 {
                continue;
            }
            r.on_packet(&pkt, leg, Instant::from_millis(1));
        }
        let c = r.codec();
        assert_eq!(c.delivered + c.repaired, n_src);
        assert_eq!(c.repaired, 1);
        // Feedback is emitted and echoes the coupling verdict.
        r.set_coupled(true);
        let (_pkt, fb) = r
            .poll(Instant::from_millis(40))
            .or_else(|| {
                r.on_packet(
                    &PacketBuf::udp(1, 2, Ecn::Ect1, 200, 5008, 5009, MTU_PAYLOAD),
                    0,
                    Instant::from_millis(40),
                )
            })
            .expect("feedback due");
        assert!(fb.coupled);
        assert!(fb.legs[0].packets >= 1);
    }
}
