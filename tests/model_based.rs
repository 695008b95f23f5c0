//! Model-based tests: each live state machine in lockstep with a
//! reference, under random operation sequences and named scripts; every
//! output and every observable of every step must match. `TcpSender`
//! runs against [`RfcSender`] (`model_based/rfc_tcp.rs`, from RFC 9293 /
//! 5681 / 6582 / 6298 / 3168 and AccECN), `RlcTx` / `RlcRx` against
//! [`SpecTx`] / [`SpecRx`] (`model_based/ts38322.rs`, from TS 38.322),
//! the wake-up lane against [`ArmContract`] (`model_based/lane.rs`, the
//! contract `EventQueue::arm` documents). Each rule of a spec reference
//! cites its section; a deliberate deviation of the live code is a rule
//! of the reference, commented `deviates from`, and a CHANGES.md line.

use std::ops::Range;

use proptest::prelude::*;

use l4span::cc::cubic::Cubic;
use l4span::cc::prague::Prague;
use l4span::cc::reno::Reno;
use l4span::cc::tcp::TcpConfig;
use l4span::cc::{CongestionControl, TcpSender};
use l4span::net::{AccEcnCounters, Ecn, PacketBuf, TcpFlags, TcpHeader};
use l4span::ran::config::RlcMode;
use l4span::ran::rlc::{Nack, RlcRx, RlcStatus, RlcTx, Sdu, Segment, Sn, TxRecord};
use l4span::sim::{Duration, EventQueue, Instant, SimRng};

#[path = "model_based/lane.rs"]
mod lane;
#[path = "model_based/rfc_tcp.rs"]
mod rfc_tcp;
#[path = "model_based/ts38322.rs"]
mod ts38322;

use lane::ArmContract;
use rfc_tcp::{rfc5681, RfcSender};
use ts38322::{SpecRx, SpecTx};

fn data_pkt(ident: u16, len: usize) -> PacketBuf {
    PacketBuf::tcp(1, 2, Ecn::Ect1, ident, &TcpHeader::default(), len)
}

/// A live RLC transmitter → receiver link and the reference's: each step
/// runs on both, and every output and observable must match.
struct Link {
    tx: RlcTx,
    rx: RlcRx,
    stx: SpecTx,
    srx: SpecRx,
    now: Instant,
    /// SNs delivered so far, in order.
    delivered: Vec<Sn>,
}

/// `(SN, SO, length, carries the packet)` of a segment.
type Shape = (Sn, u32, u32, bool);

impl Link {
    /// 8 header bytes per PDU, a STATUS at most every 5 ms.
    fn new(am: bool, capacity: usize) -> Link {
        let mode = if am { RlcMode::Am } else { RlcMode::Um };
        let period = Duration::from_millis(5);
        let (mut stx, mut srx) = (SpecTx::default(), SpecRx::default());
        (stx.am, stx.capacity, stx.overhead) = (am, capacity, 8);
        (srx.am, srx.period) = (am, period);
        Link {
            tx: RlcTx::new(mode, capacity, 8),
            rx: RlcRx::new(mode, period),
            stx,
            srx,
            now: Instant::ZERO,
            delivered: Vec::new(),
        }
    }

    fn at(&mut self, ms: u64) -> &mut Link {
        self.now = Instant::from_millis(ms);
        self
    }

    /// PDCP hands SDUs `sns` of `wire` bytes each down; those admitted.
    fn send(&mut self, sns: Range<Sn>, wire: usize) -> Result<Vec<Sn>, TestCaseError> {
        let mut admitted = Vec::new();
        for sn in sns {
            let (pkt, t_ingress) = (data_pkt(sn as u16, wire - 40), self.now);
            let live = self.tx.enqueue(sn, pkt, t_ingress);
            prop_assert_eq!(live, self.stx.enqueue(Sdu { sn, pkt, t_ingress }));
            admitted.extend(live.then_some(sn));
            self.check()?;
        }
        Ok(admitted)
    }

    /// A transmission opportunity of `budget` bytes; its segments reach
    /// the receiver unless `lost`.
    fn pull(&mut self, budget: usize, lost: bool) -> Result<Vec<Shape>, TestCaseError> {
        let (now, mut segs, mut txed) = (self.now, Vec::new(), Vec::new());
        let used = self.tx.pull_with(budget, now, &mut txed, |s| segs.push(s));
        let (mut spec, mut done) = (Vec::new(), Vec::new());
        let spec_used = self.stx.pull(budget, now, &mut spec, &mut done);
        let record = |r: &TxRecord| (r.sn, r.size, r.t_ingress, r.t_txed);
        let txed: Vec<_> = txed.iter().map(record).collect();
        prop_assert_eq!((used, txed), (spec_used, done), "at {:?}", now);
        prop_assert_eq!(format!("{segs:?}"), format!("{spec:?}"));
        let shape = |s: &Segment| (s.sn, s.offset, s.len, s.payload.is_some());
        let shapes = segs.iter().map(shape).collect();
        for seg in segs.into_iter().filter(|_| !lost) {
            self.recv(Some(seg))?;
        }
        self.check()?;
        Ok(shapes)
    }

    /// A segment reaches the receiver, or (`None`) its timer is polled.
    fn recv(&mut self, seg: Option<Segment>) -> TestCaseResult {
        let (now, mut out, mut spec) = (self.now, Vec::new(), Vec::new());
        if let Some(seg) = seg {
            self.rx.on_segment_into(seg.clone(), now, &mut out);
            self.srx.on_segment(seg, now, &mut spec);
        } else {
            self.rx.poll_into(now, &mut out);
            self.srx.poll(now, &mut spec);
        }
        let out: Vec<_> = out.into_iter().map(|d| (d.sn, d.pkt)).collect();
        prop_assert_eq!(&out, &spec, "delivered at {:?}", now);
        self.delivered.extend(out.iter().map(|d| d.0));
        self.check()
    }

    /// The receiver's STATUS, if one is due; it reaches the transmitter.
    fn status(&mut self) -> Result<Option<RlcStatus>, TestCaseError> {
        let status = self.rx.make_status(self.now);
        let spec = self.srx.make_status(self.now);
        prop_assert_eq!(&status, &spec, "at {:?}", self.now);
        if let Some(st) = status.clone() {
            self.ack(&st)?;
            self.rx.recycle_status(st);
        }
        Ok(status)
    }

    /// A STATUS, or an arbitrary report, reaches the transmitter.
    fn ack(&mut self, st: &RlcStatus) -> TestCaseResult {
        let acked = self.tx.on_status(st, self.now);
        prop_assert_eq!(acked, self.stx.on_status(st, self.now), "{:?}", st);
        self.check()
    }

    /// A handover: the transmitter drains, and its SDUs are forwarded
    /// straight back in (the target is an empty entity).
    fn handover(&mut self) -> TestCaseResult {
        let sdus = self.tx.drain_for_handover();
        let spec = self.stx.drain();
        prop_assert_eq!(format!("{sdus:?}"), format!("{spec:?}"));
        for sdu in sdus {
            let admitted = self.tx.enqueue_forwarded(sdu, self.now);
            prop_assert_eq!(admitted, self.stx.enqueue(sdu));
        }
        self.check()
    }

    fn check(&self) -> TestCaseResult {
        let (t, r, now) = (&self.tx, &self.rx, self.now);
        let counts = (t.backlog_bytes(), t.queue_len_sdus(), t.drop_count());
        let sns = (t.has_unacked(), t.highest_txed(), t.highest_delivered());
        let live = ((counts, sns), r.skipped_count(), r.status_due(now));
        let (s, sr) = (&self.stx, &self.srx);
        let spec = (s.observed(), sr.skipped, sr.status_due(now));
        prop_assert_eq!(live, spec, "at {:?}", now);
        Ok(())
    }
}

/// A status report around the transmitter's live SN range: cumulative
/// ACKs that advance, stall or regress, and NACKs that are whole-SDU,
/// partial, empty, duplicated, or name SNs the transmitter does not hold.
fn arb_status(rng: &mut SimRng, delivered: Option<u64>, txed: Option<u64>) -> RlcStatus {
    let lo = delivered.map_or(0, |d| d.saturating_sub(1));
    let hi = txed.map_or(1, |t| t + 2).max(lo);
    let ack_sn = rng.range_u64(lo, hi + 1);
    let mut nacks = Vec::new();
    for _ in 0..rng.range_u64(0, 5) {
        let sn = rng.range_u64(ack_sn.saturating_sub(1), hi + 1);
        let (from, to) = match rng.range_u64(0, 5) {
            0 => (0, u32::MAX),
            1 => (5, 5),
            2 => (0, 0),
            _ => {
                let from = rng.range_u64(0, 3000) as u32;
                (from, from + rng.range_u64(1, 2000) as u32)
            }
        };
        let copies = 1 + usize::from(rng.chance(0.2));
        nacks.extend(std::iter::repeat_n(Nack { sn, from, to }, copies));
    }
    RlcStatus { ack_sn, nacks }
}

proptest! {
    /// Random enqueue (with tail drops and SN holes) / pull / status /
    /// handover-drain-and-forward / re-establishment sequences.
    #[test]
    fn rlc_tx_keeps_ts38322(seed in any::<u64>(), am in any::<bool>(), capacity in 2usize..24) {
        let mut l = Link::new(am, capacity);
        let mut rng = SimRng::new(seed);
        let mut next_sn = 0u64;
        for _ in 0..400 {
            l.now += Duration::from_micros(rng.range_u64(0, 20_000));
            match rng.range_u64(0, 100) {
                0..=34 => {
                    // PDCP numbers ascend; an SN that carried no SDU
                    // here (another bearer's, or dropped upstream) is a hole.
                    next_sn += rng.range_u64(0, 3) / 2;
                    l.send(next_sn..next_sn + 1, 40 + rng.range_u64(0, 3000) as usize)?;
                    next_sn += 1;
                }
                // The receiver is not in this walk: every segment is lost.
                35..=74 => drop(l.pull(rng.range_u64(0, 5000) as usize, true)?),
                75..=89 if am => {
                    let txed = l.tx.highest_txed();
                    l.ack(&arb_status(&mut rng, l.tx.highest_delivered(), txed))?;
                }
                90..=94 => l.handover()?,
                95..=99 => {
                    l.tx.reestablish_requeue(l.now);
                    l.stx.requeue();
                    l.check()?;
                }
                _ => {}
            }
        }
    }

    /// Out-of-order, duplicate, overlapping and partial segments over a
    /// sliding SN window, the UM skip timer, re-establishment and (AM)
    /// status reports.
    #[test]
    fn rlc_rx_keeps_ts38322(seed in any::<u64>(), am in any::<bool>()) {
        let mut l = Link::new(am, 2);
        let mut rng = SimRng::new(seed);
        for _ in 0..600 {
            l.now += Duration::from_micros(rng.range_u64(0, 12_000));
            match rng.range_u64(0, 100) {
                0..=69 => {
                    // Mostly inside a window ahead of the delivery point,
                    // sometimes a duplicate of something long delivered.
                    let sn = (l.srx.rx_next + rng.range_u64(0, 6))
                        .saturating_sub(rng.range_u64(0, 8) / 6);
                    let size = 40 + (sn * 977 % 2500) as u32;
                    let (offset, end) = if rng.chance(0.4) {
                        (0, size)
                    } else {
                        let a = rng.range_u64(0, u64::from(size) + 1) as u32;
                        (a, rng.range_u64(u64::from(a), u64::from(size) + 1) as u32)
                    };
                    l.recv(Some(Segment {
                        sn,
                        offset,
                        len: end - offset,
                        sdu_size: size,
                        payload: (end == size).then(|| data_pkt(sn as u16, size as usize - 40)),
                    }))?;
                }
                70..=79 => l.recv(None)?,
                80..=82 => {
                    l.rx.reestablish();
                    l.srx.reestablish();
                    l.check()?;
                }
                _ => drop(l.status()?),
            }
        }
        prop_assert!(l.delivered.len() > 5, "the walk must deliver something: {:?}", l.delivered);
    }
}

/// A STATUS with ACK_SN `ack_sn` and `(SN, from, to)` NACKs.
fn report(ack_sn: Sn, nacks: &[(Sn, u32, u32)]) -> Option<RlcStatus> {
    let nack = |&(sn, from, to): &(Sn, u32, u32)| Nack { sn, from, to };
    let nacks = nacks.iter().map(nack).collect();
    Some(RlcStatus { ack_sn, nacks })
}

/// The middle of three PDUs of an SDU is lost: the STATUS NACKs its bytes
/// (§5.3.4). The retransmission is lost too, so they are NACKed again once
/// t-StatusProhibit allows (t-Reassembly's re-trigger, §5.2.3.2.4).
#[test]
fn a_lost_mid_sdu_segment_is_nacked_again_until_it_arrives() -> TestCaseResult {
    let mut l = Link::new(true, 16);
    l.send(0..1, 3000)?;
    for (ms, lost) in [(1, false), (2, true), (3, false)] {
        l.at(ms).pull(1008, lost)?;
    }
    let nack = report(0, &[(0, 1000, 2000)]);
    prop_assert_eq!(&l.at(10).status()?, &nack);
    prop_assert_eq!(l.at(11).pull(10_000, true)?, [(0, 1000, 1000, false)]);
    prop_assert_eq!(l.at(12).status()?, None);
    prop_assert_eq!(&l.at(15).status()?, &nack);
    l.at(16).pull(10_000, false)?;
    prop_assert_eq!(&l.delivered, &[0]);
    Ok(())
}

/// HARQ gives up on a pull: SDU 0's tail and SDU 1. The STATUS NACKs those
/// bytes and SDU 1 whole, not SDU 2 (§5.3.4); the repairs go ahead of SDU
/// 3, queued since (§5.2.3.1.1), and all four are delivered in order.
#[test]
fn harq_exhaustion_is_repaired_ahead_of_new_data() -> TestCaseResult {
    let mut l = Link::new(true, 16);
    l.send(0..3, 1000)?;
    for (ms, budget, lost) in [(1, 408, false), (2, 1616, true), (3, 1008, false)] {
        l.at(ms).pull(budget, lost)?;
    }
    l.at(4).send(3..4, 1000)?;
    let nacks = [(0, 400, 1000), (1, 0, u32::MAX)];
    prop_assert_eq!(l.at(10).status()?, report(0, &nacks));
    let repairs_first = [(0, 400, 600, true), (1, 0, 1000, true), (3, 0, 1000, true)];
    prop_assert_eq!(l.at(11).pull(10_000, false)?, repairs_first);
    prop_assert_eq!(&l.delivered, &[0, 1, 2, 3]);
    prop_assert_eq!(l.at(20).status()?, report(4, &[]));
    Ok(())
}

/// The only SDU is lost, so the receiver has nothing to report (§5.3.4).
/// Past 45 ms, not at it, t-PollRetransmit expires and resends it whole
/// (§5.3.3.4), once; it is then delivered and acknowledged.
#[test]
fn poll_retransmit_resends_after_silence() -> TestCaseResult {
    let mut l = Link::new(true, 16);
    l.send(0..1, 540)?;
    prop_assert_eq!(l.at(1).pull(10_000, true)?, [(0, 0, 540, true)]);
    prop_assert_eq!(l.at(10).status()?, None);
    prop_assert!(l.at(45).pull(10_000, false)?.is_empty());
    prop_assert_eq!(l.at(60).pull(10_000, false)?, [(0, 0, 540, true)]);
    prop_assert!(l.at(61).pull(10_000, false)?.is_empty());
    prop_assert_eq!(l.at(70).status()?, report(1, &[]));
    prop_assert_eq!((&l.delivered[..], l.tx.has_unacked()), (&[0][..], false));
    Ok(())
}

/// UM: SDU 0 loses its tail; SDU 1 is held behind it until t-Reassembly
/// (50 ms) skips and counts SDU 0. SDU 2 is lost whole: SDU 3 waits its
/// own 50 ms, and SDU 2 is not counted.
#[test]
fn um_reassembly_timeout_skips_a_stuck_sdu() -> TestCaseResult {
    let mut l = Link::new(false, 16);
    l.send(0..2, 1000)?;
    l.pull(108, false)?;
    l.at(1).pull(908, true)?;
    l.pull(1008, false)?;
    l.at(50).recv(None)?;
    prop_assert!(l.delivered.is_empty());
    l.at(60).recv(None)?;
    prop_assert_eq!((&l.delivered[..], l.rx.skipped_count()), (&[1][..], 1));
    l.send(2..4, 1000)?;
    l.pull(1008, true)?;
    l.at(62).pull(1008, false)?;
    l.at(100).recv(None)?;
    prop_assert_eq!(&l.delivered, &[1]);
    l.at(113).recv(None)?;
    prop_assert_eq!((&l.delivered[..], l.rx.skipped_count()), (&[1, 3][..], 1));
    Ok(())
}

/// A full queue tail-drops SDUs that PDCP has already numbered; the AM
/// bearer must still deliver every SDU it admits after the drop.
#[test]
#[ignore = "AM tail-drop stall: ROADMAP item 13"]
fn am_bearer_keeps_delivering_after_a_tail_drop() -> TestCaseResult {
    let mut l = Link::new(true, 4);
    let mut admitted = Vec::new();
    for (start, sns) in [(0, 0..8), (200, 8..10)] {
        admitted.extend(l.at(start).send(sns, 1000)?);
        for ms in start + 1..start + 200 {
            l.at(ms).pull(2000, false)?;
            l.status()?;
        }
    }
    prop_assert_eq!(l.tx.drop_count(), 4);
    prop_assert_eq!(&l.delivered, &admitted, "SNs 4–7 were tail-dropped");
    Ok(())
}

const MSS: usize = 1400;

/// `TcpSender` and [`RfcSender`] fed the same client packets and polls:
/// every step must emit the same packets and leave the same observables.
struct Lockstep {
    live: TcpSender,
    spec: RfcSender,
    cfg: TcpConfig,
    now: Instant,
    /// Ends of the data segments sent so far, ascending.
    ends: Vec<u64>,
    /// The AccECN counters the client's ACKs carry, if any.
    accecn: Option<AccEcnCounters>,
    steps: u16,
}

impl Lockstep {
    /// Reno runs against the reference's own RFC 5681 window; CUBIC (1)
    /// and Prague (2) run the same controller on both sides. Returns
    /// after the handshake, at time zero.
    fn new(cc: u8, app_limit: Option<u64>) -> Result<Lockstep, TestCaseError> {
        let make = |reno: Box<dyn CongestionControl>| -> Box<dyn CongestionControl> {
            match cc {
                0 => reno,
                1 => Box::new(Cubic::new(MSS)),
                _ => Box::new(Prague::new(MSS)),
            }
        };
        let mut cfg = TcpConfig::new(0x0A00_0001, 0x0A00_0002, 443, 50_000);
        cfg.app_limit = app_limit;
        let mut l = Lockstep {
            live: TcpSender::new(cfg, make(Box::new(Reno::new(MSS)))),
            spec: RfcSender::new(cfg, make(rfc5681(MSS))),
            cfg,
            now: Instant::ZERO,
            ends: Vec::new(),
            accecn: None,
            steps: 0,
        };
        l.recv(TcpFlags::SYN, 0)?;
        l.recv(TcpFlags::ACK, 1)?;
        Ok(l)
    }

    /// In flight, SRTT, delivered, fast and timer retransmits, next
    /// wake-up, cwnd, finished.
    fn observed(&self) -> [impl PartialEq + std::fmt::Debug; 2] {
        let (l, s) = (&self.live, &self.spec);
        [
            (
                (l.inflight_bytes(), l.srtt(), l.delivered(), l.finished()),
                (l.fast_retx, l.rto_retx, l.next_activity(), l.cc().cwnd()),
            ),
            (
                (s.flight(), s.srtt, s.delivered(), s.finished()),
                (s.fast_retx, s.rto_retx, s.next_activity(), s.cc.cwnd()),
            ),
        ]
    }

    /// ACK `ack`, with ECE if `ece`.
    fn ack(&mut self, ack: u64, ece: bool) -> Result<Vec<PacketBuf>, TestCaseError> {
        self.recv(TcpFlags::ACK | if ece { TcpFlags::ECE } else { 0 }, ack)
    }

    /// A client packet with the `flags` bits acknowledging `ack`, then a step.
    fn recv(&mut self, flags: u16, ack: u64) -> Result<Vec<PacketBuf>, TestCaseError> {
        let c = self.cfg;
        let hdr = TcpHeader {
            src_port: c.remote_port,
            dst_port: c.local_port,
            seq: 1,
            ack: ack as u32,
            flags: TcpFlags::new().with(flags),
            accecn: self.accecn,
            ..TcpHeader::default()
        };
        let pkt = PacketBuf::tcp(c.remote_ip, c.local_ip, Ecn::NotEct, self.steps, &hdr, 0);
        self.step(Some(pkt))
    }

    /// One step on both senders, at `now`: the packet, or a timer poll.
    /// Returns what they emitted.
    fn step(&mut self, pkt: Option<PacketBuf>) -> Result<Vec<PacketBuf>, TestCaseError> {
        let (mut live, mut spec) = (Vec::new(), Vec::new());
        if let Some(pkt) = pkt {
            self.live.on_packet_into(&pkt, self.now, &mut live);
            self.spec.on_packet_into(&pkt, self.now, &mut spec);
        } else {
            self.live.poll_into(self.now, &mut live);
            self.spec.poll_into(self.now, &mut spec);
        }
        let step = self.steps;
        self.steps += 1;
        prop_assert_eq!(&live, &spec, "step {}: emitted packets", step);
        let [l, s] = self.observed();
        prop_assert!(l == s, "step {step}: {l:?} vs {s:?}");
        for p in live.iter().filter(|p| p.payload_len() > 0) {
            let end = u64::from(p.tcp_header().expect("tcp").seq) + p.payload_len() as u64;
            if self.ends.last().is_none_or(|&e| e < end) {
                self.ends.push(end);
            }
        }
        Ok(live)
    }
}

proptest! {
    /// Cumulative, duplicate (→ fast retransmit), partial and bogus ACKs,
    /// ECN-Echo, AccECN counters (24-bit, advancing, wrapping or replayed
    /// stale), pacing polls and RTO-length silences, under three
    /// congestion controllers, greedy and fixed-size flows.
    #[test]
    fn tcp_sender_keeps_the_rfcs(
        seed in any::<u64>(),
        cc in 0u8..3,
        limit in proptest::option::of(5_000u64..400_000),
    ) {
        let mut l = Lockstep::new(cc, limit)?;
        let mut rng = SimRng::new(seed);
        let mut acc = AccEcnCounters {
            ce_bytes: 0xFF_F000,
            ..AccEcnCounters::default()
        };
        for _ in 2..400 {
            let mut advance = |c: u32| (c + rng.range_u64(0, 3000) as u32) & 0xFF_FFFF;
            (acc.ce_bytes, acc.ect1_bytes) = (advance(acc.ce_bytes), advance(acc.ect1_bytes));
            let mut sent = acc;
            if rng.chance(0.1) {
                // A reordered ACK: its CE counter is behind.
                let behind = rng.range_u64(1, 5000) as u32;
                sent.ce_bytes = (acc.ce_bytes + (1 << 24) - behind) & 0xFF_FFFF;
            }
            l.accecn = Some(sent);
            // Mostly an ACK clock's worth of time; sometimes a silence
            // long enough for the retransmission timer.
            l.now += if rng.chance(0.04) {
                Duration::from_millis(rng.range_u64(200, 2500))
            } else {
                Duration::from_micros(rng.range_u64(0, 30_000))
            };
            let una = l.spec.delivered();
            let ahead = l.ends.partition_point(|&e| e <= una);
            let next = l.ends.get(ahead + rng.range_u64(0, 8) as usize).or(l.ends.last());
            let ack = match rng.range_u64(0, 100) {
                0..=29 => None, // timer poll
                30..=64 => next.copied(),
                65..=82 => Some(una),
                83..=94 => next.map(|&e| e - 700),
                _ => l.ends.last().map(|&e| e + 5000),
            };
            let ece = rng.chance(0.1);
            match ack {
                Some(ack) => l.ack(ack, ece)?,
                None => l.step(None)?,
            };
        }
        prop_assert!(l.spec.delivered() > 0, "the walk must deliver something");
    }
}

/// Reno after a timeout: cwnd = 1 segment, ssthresh = 5, half the initial
/// window. An ACK of a segment adds one while cwnd < ssthresh (RFC 5681
/// §3.1, slow start), then one per cwnd of acked bytes (congestion avoidance).
#[test]
fn slow_start_crosses_into_congestion_avoidance_at_ssthresh() -> TestCaseResult {
    let mut l = Lockstep::new(0, None)?;
    l.now = Instant::from_secs(1);
    l.step(None)?;
    prop_assert_eq!((l.live.rto_retx, l.live.cc().cwnd()), (1, MSS));
    let mut cwnd = Vec::new();
    for k in 1..=10 {
        l.now += Duration::from_millis(10);
        l.ack(k * MSS as u64, false)?;
        cwnd.push(l.live.cc().cwnd() / MSS);
    }
    prop_assert_eq!(cwnd, [2, 3, 4, 5, 5, 5, 5, 5, 6, 6]);
    Ok(())
}

/// The third duplicate ACK resends the first unacked segment (RFC 5681
/// §3.2); more duplicates, a partial ACK and its duplicates stay in that
/// recovery; the ACK of `recover` ends it (RFC 6582 §3.2), so its third
/// duplicate starts the next.
#[test]
fn three_dupacks_give_one_fast_retransmit_until_recover() -> TestCaseResult {
    let mut l = Lockstep::new(0, None)?;
    let at = |l: &mut Lockstep, ack: u64| {
        l.now += Duration::from_millis(1);
        l.ack(ack, false)
    };
    for _ in 0..3 {
        at(&mut l, 1400)?;
    }
    let recover = *l.ends.last().expect("sent");
    let out = at(&mut l, 1400)?;
    prop_assert_eq!(
        (l.live.fast_retx, out[0].tcp_header().map(|h| h.seq)),
        (1, Some(1400))
    );
    for ack in [
        1400,
        1400,
        recover - 1400,
        recover - 1400,
        recover - 1400,
        recover - 1400,
    ] {
        at(&mut l, ack)?;
    }
    prop_assert_eq!(l.live.fast_retx, 1);
    for _ in 0..4 {
        at(&mut l, recover)?;
    }
    prop_assert_eq!(l.live.fast_retx, 2);
    Ok(())
}

/// With nothing acked the timer fires at 1 s (RFC 6298 §2.1) and doubles
/// (§5.5) to the model's 10 s cap, each time resending the first segment.
/// An ACK of only that segment takes no RTT sample (Karn, §3) and keeps
/// the backed-off RTO; one of the next, sent once, takes one.
#[test]
fn rto_backs_off_to_the_cap_and_karn_skips_resent_segments() -> TestCaseResult {
    let mut l = Lockstep::new(0, None)?;
    let mut fired = Vec::new();
    for _ in 0..6 {
        l.now = l.live.next_activity().expect("the timer runs");
        fired.push(l.now.as_millis() / 1000);
        prop_assert_eq!(l.step(None)?[0].tcp_header().map(|h| h.seq), Some(0));
    }
    prop_assert_eq!(fired, [1, 3, 7, 15, 25, 35]);
    l.now += Duration::from_millis(50);
    l.ack(MSS as u64, false)?;
    prop_assert_eq!(l.live.srtt(), None);
    prop_assert_eq!(
        l.live.next_activity(),
        Some(l.now + Duration::from_secs(10))
    );
    l.ack(2 * MSS as u64, false)?;
    prop_assert_eq!(l.live.srtt(), Some(l.now.saturating_since(Instant::ZERO)));
    Ok(())
}

/// ECE on every ACK, 4 ms apart, SRTT ≈ 20 ms: the window is cut at the
/// first and not again until an SRTT later (RFC 3168 §6.1.2); the first
/// data segment after each cut, and no other, has CWR.
#[test]
fn ece_reduces_once_per_rtt_and_sets_cwr_on_the_next_data_segment() -> TestCaseResult {
    let mut l = Lockstep::new(0, None)?;
    l.now = Instant::from_millis(20);
    l.ack(MSS as u64, false)?;
    let (mut cuts, mut cwr_due, mut cwrs) = (Vec::new(), false, 0);
    for k in 2..=11 {
        l.now += Duration::from_millis(4);
        let before = l.live.cc().cwnd();
        let out = l.ack(k * MSS as u64, true)?;
        if l.live.cc().cwnd() < before {
            cuts.push(l.now.as_millis());
            cwr_due = true;
        }
        for p in out
            .iter()
            .filter_map(|p| p.tcp_header().filter(|_| p.payload_len() > 0))
        {
            let cwr = p.flags.contains(TcpFlags::CWR);
            prop_assert_eq!(cwr, std::mem::take(&mut cwr_due), "at {}", l.now);
            cwrs += usize::from(cwr);
        }
    }
    prop_assert_eq!((cuts, cwrs), (vec![24, 48], 2));
    Ok(())
}

/// An ACK of data never sent, ECE and all, changes nothing (RFC 9293
/// §3.10.7.4); the next valid ACK still counts.
#[test]
fn an_ack_past_snd_nxt_is_ignored() -> TestCaseResult {
    let mut l = Lockstep::new(0, None)?;
    l.now = Instant::from_millis(10);
    let (before, snd_nxt) = (l.observed(), *l.ends.last().expect("sent"));
    prop_assert!(l.ack(snd_nxt + MSS as u64, true)?.is_empty());
    prop_assert!(l.observed() == before);
    l.ack(MSS as u64, false)?;
    prop_assert_eq!(l.live.delivered(), MSS as u64);
    Ok(())
}

/// What a queue entry pops as: a one-shot event, or owner `k`'s wake-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Popped {
    OneShot(u32),
    Wake(usize),
}

proptest! {
    /// Random `arm` / `schedule` / `pop` scripts over 1–8 owners, with
    /// instants from a grid a few steps wide so that same-instant ties,
    /// past-due arms and re-arms at an instant the owner was armed for
    /// before are the norm: after every step the lane has popped what
    /// [`ArmContract`] pops, and holds as many entries with the same next
    /// instant. The queue under test lists the events on the script's
    /// 1 ms grid; the script also schedules off it (+0.3 ms) and past the
    /// lists' 256-slot horizon, drains the queue and schedules the events
    /// again in drained order (as shard installation and re-homing do),
    /// and clears it.
    #[test]
    fn wakeup_lane_keeps_the_arm_contract(seed in any::<u64>(), owners in 1usize..9) {
        let mut rng = SimRng::new(seed);
        let mut spec = ArmContract::default();
        // Sparse keys: a slot is a key's rank, not the key.
        let key = |k: usize| 3 * k + 1;
        let mut lane: EventQueue<Popped> = EventQueue::with_wakeups(0, (0..owners).map(key))
            .with_grid(Duration::from_millis(1), Instant::ZERO);
        let mut next_id = 0u32;
        let instant = |now: Instant, rng: &mut SimRng| {
            let ms = now.as_millis();
            match rng.range_u64(0, 10) {
                0 => Instant::from_millis(ms + rng.range_u64(0, 6)) + Duration::from_micros(300),
                1 => Instant::from_millis(ms + rng.range_u64(250, 300)),
                // One step behind to five ahead, on the grid.
                _ => Instant::from_millis((ms + rng.range_u64(0, 7)).saturating_sub(1)),
            }
        };
        for step in 0..400 {
            match rng.range_u64(0, 100) {
                0..=43 => {
                    let k = rng.range_u64(0, owners as u64) as usize;
                    let at = if rng.chance(0.05) { Instant::MAX } else { instant(spec.now, &mut rng) };
                    spec.arm(k, at);
                    lane.arm(key(k), at, || Popped::Wake(k));
                }
                44..=63 => {
                    let at = instant(spec.now, &mut rng);
                    spec.schedule(at, Popped::OneShot(next_id));
                    lane.schedule(at, Popped::OneShot(next_id));
                    next_id += 1;
                }
                64..=65 => {
                    let drained = lane.drain_ordered();
                    prop_assert_eq!(&drained, &spec.drain(), "step {}", step);
                    prop_assert!(lane.is_empty());
                    for (at, what) in drained {
                        match what {
                            Popped::OneShot(_) => {
                                spec.schedule(at, what);
                                lane.schedule(at, what);
                            }
                            Popped::Wake(k) => {
                                spec.arm(k, at);
                                lane.arm(key(k), at, || what);
                            }
                        }
                    }
                }
                66 => {
                    spec.drain();
                    lane.clear();
                }
                _ => {
                    prop_assert_eq!(lane.pop(), spec.pop(), "step {}", step);
                    prop_assert_eq!(lane.now(), spec.now, "step {}", step);
                }
            }
            prop_assert_eq!(lane.len(), spec.entries.len(), "step {}", step);
            prop_assert_eq!(lane.next_at(), spec.next_at(), "step {}", step);
        }
        while let Some(popped) = lane.pop() {
            prop_assert_eq!(Some(popped), spec.pop());
        }
        prop_assert_eq!(spec.pop(), None);
    }
}
