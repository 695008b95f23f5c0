//! Model-based tests: each live state machine in lockstep with a
//! reference, under random operation sequences (and, for TCP, named
//! scripts); every output and every observable of every step must match.
//!
//! - `TcpSender` against [`RfcSender`] (`model_based/rfc_tcp.rs`), a
//!   sender written from RFC 9293 / 5681 / 6582 / 6298 / 3168 whose
//!   every rule cites its section. A change to the sender that the cited
//!   section does not allow fails the lockstep; a deliberate deviation is
//!   a named rule there, commented `deviates from`, and a CHANGES.md line.
//! - The event queue's wake-up lane against [`ArmContract`]
//!   (`model_based/lane.rs`), the contract `EventQueue::arm` documents.
//! - `RlcTx`'s unacknowledged store and `RlcRx`'s reassembly window,
//!   rings in sequence order, against the `BTreeMap`-backed originals
//!   they replaced (`model_based/tree_rlc.rs`), until a TS 38.322
//!   reference replaces those.

use proptest::prelude::*;

use l4span::cc::cubic::Cubic;
use l4span::cc::prague::Prague;
use l4span::cc::reno::Reno;
use l4span::cc::tcp::TcpConfig;
use l4span::cc::{CongestionControl, TcpSender};
use l4span::net::{AccEcnCounters, Ecn, PacketBuf, TcpFlags, TcpHeader};
use l4span::ran::config::RlcMode;
use l4span::ran::rlc::{Nack, RlcRx, RlcStatus, RlcTx, Segment, TxRecord};
use l4span::sim::{Duration, EventQueue, Instant, SimRng};

#[path = "model_based/lane.rs"]
mod lane;
#[path = "model_based/rfc_tcp.rs"]
mod rfc_tcp;
#[path = "model_based/tree_rlc.rs"]
mod tree_rlc;

use lane::ArmContract;
use rfc_tcp::{rfc5681, RfcSender};
use tree_rlc::{TreeRlcRx, TreeRlcTx};

fn data_pkt(ident: u16, len: usize) -> PacketBuf {
    PacketBuf::tcp(1, 2, Ecn::Ect1, ident, &TcpHeader::default(), len)
}

/// `(bytes consumed, segments, transmit records)` of one RLC pull.
fn pull(tx: &mut RlcTx, budget: usize, now: Instant) -> (usize, Vec<Segment>, Vec<TxRecord>) {
    let (mut segments, mut txed) = (Vec::new(), Vec::new());
    let consumed = tx.pull_with(budget, now, &mut txed, |s| segments.push(s));
    (consumed, segments, txed)
}

fn mode(am: bool) -> RlcMode {
    if am {
        RlcMode::Am
    } else {
        RlcMode::Um
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
        nacks.push(Nack { sn, from, to });
        if rng.chance(0.2) {
            nacks.push(Nack { sn, from, to });
        }
    }
    RlcStatus { ack_sn, nacks }
}

proptest! {
    /// Random enqueue (with tail drops and SN holes) / pull / status /
    /// handover-drain-and-forward / re-establishment sequences.
    #[test]
    fn rlc_tx_ring_matches_tree(seed in any::<u64>(), am in any::<bool>(), capacity in 2usize..24) {
        let mut ring = RlcTx::new(mode(am), capacity, 8);
        let mut tree = TreeRlcTx::new(mode(am), capacity, 8);
        let mut rng = SimRng::new(seed);
        let mut now = Instant::ZERO;
        let mut next_sn = 0u64;
        let (mut tree_txed, mut tree_segs) = (Vec::new(), Vec::new());
        for step in 0..400 {
            now += Duration::from_micros(rng.range_u64(0, 20_000));
            match rng.range_u64(0, 100) {
                0..=34 => {
                    // PDCP numbers ascend; an SN that carried no SDU
                    // here (another bearer's, or dropped upstream) is a hole.
                    next_sn += rng.range_u64(0, 3) / 2;
                    let pkt = data_pkt(next_sn as u16, rng.range_u64(0, 3000) as usize);
                    prop_assert_eq!(
                        ring.enqueue(next_sn, pkt, now),
                        tree.enqueue(next_sn, pkt, now, now),
                        "step {}: enqueue {}", step, next_sn
                    );
                    next_sn += 1;
                }
                35..=74 => {
                    let budget = rng.range_u64(0, 5000) as usize;
                    let (ring_consumed, ring_segs, ring_txed) = pull(&mut ring, budget, now);
                    tree_txed.clear();
                    tree_segs.clear();
                    let consumed = tree.pull(budget, now, &mut tree_txed, &mut tree_segs);
                    prop_assert_eq!(ring_consumed, consumed, "step {}: pull {}", step, budget);
                    prop_assert_eq!(
                        format!("{:?}", ring_segs), format!("{:?}", tree_segs),
                        "step {}: pull {}", step, budget
                    );
                    prop_assert_eq!(format!("{:?}", ring_txed), format!("{:?}", tree_txed));
                }
                75..=89 if am => {
                    let status = arb_status(&mut rng, tree.highest_delivered, tree.highest_txed);
                    prop_assert_eq!(
                        ring.on_status(&status, now), tree.on_status(&status, now),
                        "step {}: {:?}", step, status
                    );
                }
                90..=94 => {
                    let forwarded = ring.drain_for_handover();
                    prop_assert_eq!(
                        format!("{forwarded:?}"), format!("{:?}", tree.drain_for_handover()),
                        "step {}: drain", step
                    );
                    prop_assert_eq!((ring.backlog_bytes(), ring.has_unacked()), (0, false));
                    // The target of the handover is an empty entity:
                    // forward the context straight back in.
                    for f in forwarded {
                        prop_assert_eq!(
                            ring.enqueue_forwarded(f, now),
                            tree.enqueue(f.sn, f.pkt, f.t_ingress, now)
                        );
                    }
                }
                95..=99 => {
                    ring.reestablish_requeue(now);
                    tree.reestablish_requeue(now);
                }
                _ => {}
            }
            prop_assert_eq!(
                (
                    ring.backlog_bytes(), ring.queue_len_sdus(), ring.drop_count(),
                    ring.has_unacked(), ring.highest_txed(), ring.highest_delivered(),
                ),
                (
                    tree.backlog_bytes(), tree.queue_len_sdus(), tree.drops,
                    tree.has_unacked(), tree.highest_txed, tree.highest_delivered,
                ),
                "after step {}", step
            );
        }
    }

    /// Out-of-order, duplicate, overlapping and partial segments over a
    /// sliding SN window, the UM skip timer, re-establishment and (AM)
    /// status reports.
    #[test]
    fn rlc_rx_ring_matches_tree(seed in any::<u64>(), am in any::<bool>()) {
        let period = Duration::from_millis(5);
        let mut ring = RlcRx::new(mode(am), period);
        let mut tree = TreeRlcRx::new(mode(am), period);
        let mut rng = SimRng::new(seed);
        let mut now = Instant::ZERO;
        let (mut ring_out, mut tree_out) = (Vec::new(), Vec::new());
        let mut delivered = 0;
        for step in 0..600 {
            now += Duration::from_micros(rng.range_u64(0, 12_000));
            match rng.range_u64(0, 100) {
                0..=69 => {
                    // Mostly inside a window ahead of the delivery point,
                    // sometimes a duplicate of something long delivered.
                    let sn = (tree.next_expected + rng.range_u64(0, 6))
                        .saturating_sub(rng.range_u64(0, 8) / 6);
                    let size = 40 + (sn * 977 % 2500) as u32;
                    let (offset, end) = if rng.chance(0.4) {
                        (0, size)
                    } else {
                        let a = rng.range_u64(0, u64::from(size) + 1) as u32;
                        (a, rng.range_u64(u64::from(a), u64::from(size) + 1) as u32)
                    };
                    let seg = Segment {
                        sn,
                        offset,
                        len: end - offset,
                        sdu_size: size,
                        payload: (end == size).then(|| data_pkt(sn as u16, size as usize - 40)),
                    };
                    ring.on_segment_into(seg.clone(), now, &mut ring_out);
                    tree.on_segment(seg, now, &mut tree_out);
                }
                70..=79 => {
                    ring.poll_into(now, &mut ring_out);
                    tree.poll(now, &mut tree_out);
                }
                80..=82 => {
                    ring.reestablish();
                    tree.reestablish();
                }
                _ => {
                    prop_assert_eq!(ring.status_due(now), tree.status_due(now), "step {}", step);
                    let status = ring.make_status(now);
                    prop_assert_eq!(&status, &tree.make_status(now), "step {}: status", step);
                    if let Some(status) = status {
                        ring.recycle_status(status);
                    }
                }
            }
            let ring_delivered: Vec<_> = ring_out.drain(..).map(|d| (d.sn, d.pkt)).collect();
            prop_assert_eq!(&ring_delivered, &tree_out, "step {}: deliveries", step);
            prop_assert_eq!(ring.skipped_count(), tree.skipped, "step {}", step);
            delivered += tree_out.len();
            tree_out.clear();
        }
        prop_assert!(delivered > 5, "the walk must deliver something: {}", delivered);
    }
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
