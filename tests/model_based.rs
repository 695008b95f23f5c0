//! Model-based tests: a retired implementation kept as the reference.
//!
//! `TcpSender`'s in-flight set, `RlcTx`'s unacknowledged store and
//! `RlcRx`'s reassembly window used to be `BTreeMap`s keyed by sequence
//! number; they are rings in sequence order now. A timer owner used to
//! schedule one more event each time its wake-up moved earlier and tell
//! the live pop from the superseded ones with a `Wakeup`; it has one
//! entry in the event queue's wake-up lane now. The originals live on in
//! `model_based/` as the reference: a random sequence of operations
//! drives both implementations, and every output and every observable
//! of every step must be identical.

use proptest::prelude::*;

use l4span::cc::cubic::Cubic;
use l4span::cc::prague::Prague;
use l4span::cc::reno::Reno;
use l4span::cc::tcp::TcpConfig;
use l4span::cc::{CongestionControl, TcpSender};
use l4span::net::{Ecn, PacketBuf, TcpFlags, TcpHeader};
use l4span::ran::config::RlcMode;
use l4span::ran::rlc::{Nack, RlcRx, RlcStatus, RlcTx, Segment, TxRecord};
use l4span::sim::{Duration, EventQueue, Instant, SimRng};

#[path = "model_based/tree_rlc.rs"]
mod tree_rlc;
#[path = "model_based/tree_tcp.rs"]
mod tree_tcp;
#[path = "model_based/wakeup.rs"]
mod wakeup;

use tree_rlc::{TreeRlcRx, TreeRlcTx};
use tree_tcp::TreeTcpSender;
use wakeup::Wakeup;

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

    /// Cumulative, duplicate (→ fast retransmit), partial and bogus ACKs,
    /// ECN-Echo, pacing polls and RTO-length silences, under three
    /// congestion controllers, greedy and fixed-size flows.
    #[test]
    fn tcp_sender_ring_matches_tree(
        seed in any::<u64>(),
        cc in 0u8..3,
        limit in proptest::option::of(5_000u64..400_000),
    ) {
        let make_cc = || -> Box<dyn CongestionControl> {
            match cc {
                0 => Box::new(Reno::new(1400)),
                1 => Box::new(Cubic::new(1400)),
                _ => Box::new(Prague::new(1400)),
            }
        };
        let mut cfg = TcpConfig::new(0x0A00_0001, 0x0A00_0002, 443, 50_000);
        cfg.app_limit = limit;
        let mut ring = TcpSender::new(cfg, make_cc());
        let mut tree = TreeTcpSender::new(cfg, make_cc());
        let mut rng = SimRng::new(seed);
        let from_client = |flags: TcpFlags, ack: u64, ident: u16| {
            let hdr = TcpHeader {
                src_port: cfg.remote_port,
                dst_port: cfg.local_port,
                seq: 1,
                ack: ack as u32,
                flags,
                ..TcpHeader::default()
            };
            PacketBuf::tcp(cfg.remote_ip, cfg.local_ip, Ecn::NotEct, ident, &hdr, 0)
        };
        let ack_flags = TcpFlags::new().with(TcpFlags::ACK);
        let mut now = Instant::ZERO;
        let (mut ring_out, mut tree_out) = (Vec::new(), Vec::new());
        // Segment boundaries sent so far, ascending.
        let mut ends: Vec<u64> = Vec::new();
        for step in 0..400u16 {
            let pkt = match step {
                0 => Some(from_client(TcpFlags::new().with(TcpFlags::SYN), 0, 1)),
                1 => Some(from_client(ack_flags, 1, 2)),
                _ => {
                    // Mostly an ACK clock's worth of time; sometimes a
                    // silence long enough for the retransmission timer.
                    now += if rng.chance(0.04) {
                        Duration::from_millis(rng.range_u64(200, 2500))
                    } else {
                        Duration::from_micros(rng.range_u64(0, 30_000))
                    };
                    let una = tree.delivered;
                    let ahead = ends.partition_point(|&e| e <= una);
                    let next = ends.get(ahead + rng.range_u64(0, 8) as usize).or(ends.last());
                    let ack = match rng.range_u64(0, 100) {
                        0..=29 => None, // timer poll
                        30..=64 => next.copied(),
                        65..=82 => Some(una),
                        83..=94 => next.map(|&e| e - 700),
                        _ => ends.last().map(|&e| e + 5000),
                    };
                    let flags = if rng.chance(0.1) { ack_flags.with(TcpFlags::ECE) } else { ack_flags };
                    ack.map(|a| from_client(flags, a, step))
                }
            };
            match pkt {
                Some(pkt) => {
                    ring.on_packet_into(&pkt, now, &mut ring_out);
                    tree.on_packet_into(&pkt, now, &mut tree_out);
                }
                None => {
                    ring.poll_into(now, &mut ring_out);
                    tree.poll_into(now, &mut tree_out);
                }
            }
            prop_assert_eq!(&ring_out, &tree_out, "step {}: emitted packets", step);
            prop_assert_eq!(
                (
                    ring.inflight_bytes(), ring.srtt(), ring.delivered(), ring.fast_retx,
                    ring.rto_retx, ring.next_activity(), ring.cc().cwnd(), ring.finished(),
                ),
                (
                    tree.bytes_in_flight, tree.srtt, tree.delivered, tree.fast_retx,
                    tree.rto_retx, tree.next_activity(), tree.cc.cwnd(), tree.finished(),
                ),
                "after step {}", step
            );
            for p in ring_out.drain(..).filter(|p| p.payload_len() > 0) {
                let end = u64::from(p.tcp_header().expect("tcp").seq) + p.payload_len() as u64;
                if ends.last().is_none_or(|&e| e < end) {
                    ends.push(end);
                }
            }
            tree_out.clear();
        }
        prop_assert!(tree.delivered > 0, "the walk must deliver something");
    }
}

/// What a queue entry pops as: a one-shot event, or owner `k`'s wake-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Popped {
    OneShot(u32),
    Wake(usize),
}

/// The event loop as it was: a plain `(time, sequence)` heap that only
/// takes entries, and one [`Wakeup`] per owner to tell its live pop from
/// the ones an earlier arm superseded.
#[derive(Clone)]
struct WakeupOverHeap {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(Instant, u64, Popped)>>,
    seq: u64,
    /// Time of the last pop a handler ran for.
    now: Instant,
    wake: Vec<Wakeup>,
    superseded_pops: u64,
}

impl WakeupOverHeap {
    fn new(owners: usize) -> Self {
        WakeupOverHeap {
            heap: Default::default(),
            seq: 0,
            now: Instant::ZERO,
            wake: vec![Wakeup::new(); owners],
            superseded_pops: 0,
        }
    }

    fn push(&mut self, at: Instant, what: Popped) {
        self.heap
            .push(std::cmp::Reverse((at.max(self.now), self.seq, what)));
        self.seq += 1;
    }

    fn arm(&mut self, k: usize, at: Instant) {
        if let Some(at) = self.wake[k].arm(at, self.now, self.seq) {
            self.push(at, Popped::Wake(k));
        }
    }

    /// The next pop a handler runs for: superseded wake-ups are popped
    /// and skipped on the way. With no such pop left the loop is over:
    /// what is still queued stays queued (a script may go on scheduling,
    /// which no handler of a drained loop could).
    fn pop(&mut self) -> Option<(Instant, Popped)> {
        let mut skipped = Vec::new();
        while let Some(entry) = self.heap.pop() {
            let std::cmp::Reverse((at, seq, what)) = entry;
            match what {
                Popped::Wake(k) if !self.wake[k].fire(at, seq) => skipped.push(entry),
                _ => {
                    self.superseded_pops += skipped.len() as u64;
                    self.now = at;
                    return Some((at, what));
                }
            }
        }
        self.heap.extend(skipped);
        None
    }

    fn armed(&self) -> usize {
        self.wake.iter().filter(|&&w| w != Wakeup::new()).count()
    }

    /// Take every queued entry out, superseded ones included, and queue
    /// it again, in `(time, sequence)` order: fresh sequence numbers in
    /// the same relative order, as a drain-and-reschedule of the plain
    /// heap did. A live wake-up moves its arm to its new entry. Returns
    /// the entries a handler would run for, in order.
    fn requeue_all(&mut self) -> Vec<(Instant, Popped)> {
        let mut live = Vec::new();
        for std::cmp::Reverse((at, seq, what)) in std::mem::take(&mut self.heap)
            .into_sorted_vec()
            .into_iter()
            .rev()
        {
            let is_live = match what {
                Popped::Wake(k) => {
                    self.wake[k].fire(at, seq) && self.wake[k].arm(at, self.now, self.seq).is_some()
                }
                Popped::OneShot(_) => true,
            };
            self.push(at, what);
            if is_live {
                live.push((at, what));
            }
        }
        live
    }

    /// Forget every entry and every armed wake-up.
    fn clear(&mut self) {
        self.heap.clear();
        self.wake.fill(Wakeup::new());
    }
}

proptest! {
    /// Random `arm` / `schedule` / `pop` scripts over 1–8 owners, with
    /// instants from a grid a few steps wide so that same-instant ties,
    /// past-due arms and re-arms at an instant the owner was armed for
    /// before are the norm: the lane hands out the same interleaved
    /// sequence of wake-ups and one-shot events as the heap that keeps
    /// every superseded entry, never holds more than one entry per armed
    /// owner, and never pops a wake-up nobody is waiting for. The queue
    /// under test lists the events on the script's 1 ms grid; the script
    /// also schedules off it (+0.3 ms) and past the lists' 256-slot
    /// horizon, drains the queue and schedules the events again in
    /// drained order (as shard installation and re-homing do), and
    /// clears it.
    #[test]
    fn wakeup_lane_matches_wakeup_over_plain_heap(seed in any::<u64>(), owners in 1usize..9) {
        let mut rng = SimRng::new(seed);
        let mut reference = WakeupOverHeap::new(owners);
        // Sparse keys: a slot is a key's rank, not the key.
        let key = |k: usize| 3 * k + 1;
        let mut lane: EventQueue<Popped> = EventQueue::with_wakeups(0, (0..owners).map(key))
            .with_grid(Duration::from_millis(1), Instant::ZERO);
        let (mut one_shots, mut next_id) = (0usize, 0u32);
        // How each reference entry ended: popped for a one-shot or a
        // wake-up, taken out by a drain or a clear (or skipped as
        // superseded, or still queued: the reference counts those).
        let (mut one_shot_pops, mut wakeups, mut retired) = (0u64, 0u64, 0u64);
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
                    let at = if rng.chance(0.05) { Instant::MAX } else { instant(reference.now, &mut rng) };
                    reference.arm(k, at);
                    lane.arm(key(k), at, || Popped::Wake(k));
                }
                44..=63 => {
                    let at = instant(reference.now, &mut rng);
                    reference.push(at, Popped::OneShot(next_id));
                    lane.schedule(at, Popped::OneShot(next_id));
                    next_id += 1;
                    one_shots += 1;
                }
                64..=65 => {
                    retired += reference.heap.len() as u64;
                    let drained = lane.drain_ordered();
                    prop_assert_eq!(&drained, &reference.requeue_all(), "step {}", step);
                    prop_assert!(lane.is_empty());
                    for (at, what) in drained {
                        match what {
                            Popped::OneShot(_) => lane.schedule(at, what),
                            Popped::Wake(k) => lane.arm(key(k), at, || what),
                        }
                    }
                }
                66 => {
                    retired += reference.heap.len() as u64;
                    reference.clear();
                    lane.clear();
                    one_shots = 0;
                }
                _ => {
                    let popped = lane.pop();
                    prop_assert_eq!(popped, reference.pop(), "step {}", step);
                    match popped {
                        Some((_, Popped::OneShot(_))) => {
                            one_shots -= 1;
                            one_shot_pops += 1;
                        }
                        Some((_, Popped::Wake(_))) => wakeups += 1,
                        None => {}
                    }
                    prop_assert_eq!(lane.now(), reference.now, "step {}", step);
                }
            }
            prop_assert_eq!(lane.len(), one_shots + reference.armed(), "step {}", step);
            prop_assert_eq!(
                lane.next_at(),
                reference.clone().pop().map(|(at, _)| at),
                "step {}", step
            );
        }
        while let Some(popped) = lane.pop() {
            prop_assert_eq!(Some(popped), reference.pop());
            match popped.1 {
                Popped::OneShot(_) => one_shot_pops += 1,
                Popped::Wake(_) => wakeups += 1,
            }
        }
        prop_assert_eq!(reference.pop(), None);
        // What the lane no longer pops is exactly what the heap skipped,
        // or was left holding.
        prop_assert_eq!(
            reference.seq,
            one_shot_pops + wakeups + retired + reference.superseded_pops + reference.heap.len() as u64
        );
    }
}
