//! RLC Acknowledged and Unacknowledged modes with byte-level segmentation.
//!
//! The downlink RLC entity ([`RlcTx`]) owns the deep SDU queue whose
//! sojourn time L4Span minimises (paper §2: "the RLC buffer is designed to
//! be deep for reliable delivery, while … it worsens the sojourn time").
//! The receive side ([`RlcRx`]) reassembles segments, delivers SDUs in
//! order, and — in AM — generates the status reports that drive both ARQ
//! and the *highest delivered* half of the F1-U feedback.
//!
//! One 128-byte record, [`Sdu`] (SN, packet, CU ingress time), serves the
//! transmission queue, the AM unacknowledged store and Xn forwarding at
//! handover. What only the head SDU has — when it reached the front, its
//! first transmission, the bytes already pulled — is kept once per
//! entity.
//!
//! Simplifications relative to TS 38.322, documented here and in
//! DESIGN.md: sequence numbers are non-wrapping `u64`s (the 18-bit wrap is
//! bookkeeping that does not affect queueing behaviour); the PDCP
//! t-Reordering timer is folded into the receiver's in-order delivery
//! logic; t-StatusProhibit and t-Reassembly are merged into one periodic
//! status cadence.

use std::collections::VecDeque;

use l4span_net::PacketBuf;
use l4span_sim::{Duration, Instant};

use crate::config::RlcMode;

/// RLC/PDCP sequence number (logical, non-wrapping in the simulator).
pub type Sn = u64;

/// A byte range `[from, to)` within one SDU.
pub type ByteRange = (u32, u32);

/// One RLC segment inside a MAC transport block.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Sequence number of the SDU this segment belongs to.
    pub sn: Sn,
    /// First byte offset carried.
    pub offset: u32,
    /// Number of payload bytes carried.
    pub len: u32,
    /// Total size of the SDU (so the receiver knows when it is whole).
    pub sdu_size: u32,
    /// The reassembled packet rides with the segment that carries the
    /// SDU's final byte (a simulator shortcut; on a real link the bytes
    /// themselves are the payload).
    pub payload: Option<PacketBuf>,
}

impl Segment {
    /// True if this segment carries the final byte of its SDU.
    pub fn is_last(&self) -> bool {
        self.offset + self.len == self.sdu_size
    }
}

/// A NACK entry in an AM status report: SN plus missing byte range.
/// `(0, u32::MAX)` means "the whole SDU" (nothing of it arrived).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Nack {
    /// Sequence number being NACKed.
    pub sn: Sn,
    /// Missing range start.
    pub from: u32,
    /// Missing range end (exclusive).
    pub to: u32,
}

/// An RLC AM STATUS PDU from the receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RlcStatus {
    /// All SNs below this are fully received.
    pub ack_sn: Sn,
    /// Missing ranges at or above `ack_sn`.
    pub nacks: Vec<Nack>,
}

/// Per-SDU timing record emitted when the SDU has been fully handed to
/// the MAC ("transmitted" in F1-U terms).
#[derive(Debug, Clone, Copy)]
pub struct TxRecord {
    /// Sequence number.
    pub sn: Sn,
    /// Wire size of the SDU in bytes.
    pub size: usize,
    /// CU ingress time.
    pub t_ingress: Instant,
    /// When the SDU reached the head of the queue.
    pub t_head: Instant,
    /// When its first byte was scheduled.
    pub t_first_tx: Instant,
    /// When its last byte was handed to the MAC.
    pub t_txed: Instant,
}

/// One SDU as a transmit entity holds it, in whichever of its three
/// places: the transmission queue, the AM unacknowledged store, or the
/// set lifted out for Xn-style data forwarding at handover (TS 38.300
/// §9.2.3.2). It moves between them by value. A forwarded SDU keeps its
/// PDCP SN and CU ingress timestamp, so the target retransmits it
/// losslessly and its transmit record (queuing delay, the marker's
/// profile) spans the switch. Its size is the packet's wire length; how
/// far its transmission has got is kept by the entity, since only the
/// head of the queue is ever partly pulled.
#[derive(Debug, Clone, Copy)]
pub struct Sdu {
    /// PDCP sequence number (preserved across re-establishment).
    pub sn: Sn,
    /// The full SDU.
    pub pkt: PacketBuf,
    /// CU ingress timestamp.
    pub t_ingress: Instant,
}

// A deep queue holds thousands of these per bearer.
const _: () = assert!(size_of::<Sdu>() == 128);

impl Sdu {
    /// Size in bytes, checked to fit `u32` when the SDU entered the
    /// entity ([`RlcTx::push_sdu`]).
    fn size(&self) -> u32 {
        self.pkt.wire_len() as u32
    }
}

/// How far the SDU at the front of the transmission queue has got.
#[derive(Debug, Clone, Copy, Default)]
struct HeadProgress {
    /// When it reached the front.
    t_head: Option<Instant>,
    /// When its first byte was scheduled.
    t_first_tx: Option<Instant>,
    /// Bytes of it already handed to the MAC.
    txed: u32,
}

/// A pending retransmission range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RetxSeg {
    sn: Sn,
    from: u32,
    to: u32,
}

/// t-PollRetransmit analogue: with unacknowledged SDUs outstanding and
/// no status heard for this long, proactively retransmit the oldest one
/// (covers tail loss, where the receiver cannot know an SN existed).
const T_POLL_RETRANSMIT: Duration = Duration::from_millis(45);

/// First-use reservation of the unacknowledged store: a status period's
/// worth of SDUs never regrows it, and an entity that never transmits
/// (most bearers of a large world) never pays for it.
const UNACKED_RESERVE: usize = 32;

/// The SDU numbered `sn` in an SN-ordered unacknowledged store, if it is
/// still held. Tail drops leave holes in the numbering, so the position
/// is found by binary search, not by offset from the front.
fn find_unacked(unacked: &VecDeque<Sdu>, sn: Sn) -> Option<&Sdu> {
    let i = unacked.binary_search_by_key(&sn, |u| u.sn).ok()?;
    Some(&unacked[i])
}

/// Transmit RLC entity (one per DRB): the gNB's downlink bearers live in
/// the DU, the UE's uplink bearers in the UE. Queue, unacknowledged
/// store and forwarded set all hold the one [`Sdu`] record; the head
/// SDU's progress is kept once per entity.
#[derive(Debug)]
pub struct RlcTx {
    mode: RlcMode,
    capacity_sdus: usize,
    segment_overhead: usize,
    queue: VecDeque<Sdu>,
    /// Progress of `queue`'s front SDU; reset whenever it leaves.
    head: HeadProgress,
    retx: VecDeque<RetxSeg>,
    /// Byte sum of the ranges in `retx`.
    retx_bytes: usize,
    /// Fully-transmitted AM SDUs awaiting acknowledgement, in SN order
    /// (the order they are transmitted in); see [`find_unacked`].
    unacked: VecDeque<Sdu>,
    /// Bytes not yet handed to the MAC (queued SDUs minus pulled bytes).
    queued_bytes: usize,
    highest_txed: Option<Sn>,
    highest_delivered: Option<Sn>,
    /// SDUs dropped at enqueue because the queue was full.
    drops: u64,
    /// Last time a status report arrived (poll-retransmit reference).
    last_status_at: Instant,
    /// Last time the poll-retransmit fallback fired.
    last_poll_retx_at: Instant,
}

impl RlcTx {
    /// Create a transmit RLC entity.
    pub fn new(mode: RlcMode, capacity_sdus: usize, segment_overhead: usize) -> RlcTx {
        RlcTx {
            mode,
            capacity_sdus,
            segment_overhead,
            queue: VecDeque::new(),
            head: HeadProgress::default(),
            retx: VecDeque::new(),
            retx_bytes: 0,
            unacked: VecDeque::new(),
            queued_bytes: 0,
            highest_txed: None,
            highest_delivered: None,
            drops: 0,
            last_status_at: Instant::ZERO,
            last_poll_retx_at: Instant::ZERO,
        }
    }

    /// RLC mode of this entity.
    pub fn mode(&self) -> RlcMode {
        self.mode
    }

    /// Enqueue an SDU from PDCP. Returns `false` (and counts a drop) when
    /// the queue is at capacity — srsRAN's tail-drop behaviour that the
    /// 256-SDU configuration of Fig. 9 leans on.
    pub fn enqueue(&mut self, sn: Sn, pkt: PacketBuf, now: Instant) -> bool {
        self.admit(
            Sdu {
                sn,
                pkt,
                t_ingress: now,
            },
            now,
        )
    }

    /// The one enqueue path: the SDU's `t_ingress` is its CU ingress
    /// time (equal to `now` for fresh traffic, the original timestamp
    /// for SDUs forwarded at handover), `now` stamps the head-of-queue
    /// arrival.
    fn admit(&mut self, sdu: Sdu, now: Instant) -> bool {
        if self.queue.len() >= self.capacity_sdus {
            self.drops += 1;
            return false;
        }
        self.push_sdu(sdu, now);
        true
    }

    /// Append an SDU with no admission check (re-establishment path;
    /// the SDU already passed admission when it first entered).
    fn push_sdu(&mut self, sdu: Sdu, now: Instant) {
        // All offset arithmetic below is u32; a >4 GiB SDU would
        // silently wrap `as u32` into a tiny size, so reject it loudly
        // (no IP packet is remotely that large).
        let size = u32::try_from(sdu.pkt.wire_len()).expect("SDU exceeds the u32 offset space");
        if self.queue.is_empty() && self.retx.is_empty() {
            self.head.t_head = Some(now);
        }
        self.queued_bytes += size as usize;
        self.queue.push_back(sdu);
    }

    /// PDCP re-establishment for an entity that keeps serving the same
    /// bearer (the UE-side uplink transmit case, TS 38.323 §5.1.2):
    /// every SDU not yet confirmed delivered returns to the
    /// transmission queue in SN order, for retransmission in full
    /// toward the target cell. Unlike the [`RlcTx::drain_for_handover`]
    /// → [`RlcTx::enqueue_forwarded`] pair used when the entity changes
    /// hosts, **no capacity check applies**: each SDU already passed
    /// admission when it first entered this entity, and tail-dropping
    /// here would permanently stall the migrated receiver's in-order
    /// delivery point (AM never skips an SN).
    pub fn reestablish_requeue(&mut self, now: Instant) {
        for sdu in self.drain_for_handover() {
            self.push_sdu(sdu, now);
        }
    }

    /// Bytes awaiting (re)transmission: the MAC backlog for this DRB.
    pub fn backlog_bytes(&self) -> usize {
        debug_assert_eq!(
            self.retx_bytes,
            self.retx
                .iter()
                .map(|r| (r.to - r.from) as usize)
                .sum::<usize>()
        );
        self.queued_bytes + self.retx_bytes
    }

    /// SDUs currently sitting in the transmission queue (the "RLC queue
    /// length" metric of Fig. 17).
    pub fn queue_len_sdus(&self) -> usize {
        self.queue.len()
    }

    /// Count of SDUs tail-dropped at enqueue.
    pub fn drop_count(&self) -> u64 {
        self.drops
    }

    /// True while fully-transmitted SDUs await delivery confirmation
    /// (AM only; the uplink BSR probes for a grant while this holds so
    /// tail loss can be repaired via the poll-retransmit path).
    pub fn has_unacked(&self) -> bool {
        !self.unacked.is_empty()
    }

    /// Highest SN fully handed to the MAC, if any.
    pub fn highest_txed(&self) -> Option<Sn> {
        self.highest_txed
    }

    /// Highest SN confirmed delivered (AM), if any.
    pub fn highest_delivered(&self) -> Option<Sn> {
        self.highest_delivered
    }

    /// Pull up to `budget` bytes (including per-segment overhead) for a
    /// transport block. Retransmissions are served before new data, as
    /// TS 38.322 requires. Segments are streamed into `emit` (typically a
    /// push into the transport block's own buffer) and transmit records
    /// are appended to the caller's reusable `txed` scratch, so the MAC's
    /// per-slot hot path allocates nothing. Returns the bytes consumed
    /// (payload plus per-segment overhead).
    pub fn pull_with<F: FnMut(Segment)>(
        &mut self,
        mut budget: usize,
        now: Instant,
        txed: &mut Vec<TxRecord>,
        mut emit: F,
    ) -> usize {
        let mut consumed = 0usize;
        let oh = self.segment_overhead;
        // Poll-retransmit: unacked data, nothing queued for repair, and
        // silence from the receiver — resend the oldest unacked SDU so
        // the receiver's reassembly state goes dirty and a status comes
        // back (tail-loss recovery).
        if self.mode == RlcMode::Am && !self.unacked.is_empty() && self.retx.is_empty() {
            let reference = self.last_status_at.max(self.last_poll_retx_at);
            if now.saturating_since(reference) > T_POLL_RETRANSMIT {
                let sdu = self.unacked.front().expect("non-empty");
                self.retx.push_back(RetxSeg {
                    sn: sdu.sn,
                    from: 0,
                    to: sdu.size(),
                });
                self.retx_bytes += sdu.size() as usize;
                self.last_poll_retx_at = now;
            }
        }
        loop {
            if budget <= oh {
                break;
            }
            let avail = budget - oh;
            // 1. Retransmissions first.
            if let Some(r) = self.retx.front_mut() {
                let want = (r.to - r.from) as usize;
                // Lossless narrowing: bounded by `want`, itself a u32
                // range length.
                let take = want.min(avail) as u32;
                let sdu = find_unacked(&self.unacked, r.sn)
                    .expect("retx range for SDU not in unacked store");
                let size = sdu.size();
                let seg = Segment {
                    sn: r.sn,
                    offset: r.from,
                    len: take,
                    sdu_size: size,
                    payload: if r.from + take == size {
                        Some(sdu.pkt)
                    } else {
                        None
                    },
                };
                budget -= take as usize + oh;
                consumed += take as usize + oh;
                self.retx_bytes -= take as usize;
                r.from += take;
                if r.from >= r.to {
                    self.retx.pop_front();
                }
                emit(seg);
                continue;
            }
            // 2. New data.
            let Some(s) = self.queue.front() else {
                break;
            };
            let h = &mut self.head;
            let t_head = *h.t_head.get_or_insert(now);
            let t_first_tx = *h.t_first_tx.get_or_insert(now);
            let size = s.size();
            let remaining = (size - h.txed) as usize;
            // Lossless narrowing: bounded by `remaining`, itself a u32
            // difference.
            let take = remaining.min(avail) as u32;
            let last = h.txed + take == size;
            let seg = Segment {
                sn: s.sn,
                offset: h.txed,
                len: take,
                sdu_size: size,
                payload: if last { Some(s.pkt) } else { None },
            };
            h.txed += take;
            budget -= take as usize + oh;
            consumed += take as usize + oh;
            self.queued_bytes -= take as usize;
            emit(seg);
            if last {
                let done = self.queue.pop_front().expect("front exists");
                txed.push(TxRecord {
                    sn: done.sn,
                    size: size as usize,
                    t_ingress: done.t_ingress,
                    t_head,
                    t_first_tx,
                    t_txed: now,
                });
                self.highest_txed = Some(self.highest_txed.map_or(done.sn, |h| h.max(done.sn)));
                if self.mode == RlcMode::Am {
                    debug_assert!(
                        self.unacked.back().is_none_or(|u| u.sn < done.sn),
                        "SDUs are transmitted in SN order"
                    );
                    if self.unacked.capacity() == 0 {
                        self.unacked.reserve(UNACKED_RESERVE);
                    }
                    self.unacked.push_back(done);
                }
                // The next SDU, if any, reaches the queue front now.
                self.head = HeadProgress {
                    t_head: self.queue.front().map(|_| now),
                    ..HeadProgress::default()
                };
            }
        }
        consumed
    }

    /// PDCP re-establishment, transmit side (TS 38.323 §5.1.2): lift out
    /// every SDU not yet confirmed delivered — the unacknowledged store
    /// first (AM only; fully transmitted but unconfirmed), then the
    /// transmission queue (including a partially-pulled head SDU, whose
    /// already-transmitted bytes are simply retransmitted in full by the
    /// target) — in ascending SN order, for forwarding to the target
    /// cell. The entity is left empty; pending retransmission ranges are
    /// dropped (the whole SDUs travel instead). Drop/delivery counters
    /// survive, as they describe this entity's history.
    pub fn drain_for_handover(&mut self) -> Vec<Sdu> {
        let mut out = Vec::with_capacity(self.unacked.len() + self.queue.len());
        // Pull order is strictly SN order, so every unacked SN precedes
        // every queued SN: chaining the two stores keeps ascending order.
        out.extend(self.unacked.drain(..));
        out.extend(self.queue.drain(..));
        self.head = HeadProgress::default();
        self.retx.clear();
        self.retx_bytes = 0;
        self.queued_bytes = 0;
        self.highest_txed = None;
        out
    }

    /// Accept an SDU forwarded from a source cell at handover: enqueued
    /// as new data under its *original* SN with its *original* CU ingress
    /// timestamp (PDCP SNs and queuing-delay accounting are continuous
    /// across re-establishment). Subject to the same tail-drop capacity
    /// check as fresh traffic. `now` stamps the head-of-queue arrival.
    pub fn enqueue_forwarded(&mut self, fwd: Sdu, now: Instant) -> bool {
        self.admit(fwd, now)
    }

    /// Process an AM status report from the UE: SDUs below `ack_sn` are
    /// released (returns how many were newly acknowledged), NACKed
    /// ranges join the retransmission queue.
    pub fn on_status(&mut self, status: &RlcStatus, now: Instant) -> usize {
        assert_eq!(self.mode, RlcMode::Am, "status report in UM");
        self.last_status_at = now;
        // Cumulative ACK: everything below ack_sn.
        let mut acked = 0;
        while let Some(sn) = self.unacked.front().map(|u| u.sn) {
            if sn >= status.ack_sn {
                break;
            }
            self.unacked.pop_front();
            acked += 1;
            self.highest_delivered = Some(self.highest_delivered.map_or(sn, |h| h.max(sn)));
        }
        // NACKs: queue retransmission ranges (deduplicated).
        for n in &status.nacks {
            let Some(sdu) = find_unacked(&self.unacked, n.sn) else {
                continue; // already acknowledged or never transmitted
            };
            // No SDU is empty (its size counts the IP header), so an
            // empty range after clamping asks for nothing.
            let size = sdu.size();
            let (from, to) = (n.from.min(size), n.to.min(size));
            if from >= to {
                continue;
            }
            let seg = RetxSeg { sn: n.sn, from, to };
            if !self.retx.contains(&seg) {
                self.retx.push_back(seg);
                self.retx_bytes += (to - from) as usize;
            }
        }
        // Retx ranges for SNs that just got acked are stale; drop them.
        let (unacked, retx_bytes) = (&self.unacked, &mut self.retx_bytes);
        self.retx.retain(|r| {
            let live = find_unacked(unacked, r.sn).is_some();
            if !live {
                *retx_bytes -= (r.to - r.from) as usize;
            }
            live
        });
        acked
    }
}

/// State of one partially-received SDU at the UE.
#[derive(Debug)]
struct RxEntry {
    sn: Sn,
    /// Received byte ranges, kept merged and sorted. The buffer comes
    /// from (and returns to) the entity's `range_pool`: creating
    /// reassembly state is a per-SDU operation and must not allocate.
    ranges: Vec<ByteRange>,
    size: u32,
    payload: Option<PacketBuf>,
    t_first: Instant,
}

impl RxEntry {
    /// Add `[from, to)` to the ranges, which stay sorted with touching
    /// or overlapping ranges merged. Merges in place: an in-order
    /// segment only extends the last range.
    fn add_range(&mut self, from: u32, to: u32) {
        let r = &mut self.ranges;
        // `i..j` are the ranges the new one touches or overlaps.
        let i = r.partition_point(|&(_, t)| t < from);
        let j = r.partition_point(|&(f, _)| f <= to);
        if i == j {
            r.insert(i, (from, to));
        } else {
            r[i] = (r[i].0.min(from), r[j - 1].1.max(to));
            r.drain(i + 1..j);
        }
    }

    fn complete(&self) -> bool {
        self.ranges == [(0, self.size)] && self.payload.is_some()
    }

    /// Call `gap` with each byte range still missing, in offset order.
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
        // Fully covered byte-wise but the payload-carrying (final)
        // segment was lost: re-request the tail so it travels again.
        if !any && self.payload.is_none() {
            gap(self.size.saturating_sub(1), self.size);
        }
    }
}

/// An SDU delivered up from the UE's RLC.
#[derive(Debug)]
pub struct RxDelivery {
    /// The reassembled IP packet.
    pub pkt: PacketBuf,
    /// Sequence number it carried.
    pub sn: Sn,
}

/// Receive-side RLC entity (one per DRB) living in the UE.
#[derive(Debug)]
pub struct RlcRx {
    mode: RlcMode,
    /// The reassembly window: partially received or out-of-order SDUs in
    /// SN order, every SN ≥ `next_expected`. A handful of entries at
    /// most in practice, so the occasional mid-window insert is cheap.
    entries: VecDeque<RxEntry>,
    /// Lowest SN not yet delivered up.
    next_expected: Sn,
    /// Highest SN seen at all (for gap NACKs).
    highest_seen: Option<Sn>,
    /// In-order skip timeout for UM (folded PDCP t-Reordering).
    reassembly_timeout: Duration,
    status_period: Duration,
    last_status: Instant,
    /// Something changed since the last status (forces a report).
    dirty: bool,
    /// SDUs dropped by the UM skip timer.
    skipped: u64,
    /// The NACK buffer of a consumed status report, handed back through
    /// [`RlcRx::recycle_status`] for the next report to reuse.
    spare_nacks: Vec<Nack>,
    /// Emptied range buffers of delivered SDUs, for the next entries.
    range_pool: Vec<Vec<ByteRange>>,
}

impl RlcRx {
    /// Create a receive-side entity.
    pub fn new(mode: RlcMode, status_period: Duration) -> RlcRx {
        RlcRx {
            mode,
            entries: VecDeque::new(),
            next_expected: 0,
            highest_seen: None,
            reassembly_timeout: Duration::from_millis(50),
            status_period,
            last_status: Instant::ZERO,
            dirty: false,
            skipped: 0,
            spare_nacks: Vec::new(),
            range_pool: Vec::new(),
        }
    }

    /// Count of SDUs abandoned by the UM reassembly timeout.
    pub fn skipped_count(&self) -> u64 {
        self.skipped
    }

    /// Adopt a new status-report cadence (the serving cell's
    /// t-StatusProhibit analogue changes when the UE hands over to a
    /// cell with a different configuration).
    pub fn set_status_period(&mut self, period: Duration) {
        self.status_period = period;
    }

    /// Ingest one segment: SDUs that became deliverable in order are
    /// appended to `out` (the per-segment downlink hot path).
    pub fn on_segment_into(&mut self, seg: Segment, now: Instant, out: &mut Vec<RxDelivery>) {
        if seg.sn < self.next_expected {
            return; // duplicate of already-delivered data
        }
        self.highest_seen = Some(self.highest_seen.map_or(seg.sn, |h| h.max(seg.sn)));
        self.dirty = true;
        let i = match self.entries.binary_search_by_key(&seg.sn, |e| e.sn) {
            Ok(i) => i,
            Err(i) => {
                let entry = RxEntry {
                    sn: seg.sn,
                    ranges: self.range_pool.pop().unwrap_or_default(),
                    size: seg.sdu_size,
                    payload: None,
                    t_first: now,
                };
                self.entries.insert(i, entry);
                i
            }
        };
        let entry = &mut self.entries[i];
        entry.add_range(seg.offset, seg.offset + seg.len);
        if let Some(p) = seg.payload {
            entry.payload = Some(p);
        }
        self.deliver_in_order(out)
    }

    /// The entry of `next_expected`, if any of it has arrived: the front
    /// of the window, as no entry is older.
    fn head(&self) -> Option<&RxEntry> {
        self.entries.front().filter(|e| e.sn == self.next_expected)
    }

    /// Deliver the run of complete SDUs starting at `next_expected`.
    fn deliver_in_order(&mut self, out: &mut Vec<RxDelivery>) {
        while self.head().is_some_and(RxEntry::complete) {
            let sn = self.next_expected;
            let mut e = self.entries.pop_front().expect("present");
            out.push(RxDelivery {
                pkt: e.payload.take().expect("complete implies payload"),
                sn,
            });
            // Bounded so a reordering burst cannot pin memory.
            if self.range_pool.len() < 64 {
                e.ranges.clear();
                self.range_pool.push(e.ranges);
            }
            self.next_expected += 1;
        }
    }

    /// Timer poll: in UM, skip SDUs stuck longer than the reassembly
    /// timeout so later traffic keeps flowing (the skipped SDU is lost);
    /// skipped-past SDUs that became deliverable are appended to `out`.
    pub fn poll_into(&mut self, now: Instant, out: &mut Vec<RxDelivery>) {
        if self.mode == RlcMode::Am {
            return;
        }
        loop {
            // Is the head-of-line SDU stuck? Either itself, or — when
            // nothing of it arrived — the oldest SDU waiting behind it: a
            // whole SDU may be lost while later ones wait.
            let stuck = self.entries.front().is_some_and(|e| {
                !(e.sn == self.next_expected && e.complete())
                    && now.saturating_since(e.t_first) > self.reassembly_timeout
            });
            if !stuck {
                break;
            }
            if self.head().is_some() {
                self.entries.pop_front();
                self.skipped += 1;
            }
            self.next_expected += 1;
            self.deliver_in_order(out);
        }
    }

    /// PDCP re-establishment, receive side (TS 38.323 §5.1.2): the RLC
    /// entity under this receiver is reset, so partially-reassembled
    /// SDUs (whose missing segments died with the source cell) are
    /// discarded; complete-but-undelivered SDUs stay in the PDCP
    /// reordering buffer (`next_expected` and in-order delivery are
    /// continuous across the switch). The receiver is marked dirty so
    /// the next uplink opportunity carries a status report — the PDCP
    /// status report that tells the target what to retransmit.
    pub fn reestablish(&mut self) {
        self.entries.retain(RxEntry::complete);
        self.dirty = true;
    }

    /// Whether [`RlcRx::make_status`] would emit a report at `now`
    /// (its `None` path is mutation-free, so callers may use this as a
    /// cheap skip predicate without changing behaviour).
    pub fn status_due(&self, now: Instant) -> bool {
        let outstanding = self.highest_seen.is_some_and(|h| h >= self.next_expected);
        self.mode == RlcMode::Am
            && (self.dirty || outstanding)
            && now.saturating_since(self.last_status) >= self.status_period
    }

    /// Produce a status report if the cadence allows and there is news —
    /// or while any gap is still outstanding, so a lost *retransmission*
    /// is re-NACKed on the next cycle instead of stalling ARQ forever
    /// (the t-Reassembly re-trigger of TS 38.322). AM only.
    pub fn make_status(&mut self, now: Instant) -> Option<RlcStatus> {
        if !self.status_due(now) {
            return None;
        }
        self.last_status = now;
        self.dirty = false;
        let mut nacks = std::mem::take(&mut self.spare_nacks);
        if let Some(high) = self.highest_seen {
            // Walk the SN range and the (SN-ordered) window side by side.
            let mut held = self.entries.iter().peekable();
            for sn in self.next_expected..=high {
                match held.next_if(|e| e.sn == sn) {
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

    /// Hand a consumed status report back to the entity that made it, so
    /// its NACK buffer serves the next [`RlcRx::make_status`] instead of
    /// a fresh allocation per report. Optional: a report that is simply
    /// dropped costs one allocation later, nothing else.
    pub fn recycle_status(&mut self, status: RlcStatus) {
        let mut nacks = status.nacks;
        if nacks.capacity() > self.spare_nacks.capacity() {
            nacks.clear();
            self.spare_nacks = nacks;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l4span_net::{Ecn, TcpHeader};

    fn pkt(len: usize) -> PacketBuf {
        let hdr = TcpHeader {
            src_port: 443,
            dst_port: 1000,
            ..TcpHeader::default()
        };
        PacketBuf::tcp(1, 2, Ecn::Ect1, 0, &hdr, len)
    }

    const OH: usize = 8;

    fn tx(mode: RlcMode) -> RlcTx {
        RlcTx::new(mode, 16, OH)
    }

    /// The SDUs one arriving segment makes deliverable.
    fn recv(rx: &mut RlcRx, seg: Segment, now: Instant) -> Vec<RxDelivery> {
        let mut out = Vec::new();
        rx.on_segment_into(seg, now, &mut out);
        out
    }

    /// The SDUs a timer poll at `now` releases.
    fn poll(rx: &mut RlcRx, now: Instant) -> Vec<RxDelivery> {
        let mut out = Vec::new();
        rx.poll_into(now, &mut out);
        out
    }

    /// What one pull of up to `budget` bytes at `now` produced.
    struct Pulled {
        segments: Vec<Segment>,
        consumed: usize,
        txed: Vec<TxRecord>,
    }

    fn pull(t: &mut RlcTx, budget: usize, now: Instant) -> Pulled {
        let (mut segments, mut txed) = (Vec::new(), Vec::new());
        let consumed = t.pull_with(budget, now, &mut txed, |s| segments.push(s));
        Pulled {
            segments,
            consumed,
            txed,
        }
    }

    #[test]
    fn enqueue_pull_whole_sdu() {
        let mut t = tx(RlcMode::Um);
        let p = pkt(960); // wire 1000
        assert!(t.enqueue(0, p, Instant::ZERO));
        assert_eq!(t.backlog_bytes(), 1000);
        let r = pull(&mut t, 2000, Instant::from_millis(1));
        assert_eq!(r.segments.len(), 1);
        assert!(r.segments[0].is_last());
        assert!(r.segments[0].payload.is_some());
        assert_eq!(r.consumed, 1000 + OH);
        assert_eq!(r.txed.len(), 1);
        assert_eq!(t.backlog_bytes(), 0);
        assert_eq!(t.highest_txed(), Some(0));
    }

    #[test]
    fn segmentation_respects_budget() {
        let mut t = tx(RlcMode::Um);
        t.enqueue(0, pkt(1460), Instant::ZERO); // wire 1500
        let r1 = pull(&mut t, 600, Instant::from_millis(1));
        assert_eq!(r1.segments.len(), 1);
        assert_eq!(r1.segments[0].len as usize, 600 - OH);
        assert!(!r1.segments[0].is_last());
        assert!(r1.segments[0].payload.is_none());
        assert!(r1.txed.is_empty());
        let r2 = pull(&mut t, 10_000, Instant::from_millis(2));
        assert_eq!(r2.segments.len(), 1);
        assert!(r2.segments[0].is_last());
        assert_eq!(
            r1.segments[0].len + r2.segments[0].len,
            1500,
            "all bytes transmitted exactly once"
        );
        assert_eq!(r2.txed.len(), 1);
    }

    #[test]
    fn pull_with_tiny_budget_does_nothing() {
        let mut t = tx(RlcMode::Um);
        t.enqueue(0, pkt(100), Instant::ZERO);
        let r = pull(&mut t, OH, Instant::ZERO); // budget <= overhead
        assert!(r.segments.is_empty());
        assert_eq!(r.consumed, 0);
    }

    #[test]
    fn queue_overflow_drops() {
        let mut t = RlcTx::new(RlcMode::Um, 2, OH);
        assert!(t.enqueue(0, pkt(100), Instant::ZERO));
        assert!(t.enqueue(1, pkt(100), Instant::ZERO));
        assert!(!t.enqueue(2, pkt(100), Instant::ZERO));
        assert_eq!(t.drop_count(), 1);
        assert_eq!(t.queue_len_sdus(), 2);
    }

    #[test]
    fn am_keeps_unacked_and_acks_release() {
        let mut t = tx(RlcMode::Am);
        t.enqueue(0, pkt(500), Instant::ZERO);
        t.enqueue(1, pkt(500), Instant::ZERO);
        pull(&mut t, 10_000, Instant::from_millis(1));
        assert_eq!(t.highest_txed(), Some(1));
        assert_eq!(t.highest_delivered(), None);
        let acked = t.on_status(
            &RlcStatus {
                ack_sn: 2,
                nacks: vec![],
            },
            Instant::from_millis(20),
        );
        assert_eq!(acked, 2);
        assert_eq!(t.highest_delivered(), Some(1));
        assert!(!t.has_unacked());
    }

    #[test]
    fn nack_triggers_retx_before_new_data() {
        let mut t = tx(RlcMode::Am);
        t.enqueue(0, pkt(500), Instant::ZERO);
        pull(&mut t, 10_000, Instant::from_millis(1));
        t.enqueue(1, pkt(500), Instant::from_millis(2));
        t.on_status(
            &RlcStatus {
                ack_sn: 0,
                nacks: vec![Nack {
                    sn: 0,
                    from: 0,
                    to: u32::MAX,
                }],
            },
            Instant::from_millis(10),
        );
        let r = pull(&mut t, 10_000, Instant::from_millis(11));
        // Retx of SN 0 must precede new SN 1.
        assert_eq!(r.segments[0].sn, 0);
        assert_eq!(r.segments[0].offset, 0);
        assert!(r.segments[0].is_last());
        assert!(r.segments[0].payload.is_some());
        assert_eq!(r.segments[1].sn, 1);
    }

    #[test]
    fn poll_retransmit_recovers_tail_loss() {
        // The final SDU's only transmission is lost: the receiver never
        // learns the SN exists, so only the transmitter-side timer can
        // recover it.
        let mut t = tx(RlcMode::Am);
        t.enqueue(0, pkt(500), Instant::ZERO);
        let first = pull(&mut t, 10_000, Instant::from_millis(1));
        assert_eq!(first.segments.len(), 1); // ...and we pretend it's lost
                                             // Well within the poll timer: nothing happens.
        let quiet = pull(&mut t, 10_000, Instant::from_millis(20));
        assert!(quiet.segments.is_empty());
        // After T_POLL_RETRANSMIT of silence: the SDU is retransmitted.
        let retx = pull(&mut t, 10_000, Instant::from_millis(60));
        assert_eq!(retx.segments.len(), 1);
        assert_eq!(retx.segments[0].sn, 0);
        assert!(retx.segments[0].payload.is_some());
        // And it does not machine-gun: the next pull is quiet again.
        let quiet2 = pull(&mut t, 10_000, Instant::from_millis(61));
        assert!(quiet2.segments.is_empty());
    }

    #[test]
    fn duplicate_nacks_are_not_requeued() {
        let mut t = tx(RlcMode::Am);
        t.enqueue(0, pkt(500), Instant::ZERO);
        pull(&mut t, 10_000, Instant::from_millis(1));
        let nack = RlcStatus {
            ack_sn: 0,
            nacks: vec![Nack {
                sn: 0,
                from: 0,
                to: u32::MAX,
            }],
        };
        t.on_status(&nack, Instant::from_millis(10));
        t.on_status(&nack, Instant::from_millis(11));
        let r = pull(&mut t, 100_000, Instant::from_millis(12));
        let count_sn0 = r.segments.iter().filter(|s| s.sn == 0).count();
        assert_eq!(count_sn0, 1, "retransmit once, not twice");
    }

    #[test]
    fn handover_drain_forwards_unacked_then_queued_in_sn_order() {
        let mut t = tx(RlcMode::Am);
        // SN 0: fully transmitted, unacked. SN 1: partially pulled.
        // SN 2: untouched in the queue.
        t.enqueue(0, pkt(492), Instant::ZERO); // wire 532
        pull(&mut t, 1000, Instant::from_millis(1));
        t.enqueue(1, pkt(1460), Instant::from_millis(2)); // wire 1500
        t.enqueue(2, pkt(500), Instant::from_millis(3));
        pull(&mut t, 600, Instant::from_millis(4)); // SN 1 partially out
        let fwd = t.drain_for_handover();
        assert_eq!(
            fwd.iter().map(|f| f.sn).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "ascending SN order: unacked first, then the queue"
        );
        assert_eq!(fwd[1].t_ingress, Instant::from_millis(2));
        assert_eq!(t.backlog_bytes(), 0);
        assert_eq!(t.queue_len_sdus(), 0);
        assert_eq!(t.highest_txed(), None);
        // Target side: forwarded SDUs re-enqueue as new data.
        let mut target = tx(RlcMode::Am);
        for f in fwd {
            assert!(target.enqueue_forwarded(f, Instant::from_millis(5)));
        }
        let r = pull(&mut target, 100_000, Instant::from_millis(6));
        let sns: Vec<Sn> = r.segments.iter().map(|s| s.sn).collect();
        assert_eq!(sns, vec![0, 1, 2], "full retransmission at the target");
        assert!(
            r.segments
                .iter()
                .all(|s| s.is_last() && s.payload.is_some()),
            "ample budget: every forwarded SDU travels whole"
        );
    }

    #[test]
    fn handover_drain_respects_delivery_confirmations() {
        let mut t = tx(RlcMode::Am);
        t.enqueue(0, pkt(500), Instant::ZERO);
        t.enqueue(1, pkt(500), Instant::ZERO);
        pull(&mut t, 10_000, Instant::from_millis(1));
        // SN 0 confirmed delivered: it must NOT be forwarded.
        t.on_status(
            &RlcStatus {
                ack_sn: 1,
                nacks: vec![],
            },
            Instant::from_millis(5),
        );
        let fwd = t.drain_for_handover();
        assert_eq!(fwd.len(), 1);
        assert_eq!(fwd[0].sn, 1);
    }

    #[test]
    fn enqueue_forwarded_respects_capacity() {
        let mut t = RlcTx::new(RlcMode::Am, 1, OH);
        let f0 = Sdu {
            sn: 0,
            pkt: pkt(100),
            t_ingress: Instant::ZERO,
        };
        let f1 = Sdu {
            sn: 1,
            pkt: pkt(100),
            t_ingress: Instant::ZERO,
        };
        assert!(t.enqueue_forwarded(f0, Instant::ZERO));
        assert!(!t.enqueue_forwarded(f1, Instant::ZERO));
        assert_eq!(t.drop_count(), 1);
    }

    #[test]
    fn rx_reestablish_drops_partials_keeps_completes() {
        let mut rx = RlcRx::new(RlcMode::Am, Duration::from_millis(10));
        // SN 1 complete (held for SN 0); SN 2 partial.
        recv(
            &mut rx,
            Segment {
                sn: 1,
                offset: 0,
                len: 1000,
                sdu_size: 1000,
                payload: Some(pkt(960)),
            },
            Instant::from_millis(1),
        );
        recv(
            &mut rx,
            Segment {
                sn: 2,
                offset: 0,
                len: 300,
                sdu_size: 1000,
                payload: None,
            },
            Instant::from_millis(2),
        );
        rx.reestablish();
        // Status goes out at the next opportunity and still NACKs the
        // gap (SN 0) plus the now-discarded partial (SN 2).
        let st = rx.make_status(Instant::from_millis(20)).unwrap();
        assert_eq!(st.ack_sn, 0);
        assert!(st.nacks.iter().any(|n| n.sn == 0));
        assert!(st.nacks.iter().any(|n| n.sn == 2));
        // The target retransmits SN 0 in full: SN 0 and the buffered
        // SN 1 deliver in order, with no duplicate of SN 1.
        let d = recv(
            &mut rx,
            Segment {
                sn: 0,
                offset: 0,
                len: 1000,
                sdu_size: 1000,
                payload: Some(pkt(960)),
            },
            Instant::from_millis(25),
        );
        assert_eq!(d.iter().map(|x| x.sn).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn rx_reassembles_out_of_order_segments() {
        let mut rx = RlcRx::new(RlcMode::Am, Duration::from_millis(10));
        let p = pkt(960);
        let mk = |off: u32, len: u32, with_payload: bool| Segment {
            sn: 0,
            offset: off,
            len,
            sdu_size: 1000,
            payload: if with_payload { Some(p) } else { None },
        };
        // Tail first, then head.
        assert!(recv(&mut rx, mk(500, 500, true), Instant::from_millis(1)).is_empty());
        let d = recv(&mut rx, mk(0, 500, false), Instant::from_millis(2));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].sn, 0);
    }

    #[test]
    fn rx_delivers_in_order_only() {
        let mut rx = RlcRx::new(RlcMode::Am, Duration::from_millis(10));
        let seg = |sn: Sn| Segment {
            sn,
            offset: 0,
            len: 1000,
            sdu_size: 1000,
            payload: Some(pkt(960)),
        };
        // SN 1 arrives before SN 0: held back.
        assert!(recv(&mut rx, seg(1), Instant::from_millis(1)).is_empty());
        let d = recv(&mut rx, seg(0), Instant::from_millis(2));
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].sn, 0);
        assert_eq!(d[1].sn, 1);
    }

    #[test]
    fn status_report_carries_gaps() {
        let mut rx = RlcRx::new(RlcMode::Am, Duration::from_millis(10));
        // SN 0 partially received, SN 2 complete, SN 1 never seen.
        recv(
            &mut rx,
            Segment {
                sn: 0,
                offset: 0,
                len: 400,
                sdu_size: 1000,
                payload: None,
            },
            Instant::from_millis(1),
        );
        recv(
            &mut rx,
            Segment {
                sn: 2,
                offset: 0,
                len: 1000,
                sdu_size: 1000,
                payload: Some(pkt(960)),
            },
            Instant::from_millis(2),
        );
        let st = rx.make_status(Instant::from_millis(20)).unwrap();
        assert_eq!(st.ack_sn, 0);
        assert!(st.nacks.contains(&Nack {
            sn: 0,
            from: 400,
            to: 1000
        }));
        assert!(st.nacks.contains(&Nack {
            sn: 1,
            from: 0,
            to: u32::MAX
        }));
        // SN 2 complete: no nack for it.
        assert!(!st.nacks.iter().any(|n| n.sn == 2));
    }

    #[test]
    fn status_respects_cadence_and_dirty_flag() {
        let mut rx = RlcRx::new(RlcMode::Am, Duration::from_millis(10));
        assert!(
            rx.make_status(Instant::from_millis(100)).is_none(),
            "nothing to report"
        );
        recv(
            &mut rx,
            Segment {
                sn: 0,
                offset: 0,
                len: 1000,
                sdu_size: 1000,
                payload: Some(pkt(960)),
            },
            Instant::from_millis(100),
        );
        let st = rx.make_status(Instant::from_millis(105)).unwrap();
        assert_eq!(st.ack_sn, 1);
        assert!(st.nacks.is_empty());
        // New data arrives straight away: the prohibit timer gates the
        // next report until a full period after the last one.
        recv(
            &mut rx,
            Segment {
                sn: 1,
                offset: 0,
                len: 1000,
                sdu_size: 1000,
                payload: Some(pkt(960)),
            },
            Instant::from_millis(106),
        );
        assert!(
            rx.make_status(Instant::from_millis(110)).is_none(),
            "prohibit timer"
        );
        let st2 = rx.make_status(Instant::from_millis(116)).unwrap();
        assert_eq!(st2.ack_sn, 2);
        assert!(
            rx.make_status(Instant::from_millis(130)).is_none(),
            "no news"
        );
    }

    #[test]
    fn um_skips_stuck_sdu_after_timeout() {
        let mut rx = RlcRx::new(RlcMode::Um, Duration::from_millis(10));
        // SN 0 partial (stuck), SN 1 complete behind it.
        recv(
            &mut rx,
            Segment {
                sn: 0,
                offset: 0,
                len: 100,
                sdu_size: 1000,
                payload: None,
            },
            Instant::from_millis(0),
        );
        let held = recv(
            &mut rx,
            Segment {
                sn: 1,
                offset: 0,
                len: 1000,
                sdu_size: 1000,
                payload: Some(pkt(960)),
            },
            Instant::from_millis(1),
        );
        assert!(held.is_empty());
        assert!(
            poll(&mut rx, Instant::from_millis(20)).is_empty(),
            "not timed out yet"
        );
        let d = poll(&mut rx, Instant::from_millis(60));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].sn, 1);
        assert_eq!(rx.skipped_count(), 1);
    }

    #[test]
    fn um_skips_wholly_missing_sdu() {
        let mut rx = RlcRx::new(RlcMode::Um, Duration::from_millis(10));
        // SN 1 complete, SN 0 never arrives at all.
        recv(
            &mut rx,
            Segment {
                sn: 1,
                offset: 0,
                len: 1000,
                sdu_size: 1000,
                payload: Some(pkt(960)),
            },
            Instant::from_millis(0),
        );
        let d = poll(&mut rx, Instant::from_millis(60));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].sn, 1);
    }

    /// An entry holding `ranges` of a `size`-byte SDU.
    fn entry(ranges: &[ByteRange], size: u32, payload: Option<PacketBuf>) -> RxEntry {
        RxEntry {
            sn: 0,
            ranges: ranges.to_vec(),
            size,
            payload,
            t_first: Instant::ZERO,
        }
    }

    fn missing(e: &RxEntry) -> Vec<ByteRange> {
        let mut gaps = Vec::new();
        e.for_each_missing(|f, t| gaps.push((f, t)));
        gaps
    }

    #[test]
    fn add_range_matches_sort_and_merge() {
        // Reference: push, sort, then merge touching neighbours.
        fn reference(ranges: &mut Vec<ByteRange>, from: u32, to: u32) {
            ranges.push((from, to));
            ranges.sort_unstable();
            let mut w = 0;
            for i in 1..ranges.len() {
                let (f, t) = ranges[i];
                if f <= ranges[w].1 {
                    ranges[w].1 = ranges[w].1.max(t);
                } else {
                    w += 1;
                    ranges[w] = (f, t);
                }
            }
            ranges.truncate(w + 1);
        }
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((x >> 33) % n) as u32
        };
        for _ in 0..2000 {
            let mut e = entry(&[], 64, None);
            let mut want = Vec::new();
            for _ in 0..next(12) {
                let from = next(65);
                let to = from + next(65 - u64::from(from));
                e.add_range(from, to);
                reference(&mut want, from, to);
                assert_eq!(e.ranges, want);
            }
        }
    }

    #[test]
    fn lost_payload_segment_is_renacked() {
        // Byte coverage complete but the final (payload-carrying) segment
        // never arrived: the entry must request the tail again.
        let e = entry(&[(0, 1000)], 1000, None);
        assert_eq!(missing(&e), vec![(999, 1000)]);
        assert!(!e.complete());
    }

    #[test]
    fn zero_size_entry_gap_and_completion() {
        // A zero-size SDU whose (empty, payload-carrying) segment was
        // lost reports the empty (0, 0) gap …
        let e = entry(&[], 0, None);
        assert_eq!(missing(&e), vec![(0, 0)]);
        assert!(!e.complete());
        // … and is complete once that segment arrives.
        let e = entry(&[(0, 0)], 0, Some(pkt(0)));
        assert!(missing(&e).is_empty());
        assert!(e.complete());
    }

    #[test]
    fn an_empty_nack_range_is_a_no_op() {
        // No SDU is empty (even a bare packet has its headers), so a NACK
        // whose range clamps to nothing queues no retransmission.
        assert!(pkt(0).wire_len() > 0);
        let mut t = tx(RlcMode::Am);
        t.enqueue(8, pkt(100), Instant::ZERO); // wire 140
        pull(&mut t, 1000, Instant::from_millis(1));
        for (from, to) in [(5, 5), (0, 0), (140, u32::MAX)] {
            let status = RlcStatus {
                ack_sn: 8,
                nacks: vec![Nack { sn: 8, from, to }],
            };
            t.on_status(&status, Instant::from_millis(3));
            assert!(t.retx.is_empty(), "({from}, {to}) asks for nothing");
        }
    }

    /// `(sn, t_head, t_first_tx)` of each transmit record, in ms.
    fn head_times(r: &Pulled) -> Vec<(Sn, Instant, Instant)> {
        r.txed
            .iter()
            .map(|x| (x.sn, x.t_head, x.t_first_tx))
            .collect()
    }

    #[test]
    fn head_times_follow_the_queue_front() {
        let ms = Instant::from_millis;
        // Pushed into an empty queue: at the front from its push.
        let mut t = tx(RlcMode::Am);
        t.enqueue(0, pkt(460), ms(1)); // wire 500
        let r = pull(&mut t, 10_000, ms(5));
        assert_eq!(head_times(&r), vec![(0, ms(1), ms(5))]);
        // Pushed while a retransmission is pending: at the front from the
        // first pull that reaches new data (the pull at 20 ms only
        // retransmits).
        t.on_status(
            &RlcStatus {
                ack_sn: 0,
                nacks: vec![Nack {
                    sn: 0,
                    from: 0,
                    to: u32::MAX,
                }],
            },
            ms(10),
        );
        t.enqueue(1, pkt(460), ms(11));
        assert!(pull(&mut t, 500 + OH, ms(20)).txed.is_empty());
        let r = pull(&mut t, 10_000, ms(25));
        assert_eq!(head_times(&r), vec![(1, ms(25), ms(25))]);
        // Split over several pulls: first transmission at the first one.
        let mut t = tx(RlcMode::Um);
        t.enqueue(0, pkt(1460), ms(0)); // wire 1500
        assert!(pull(&mut t, 600, ms(2)).txed.is_empty());
        assert!(pull(&mut t, 600, ms(3)).txed.is_empty());
        let r = pull(&mut t, 10_000, ms(4));
        assert_eq!(r.segments[0].offset, 2 * (600 - OH as u32));
        assert_eq!(head_times(&r), vec![(0, ms(0), ms(2))]);
        // Pop: the next SDU reaches the front when the one ahead leaves.
        let mut t = tx(RlcMode::Um);
        t.enqueue(0, pkt(460), ms(0));
        t.enqueue(1, pkt(460), ms(0));
        let r = pull(&mut t, 500 + OH, ms(2));
        assert_eq!(head_times(&r), vec![(0, ms(0), ms(2))]);
        let r = pull(&mut t, 10_000, ms(7));
        assert_eq!(head_times(&r), vec![(1, ms(2), ms(7))]);
        // Drain at handover with the head partly pulled, then forward:
        // the target's front is the first forwarded SDU from its enqueue,
        // and the source starts its next SDU afresh.
        let mut src = tx(RlcMode::Am);
        src.enqueue(0, pkt(1460), ms(0));
        src.enqueue(1, pkt(460), ms(1));
        pull(&mut src, 600, ms(2));
        let mut target = tx(RlcMode::Am);
        for f in src.drain_for_handover() {
            assert!(target.enqueue_forwarded(f, ms(10)));
        }
        let r = pull(&mut target, 10_000, ms(12));
        assert_eq!(r.segments[0].offset, 0);
        assert_eq!(
            head_times(&r),
            vec![(0, ms(10), ms(12)), (1, ms(12), ms(12))]
        );
        assert_eq!(r.txed[1].t_ingress, ms(1));
        src.enqueue(2, pkt(460), ms(15));
        let r = pull(&mut src, 10_000, ms(16));
        assert_eq!(r.segments[0].offset, 0);
        assert_eq!(head_times(&r), vec![(2, ms(15), ms(16))]);
        // UE-side re-establishment: unacked, partial and queued SDUs
        // return to the queue, the first at its front from the requeue.
        let mut ue = tx(RlcMode::Am);
        ue.enqueue(0, pkt(460), ms(0));
        pull(&mut ue, 10_000, ms(1));
        ue.enqueue(1, pkt(1460), ms(2));
        ue.enqueue(2, pkt(460), ms(2));
        pull(&mut ue, 600, ms(3));
        ue.reestablish_requeue(ms(10));
        let r = pull(&mut ue, 10_000, ms(12));
        assert_eq!(r.segments[1].offset, 0, "the partial SDU travels whole");
        assert_eq!(
            head_times(&r),
            vec![
                (0, ms(10), ms(12)),
                (1, ms(12), ms(12)),
                (2, ms(12), ms(12))
            ]
        );
    }

    #[test]
    fn max_wire_size_sdu_keeps_exact_offsets() {
        // Cast audit: `PacketBuf` caps `wire_len()` at `u16::MAX`, so
        // the `u32` segment-offset space can never truncate a real SDU
        // (`push_sdu` still guards with `try_from` as defense in depth).
        // Pin the extreme: a maximum-wire-size SDU segments and
        // reassembles with byte-exact offsets.
        let len = u16::MAX as usize - 60; // 60 = IPv4 + max TCP header
        let mut t = tx(RlcMode::Am);
        t.enqueue(0, pkt(len), Instant::ZERO);
        let size = pkt(len).wire_len();
        let mut rx = RlcRx::new(RlcMode::Am, Duration::from_millis(5));
        let mut got = 0u32;
        let mut delivered = Vec::new();
        let mut guard = 0;
        while got < size as u32 {
            let r = pull(&mut t, 4000, Instant::from_millis(1));
            assert!(!r.segments.is_empty(), "sender stalled mid-SDU");
            for seg in r.segments {
                got = got.max(seg.offset + seg.len);
                rx.on_segment_into(seg, Instant::from_millis(2), &mut delivered);
            }
            guard += 1;
            assert!(guard < 100);
        }
        assert_eq!(got, size as u32, "offsets must cover the SDU exactly");
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].pkt.wire_len(), size);
    }
}
