//! The UE-side stack: per-DRB RLC receivers, in-order delivery to the
//! "kernel", RLC status generation, and the TDD uplink path whose jitter
//! L4Span's feedback short-circuiting bypasses (paper §4.4, Fig. 7).
//!
//! Since the bidirectional extension the UE also hosts a full uplink
//! *data* plane: per-DRB [`BearerTx`]s (as the gNB's downlink) fed by
//! UE-side senders, a scheduling-request / buffer-status-report (SR/BSR)
//! machine that tells the serving gNB how much is buffered, and a
//! grant-driven transport-block builder ([`UeStack::build_ul_tb`]) that
//! never exceeds the granted TBS. The uplink queue is exactly the place
//! where the UE-side L4Span marker instance sits: its delay predictor is
//! driven by granted-bytes history (the transmit watermarks this module
//! reports via [`UeStack::ul_f1u_into`]) rather than downlink slot
//! telemetry.

use std::collections::VecDeque;

use l4span_net::PacketBuf;
use l4span_sim::{Duration, Instant, SimRng};

use crate::bearer::{BearerTx, RxBearers};
use crate::config::RlcMode;
use crate::f1u::DlDataDeliveryStatus;
use crate::ids::{DrbId, UeId};
use crate::mac::TransportBlock;
use crate::rlc::{RlcStatus, RxDelivery, Segment, Sn, TxRecord};
use crate::table::IdTable;

/// A downlink IP packet delivered up to the UE application.
#[derive(Debug)]
pub struct AppDelivery {
    /// The reassembled IP packet.
    pub pkt: PacketBuf,
    /// When the application sees it (after the modem/kernel delay).
    pub deliver_at: Instant,
    /// DRB it arrived on.
    pub drb: DrbId,
    /// PDCP sequence number it carried on that DRB.
    pub sn: Sn,
}

/// One queued uplink item (client ACK or any uplink IP packet).
#[derive(Debug)]
struct UlItem {
    pkt: PacketBuf,
    /// Earliest uplink slot time this item may ride (SR/grant delay).
    ready_at: Instant,
}

/// The UE model: RLC receivers plus an uplink queue drained at TDD
/// uplink opportunities — and, for bidirectional scenarios, per-DRB
/// uplink transmit bearers driven by BSR-solicited grants.
#[derive(Debug)]
pub struct UeStack {
    id: UeId,
    /// Downlink receive entities.
    rx: RxBearers,
    ul_queue: VecDeque<UlItem>,
    internal_delay: Duration,
    sr_delay_max: Duration,
    rng: SimRng,
    /// Uplink data-plane entities (empty unless the scenario configures
    /// uplink flows, so downlink-only runs are byte-identical).
    ul_tx: IdTable<DrbId, BearerTx>,
    /// Intra-UE UL DRB round-robin cursor for TB building.
    ul_drb_cursor: usize,
    /// Earliest instant the *first* BSR of the current busy period may
    /// ride an uplink opportunity (the SR + grant round trip);
    /// `Instant::MAX` = no SR pending.
    ul_sr_at: Instant,
    /// A BSR has already gone out this busy period: subsequent reports
    /// piggyback on uplink batches for free.
    bsr_open: bool,
    /// Reusable transmit-record scratch for [`UeStack::build_ul_tb`].
    scratch_txed: Vec<TxRecord>,
    /// Reusable RLC-delivery scratch for the downlink TB hot path.
    scratch_rx: Vec<RxDelivery>,
}

impl UeStack {
    /// Create a UE with the given DRBs.
    pub fn new(
        id: UeId,
        drbs: &[(DrbId, RlcMode)],
        status_period: Duration,
        internal_delay: Duration,
        sr_delay_max: Duration,
        rng: SimRng,
    ) -> UeStack {
        let mut rx = RxBearers::default();
        for &(d, m) in drbs {
            rx.ensure(d, m, status_period);
        }
        UeStack {
            id,
            rx,
            ul_queue: VecDeque::new(),
            internal_delay,
            sr_delay_max,
            rng,
            ul_tx: IdTable::default(),
            ul_drb_cursor: 0,
            ul_sr_at: Instant::MAX,
            bsr_open: false,
            scratch_txed: Vec::new(),
            scratch_rx: Vec::new(),
        }
    }

    /// This UE's identifier.
    pub fn id(&self) -> UeId {
        self.id
    }

    /// Ingest a successfully-decoded transport block: packets
    /// deliverable to the application (already stamped with the
    /// modem→kernel delay) are appended to `out`. Takes the block by
    /// value so segments (and their inline packet payloads) move instead
    /// of being cloned; the TB's emptied segment buffer is handed back
    /// so the caller can recycle it into the gNB's pool.
    pub fn on_transport_block_into(
        &mut self,
        mut tb: TransportBlock,
        now: Instant,
        out: &mut Vec<AppDelivery>,
    ) -> Vec<(DrbId, Segment)> {
        let deliver_at = now + self.internal_delay;
        let segments = tb.segments.drain(..);
        self.rx.on_segments(segments, now, &mut self.scratch_rx, |drb, d| {
            out.push(AppDelivery { pkt: d.pkt, deliver_at, drb, sn: d.sn });
        });
        tb.segments
    }

    /// Timer poll: UM reassembly-timeout skips (lost SDUs are abandoned
    /// so later ones flow). Deliveries are appended to `out`.
    pub fn poll_into(&mut self, now: Instant, out: &mut Vec<AppDelivery>) {
        let deliver_at = now + self.internal_delay;
        self.rx.poll(now, &mut self.scratch_rx, |drb, d| {
            out.push(AppDelivery { pkt: d.pkt, deliver_at, drb, sn: d.sn });
        });
    }

    /// Enqueue an uplink IP packet (e.g. a TCP ACK from the client
    /// kernel). If the queue was empty the packet waits an extra
    /// scheduling-request delay before it may ride an uplink slot — the
    /// "RAN jitter" of Fig. 7.
    pub fn enqueue_uplink(&mut self, pkt: PacketBuf, now: Instant) {
        let sr = if self.ul_queue.is_empty() && !self.sr_delay_max.is_zero() {
            Duration::from_nanos(self.rng.range_u64(0, self.sr_delay_max.as_nanos().max(1)))
        } else {
            Duration::ZERO
        };
        self.ul_queue.push_back(UlItem {
            pkt,
            ready_at: now + sr,
        });
    }

    /// Drain the uplink at a TDD uplink slot: the IP packets that ride
    /// this opportunity plus any RLC status reports due are appended to
    /// the caller's reusable buffers. Uplink capacity is ample for
    /// ACK-sized traffic, so everything ready goes. (The world pools the
    /// buffers alongside the event boxes, so the uplink slot tick — like
    /// the downlink one — touches the allocator only while a buffer is
    /// still growing to its steady-state size.)
    pub fn on_uplink_slot_into(
        &mut self,
        now: Instant,
        pkts: &mut Vec<PacketBuf>,
        statuses: &mut Vec<(DrbId, RlcStatus)>,
    ) {
        while let Some(item) = self.ul_queue.front() {
            if item.ready_at > now {
                break;
            }
            pkts.push(self.ul_queue.pop_front().expect("front exists").pkt);
        }
        self.rx.statuses(now, |drb, st| statuses.push((drb, st)));
    }

    /// Whether this UE has anything to do on an uplink slot at `now`:
    /// a ready feedback packet, an RLC AM status due, or (when
    /// `with_bsr`) a buffer-status report to send *or a BSR state
    /// transition to make*. This is an exact mirror of what
    /// [`UeStack::on_uplink_slot_into`] / [`UeStack::ul_bsr_into`] would
    /// emit or mutate, so a `false` return means the whole uplink slot
    /// visit can be skipped without changing behaviour. In particular
    /// the quiet `total == 0 && !unacked` case still returns `true`
    /// while `bsr_open`/`ul_sr_at` need their end-of-busy-period reset —
    /// that reset gates the next busy period's SR RNG draw, so skipping
    /// it would shift the deterministic random stream.
    pub fn ul_slot_pending(&self, now: Instant, with_bsr: bool) -> bool {
        if self.ul_queue.front().is_some_and(|item| item.ready_at <= now) {
            return true;
        }
        if self.rx.status_due(now) {
            return true;
        }
        if !with_bsr || self.ul_tx.is_empty() {
            return false;
        }
        let total = self.ul_backlog_bytes();
        let unacked = self.ul_tx.values().any(|d| d.rlc.has_unacked());
        if total == 0 && !unacked {
            // `ul_bsr_into` emits nothing but must still reset the SR
            // machine if a busy period just ended.
            return self.bsr_open || self.ul_sr_at != Instant::MAX;
        }
        if !self.bsr_open && self.ul_sr_at != Instant::MAX && now < self.ul_sr_at {
            // SR round trip still pending: `ul_bsr_into` early-returns
            // without emitting or mutating.
            return false;
        }
        true
    }

    // ------------------------------------------------------------------
    // Uplink data plane (bidirectional scenarios)
    // ------------------------------------------------------------------

    /// Configure an uplink data bearer in `mode`. Idempotent per DRB.
    /// Downlink-only scenarios never call this, so the legacy uplink
    /// (ACK/feedback) path is untouched.
    pub fn configure_ul_drb(
        &mut self,
        drb: DrbId,
        mode: RlcMode,
        capacity_sdus: usize,
        segment_overhead: usize,
    ) {
        self.ul_tx
            .get_or_insert_with(drb, || BearerTx::new(mode, capacity_sdus, segment_overhead));
    }

    /// UL DRBs configured on this UE, in id order.
    pub fn ul_drbs(&self) -> impl Iterator<Item = DrbId> + '_ {
        self.ul_tx.keys()
    }

    /// Enqueue an uplink *data* packet from a UE-side sender: PDCP
    /// assigns the next SN, RLC queues the SDU. Returns the SN, or
    /// `None` on a tail drop at a full queue. The first packet of a busy
    /// period arms the scheduling request: the gNB cannot grant before
    /// it learns (via BSR) that the buffer is non-empty.
    pub fn enqueue_uplink_data(&mut self, drb: DrbId, pkt: PacketBuf, now: Instant) -> Option<Sn> {
        let was_empty = self.ul_backlog_bytes() == 0;
        let d = self.ul_tx.get_mut(drb).expect("UL DRB not configured");
        let sn = d.enqueue(pkt, now)?;
        if was_empty && !self.bsr_open {
            let sr = if self.sr_delay_max.is_zero() {
                Duration::ZERO
            } else {
                Duration::from_nanos(
                    self.rng.range_u64(0, self.sr_delay_max.as_nanos().max(1)),
                )
            };
            self.ul_sr_at = now + sr;
        }
        Some(sn)
    }

    /// Total uplink data backlog awaiting (re)transmission, in bytes.
    pub fn ul_backlog_bytes(&self) -> usize {
        self.ul_tx.values().map(|d| d.rlc.backlog_bytes()).sum()
    }

    /// Uplink RLC transmission-queue length in SDUs for one DRB.
    pub fn ul_queue_len_sdus(&self, drb: DrbId) -> usize {
        self.ul_tx.get(drb).map_or(0, |d| d.rlc.queue_len_sdus())
    }

    /// Uplink SDUs tail-dropped at this UE's full RLC queues so far.
    pub fn ul_drops(&self) -> u64 {
        self.ul_tx.values().map(|d| d.rlc.drop_count()).sum()
    }

    /// Append the buffer-status report that rides this uplink
    /// opportunity, one `(drb, bytes)` entry per backlogged bearer. The
    /// first report of a busy period is gated behind the SR round trip;
    /// later ones piggyback for free. A bearer with fully-transmitted
    /// but unacknowledged SDUs reports a one-MTU probe so the ARQ
    /// poll-retransmit path can obtain a grant after tail loss. The
    /// report **never under-reports**: every entry is at least the
    /// bearer's true RLC backlog at call time.
    pub fn ul_bsr_into(&mut self, now: Instant, out: &mut Vec<(DrbId, usize)>) {
        if self.ul_tx.is_empty() {
            return;
        }
        let total = self.ul_backlog_bytes();
        let unacked = self.ul_tx.values().any(|d| d.rlc.has_unacked());
        if total == 0 && !unacked {
            // Busy period over: the next arrival starts a fresh SR.
            self.bsr_open = false;
            self.ul_sr_at = Instant::MAX;
            return;
        }
        if !self.bsr_open {
            // `Instant::MAX` with backlog present means the backlog
            // appeared without an enqueue (NACK retransmissions, post-
            // handover re-establishment): the control channel is already
            // live, so the report goes out immediately.
            if self.ul_sr_at != Instant::MAX && now < self.ul_sr_at {
                return;
            }
            self.bsr_open = true;
            self.ul_sr_at = Instant::MAX;
        }
        for (drb, d) in self.ul_tx.iter() {
            let b = d.rlc.backlog_bytes();
            if b > 0 {
                out.push((drb, b));
            } else if d.rlc.has_unacked() {
                out.push((drb, 1600)); // ARQ poll probe
            }
        }
    }

    /// Build the transport block that rides a grant of `granted` bytes
    /// into `segments`, an emptied buffer from the serving gNB's pool
    /// ([`Gnb::take_segments`](crate::Gnb::take_segments); the gNB gets
    /// it back when the block decodes): UL DRBs are drained round-robin,
    /// retransmissions first within each, and the block **never exceeds
    /// the granted TBS**. When nothing was pending (a wasted grant) the
    /// untouched buffer comes back as the `Err`.
    pub fn build_ul_tb(
        &mut self,
        granted: usize,
        cqi: u8,
        now: Instant,
        mut segments: Vec<(DrbId, Segment)>,
    ) -> Result<TransportBlock, Vec<(DrbId, Segment)>> {
        debug_assert!(segments.is_empty(), "TB buffer must arrive emptied");
        if self.ul_tx.is_empty() || granted == 0 {
            return Err(segments);
        }
        let n = self.ul_tx.len();
        let mut left = granted;
        for k in 0..n {
            let (drb, d) = self.ul_tx.row_mut((self.ul_drb_cursor + k) % n);
            self.scratch_txed.clear();
            let consumed = d.rlc.pull_with(left, now, &mut self.scratch_txed, |s| {
                segments.push((drb, s));
            });
            left -= consumed;
            if left == 0 {
                break;
            }
        }
        self.ul_drb_cursor = (self.ul_drb_cursor + 1) % n.max(1);
        if segments.is_empty() {
            return Err(segments);
        }
        Ok(TransportBlock {
            ue: self.id,
            segments,
            bytes: granted - left,
            attempt: 1,
            cqi,
            first_tx: now,
        })
    }

    /// An uplink RLC AM status report arrived from the serving gNB:
    /// acknowledged SDUs are released, NACKed ranges join the
    /// retransmission queue (and re-arm the BSR machine so the repair
    /// bytes get granted).
    pub fn on_ul_status(&mut self, drb: DrbId, status: &RlcStatus, now: Instant) {
        let d = self.ul_tx.get_mut(drb).expect("UL DRB not configured");
        d.on_status(status, now);
    }

    /// A status report this UE emitted ([`UeStack::on_uplink_slot_into`])
    /// has been consumed: its buffer returns to the receive entity that
    /// made it (see [`RxBearers::recycle_status`]).
    pub fn recycle_status(&mut self, drb: DrbId, status: RlcStatus) {
        self.rx.recycle_status(drb, status);
    }

    /// Report uplink transmit/delivery watermarks that moved since the
    /// last call ([`BearerTx::f1u`], the rule the gNB's downlink uses) —
    /// the feedback stream that drives the uplink L4Span instance's
    /// egress estimator: `timestamp` is the grant time at which the
    /// bytes left the queue.
    pub fn ul_f1u_into(&mut self, now: Instant, out: &mut Vec<DlDataDeliveryStatus>) {
        for (drb, d) in self.ul_tx.iter_mut() {
            out.extend(d.f1u(self.id, drb, now));
        }
    }

    /// The UE side of a handover: every DRB's receive entity goes
    /// through PDCP re-establishment (partial reassembly state from the
    /// old cell is discarded, the in-order delivery point and complete
    /// SDUs in the reordering buffer survive) and a status report is
    /// forced onto the next uplink opportunity so the target learns what
    /// to retransmit. The UE also adopts the *target* cell's timing
    /// parameters (status cadence, modem/kernel delay, SR delay bound) —
    /// in a heterogeneous topology these are per-cell configuration, and
    /// freezing the initial cell's values would make two UEs on the same
    /// cell behave differently by migration history. Queued uplink
    /// packets (client ACKs) survive — they ride the new cell's first
    /// uplink slot.
    ///
    /// Uplink data bearers mirror the downlink's lossless forwarding:
    /// the transmit entity re-establishes by re-enqueueing every SDU not
    /// yet confirmed delivered, in SN order under the original SNs
    /// (TS 38.323 §5.1.2 transmit side — PDCP COUNT continues), and the
    /// BSR machine re-arms immediately because handover signalling
    /// already told the target the buffer is non-empty.
    pub fn on_handover(
        &mut self,
        status_period: Duration,
        internal_delay: Duration,
        sr_delay_max: Duration,
        now: Instant,
    ) {
        self.internal_delay = internal_delay;
        self.sr_delay_max = sr_delay_max;
        self.rx.reestablish(status_period);
        for d in self.ul_tx.values_mut() {
            d.reestablish(now);
        }
        if self.ul_backlog_bytes() > 0 {
            self.bsr_open = false;
            self.ul_sr_at = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rlc::Segment;
    use l4span_net::{Ecn, TcpHeader};

    fn pkt(len: usize) -> PacketBuf {
        PacketBuf::tcp(1, 2, Ecn::Ect1, 0, &TcpHeader::default(), len)
    }

    fn ue() -> UeStack {
        UeStack::new(
            UeId(0),
            &[(DrbId(0), RlcMode::Am)],
            Duration::from_millis(10),
            Duration::from_millis(2),
            Duration::from_millis(5),
            SimRng::new(7),
        )
    }

    /// Deliver one TB carrying `segments`; returns the app deliveries.
    fn recv_tb(
        u: &mut UeStack,
        segments: Vec<(DrbId, Segment)>,
        now: Instant,
    ) -> Vec<AppDelivery> {
        let tb = TransportBlock {
            ue: UeId(0),
            segments,
            bytes: 0,
            attempt: 1,
            cqi: 10,
            first_tx: Instant::ZERO,
        };
        let mut out = Vec::new();
        u.on_transport_block_into(tb, now, &mut out);
        out
    }

    /// One uplink slot's (packets, status reports).
    fn uplink_slot(u: &mut UeStack, now: Instant) -> (Vec<PacketBuf>, Vec<(DrbId, RlcStatus)>) {
        let (mut pkts, mut statuses) = (Vec::new(), Vec::new());
        u.on_uplink_slot_into(now, &mut pkts, &mut statuses);
        (pkts, statuses)
    }

    #[test]
    fn tb_delivery_applies_internal_delay() {
        let mut u = ue();
        let p = pkt(960);
        let seg = Segment {
            sn: 0,
            offset: 0,
            len: 1000,
            sdu_size: 1000,
            payload: Some(p),
        };
        let now = Instant::from_millis(10);
        let d = recv_tb(&mut u, vec![(DrbId(0), seg)], now);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].deliver_at, now + Duration::from_millis(2));
        assert_eq!((d[0].drb, d[0].sn), (DrbId(0), 0), "the bearer and PDCP SN ride along");
    }

    #[test]
    fn segment_for_unknown_drb_is_dropped() {
        let mut u = ue();
        let seg = Segment {
            sn: 0,
            offset: 0,
            len: 1000,
            sdu_size: 1000,
            payload: Some(pkt(960)),
        };
        let d = recv_tb(&mut u, vec![(DrbId(9), seg)], Instant::ZERO);
        assert!(d.is_empty());
    }

    #[test]
    fn uplink_waits_for_sr_delay() {
        let mut u = ue();
        let now = Instant::from_millis(100);
        u.enqueue_uplink(pkt(0), now);
        // At `now` the SR delay (0..5 ms) has almost surely not elapsed
        // for a fresh queue; at +6 ms it must have.
        let (sent, _) = uplink_slot(&mut u, now + Duration::from_millis(6));
        assert_eq!(sent.len(), 1);
        let (rest, _) = uplink_slot(&mut u, now + Duration::from_millis(7));
        assert!(rest.is_empty(), "the one packet left on the first slot");
    }

    #[test]
    fn uplink_batches_queued_packets() {
        let mut u = ue();
        let now = Instant::from_millis(100);
        u.enqueue_uplink(pkt(0), now);
        u.enqueue_uplink(pkt(0), now); // second one has no extra SR delay
        u.enqueue_uplink(pkt(0), now);
        let (sent, _) = uplink_slot(&mut u, now + Duration::from_millis(6));
        assert_eq!(sent.len(), 3);
    }

    #[test]
    fn handover_forces_a_status_and_keeps_delivery_order() {
        let mut u = ue();
        // SN 1 complete but held (SN 0 missing) when the handover hits.
        let seg1 = Segment {
            sn: 1,
            offset: 0,
            len: 1000,
            sdu_size: 1000,
            payload: Some(pkt(960)),
        };
        let d = recv_tb(&mut u, vec![(DrbId(0), seg1)], Instant::from_millis(50));
        assert!(d.is_empty());
        u.on_handover(
            Duration::from_millis(10),
            Duration::from_millis(2),
            Duration::from_millis(5),
            Instant::from_millis(60),
        );
        let (_, statuses) = uplink_slot(&mut u, Instant::from_millis(65));
        assert_eq!(statuses.len(), 1, "re-establishment forces a status");
        assert_eq!(statuses[0].1.ack_sn, 0);
        assert!(statuses[0].1.nacks.iter().any(|n| n.sn == 0));
        // Target retransmits SN 0: in-order delivery resumes across the
        // switch with no duplicate of SN 1.
        let seg0 = Segment {
            sn: 0,
            offset: 0,
            len: 1000,
            sdu_size: 1000,
            payload: Some(pkt(960)),
        };
        let d = recv_tb(&mut u, vec![(DrbId(0), seg0)], Instant::from_millis(70));
        assert_eq!(d.len(), 2, "SN 0 then the buffered SN 1, exactly once each");
    }

    #[test]
    fn uplink_slot_into_reuses_buffers() {
        let mut u = ue();
        let mut pkts = Vec::with_capacity(8);
        let mut statuses = Vec::with_capacity(4);
        let now = Instant::from_millis(100);
        u.enqueue_uplink(pkt(0), now);
        u.on_uplink_slot_into(now + Duration::from_millis(6), &mut pkts, &mut statuses);
        assert_eq!(pkts.len(), 1);
        pkts.clear();
        u.enqueue_uplink(pkt(0), now + Duration::from_millis(7));
        u.on_uplink_slot_into(now + Duration::from_millis(14), &mut pkts, &mut statuses);
        assert_eq!(pkts.len(), 1, "appended into the reused buffer");
    }

    fn ue_with_ul() -> UeStack {
        let mut u = ue();
        u.configure_ul_drb(DrbId(0), RlcMode::Am, 1024, 8);
        u
    }

    #[test]
    fn ul_enqueue_assigns_dense_sns_and_counts_backlog() {
        let mut u = ue_with_ul();
        let now = Instant::from_millis(1);
        assert_eq!(u.enqueue_uplink_data(DrbId(0), pkt(960), now), Some(0));
        assert_eq!(u.enqueue_uplink_data(DrbId(0), pkt(960), now), Some(1));
        assert!(u.ul_backlog_bytes() >= 2 * 960);
        assert_eq!(u.ul_queue_len_sdus(DrbId(0)), 2);
    }

    #[test]
    fn first_bsr_waits_for_sr_then_piggybacks() {
        let mut u = ue_with_ul();
        let now = Instant::from_millis(100);
        u.enqueue_uplink_data(DrbId(0), pkt(960), now);
        let mut bsr = Vec::new();
        u.ul_bsr_into(now, &mut bsr);
        assert!(bsr.is_empty(), "SR delay (0..5 ms) has not elapsed");
        u.ul_bsr_into(now + Duration::from_millis(6), &mut bsr);
        assert_eq!(bsr.len(), 1);
        assert!(bsr[0].1 >= 960, "BSR must not under-report: {:?}", bsr);
        // Piggyback: the next report is free.
        bsr.clear();
        u.enqueue_uplink_data(DrbId(0), pkt(960), now + Duration::from_millis(7));
        u.ul_bsr_into(now + Duration::from_millis(7), &mut bsr);
        assert_eq!(bsr.len(), 1);
    }

    #[test]
    fn ul_tb_respects_grant_and_f1u_reports_progress() {
        let mut u = ue_with_ul();
        let now = Instant::from_millis(10);
        for _ in 0..4 {
            u.enqueue_uplink_data(DrbId(0), pkt(960), now);
        }
        let granted = 1200;
        let tb = u.build_ul_tb(granted, 10, now, Vec::new()).expect("backlog pending");
        assert!(tb.bytes <= granted, "TB {} exceeds grant {granted}", tb.bytes);
        assert!(!tb.segments.is_empty());
        // Drain the rest and check the granted-bytes F1-U mirror.
        let _ = u.build_ul_tb(100_000, 10, now + Duration::from_millis(1), Vec::new());
        let mut f1u = Vec::new();
        u.ul_f1u_into(now + Duration::from_millis(1), &mut f1u);
        assert_eq!(f1u.len(), 1);
        assert_eq!(f1u[0].highest_txed_sn, Some(3));
        assert_eq!(f1u[0].highest_delivered_sn, None);
        // Status acknowledges everything: the next report carries it.
        let st = RlcStatus { ack_sn: 4, nacks: vec![] };
        u.on_ul_status(DrbId(0), &st, now + Duration::from_millis(5));
        f1u.clear();
        u.ul_f1u_into(now + Duration::from_millis(5), &mut f1u);
        assert_eq!(f1u[0].highest_delivered_sn, Some(3));
    }

    #[test]
    fn ul_handover_requeues_unconfirmed_sdus() {
        let mut u = ue_with_ul();
        let now = Instant::from_millis(10);
        for _ in 0..3 {
            u.enqueue_uplink_data(DrbId(0), pkt(960), now);
        }
        // Transmit everything; nothing acknowledged yet.
        let _ = u.build_ul_tb(100_000, 10, now, Vec::new()).expect("tb");
        assert_eq!(u.ul_backlog_bytes(), 0);
        u.on_handover(
            Duration::from_millis(10),
            Duration::from_millis(2),
            Duration::from_millis(5),
            Instant::from_millis(20),
        );
        assert!(
            u.ul_backlog_bytes() > 0,
            "unconfirmed SDUs must be requeued for the target cell"
        );
        // The BSR goes out immediately (handover signalling carried it).
        let mut bsr = Vec::new();
        u.ul_bsr_into(Instant::from_millis(20), &mut bsr);
        assert_eq!(bsr.len(), 1);
        // Retransmission restarts at the oldest unconfirmed SN.
        let tb = u.build_ul_tb(100_000, 10, Instant::from_millis(21), Vec::new()).expect("tb");
        assert_eq!(tb.segments[0].1.sn, 0);
    }

    #[test]
    fn ul_handover_requeue_is_lossless_even_past_queue_capacity() {
        // Regression: queued + unacked can exceed the queue's admission
        // capacity at handover time; re-establishment must requeue ALL
        // of them (a tail drop would stall the migrated AM receiver's
        // in-order delivery point forever).
        let mut u = ue();
        u.configure_ul_drb(DrbId(0), RlcMode::Am, 2, 8);
        let now = Instant::from_millis(10);
        assert_eq!(u.enqueue_uplink_data(DrbId(0), pkt(960), now), Some(0));
        assert_eq!(u.enqueue_uplink_data(DrbId(0), pkt(960), now), Some(1));
        // Transmit both (→ unacked), then fill the queue again.
        let _ = u.build_ul_tb(100_000, 10, now, Vec::new()).expect("tb");
        assert_eq!(u.enqueue_uplink_data(DrbId(0), pkt(960), now), Some(2));
        assert_eq!(u.enqueue_uplink_data(DrbId(0), pkt(960), now), Some(3));
        // 2 unacked + 2 queued > capacity 2.
        u.on_handover(
            Duration::from_millis(10),
            Duration::from_millis(2),
            Duration::from_millis(5),
            Instant::from_millis(20),
        );
        assert_eq!(u.ul_queue_len_sdus(DrbId(0)), 4, "all four SDUs requeued");
        let tb = u.build_ul_tb(100_000, 10, Instant::from_millis(21), Vec::new()).expect("tb");
        let sns: Vec<u64> = tb.segments.iter().map(|(_, s)| s.sn).collect();
        assert_eq!(sns, vec![0, 1, 2, 3], "retransmission covers every SN, in order");
    }

    #[test]
    fn status_reports_flow_with_uplink() {
        let mut u = ue();
        let seg = Segment {
            sn: 0,
            offset: 0,
            len: 1000,
            sdu_size: 1000,
            payload: Some(pkt(960)),
        };
        recv_tb(&mut u, vec![(DrbId(0), seg)], Instant::from_millis(50));
        let (_, statuses) = uplink_slot(&mut u, Instant::from_millis(65));
        assert_eq!(statuses.len(), 1);
        assert_eq!(statuses[0].1.ack_sn, 1);
    }
}
