//! One bearer, two directions (TS 38.322 / 38.323 specify one transmit
//! entity for both): [`BearerTx`] is the transmit side the gNB runs per
//! downlink DRB and the UE per uplink DRB, [`RxBearers`] the set of
//! [`RlcRx`] receivers at the other end. What differs by direction —
//! grants vs buffer-status reports, the transport-block loop, forward vs
//! in-place requeue at handover — stays with [`Gnb`](crate::Gnb) and
//! [`UeStack`](crate::UeStack).
//!
//! PDCP numbers each SDU before it reaches RLC (paper §2). The SN keys
//! both RLC ARQ and L4Span's packet profile table, so the essential
//! invariant is: *SNs are assigned in ingress order, densely, per DRB*.
//! L4Span relies on that to reconstruct per-packet transmit times from
//! the cumulative F1-U counters.

use l4span_net::PacketBuf;
use l4span_sim::{Duration, Instant};

use crate::config::RlcMode;
use crate::f1u::DlDataDeliveryStatus;
use crate::ids::{DrbId, UeId};
use crate::rlc::{RlcRx, RlcStatus, RlcTx, RxDelivery, Sdu, Segment, Sn};
use crate::table::IdTable;

/// Per-DRB context carried over Xn at handover: the PDCP transmit state
/// plus every SDU not yet confirmed delivered, for lossless forwarding.
#[derive(Debug)]
pub struct DrbHandoverState {
    /// The bearer.
    pub drb: DrbId,
    /// Its RLC mode (the target re-creates the entity in the same mode).
    pub mode: RlcMode,
    /// PDCP SN the target continues numbering at (no SN reuse).
    pub next_sn: Sn,
    /// SDUs to retransmit at the target, ascending SN order.
    pub forwarded: Vec<Sdu>,
}

/// PDCP numbering over an RLC transmit entity, plus the F1-U
/// watermarks last reported for it.
#[derive(Debug)]
pub struct BearerTx {
    next_sn: Sn,
    pub(crate) rlc: RlcTx,
    /// (highest transmitted, highest delivered) as last reported.
    reported: (Option<Sn>, Option<Sn>),
}

impl BearerTx {
    /// A fresh bearer, numbering from SN 0.
    pub fn new(mode: RlcMode, capacity_sdus: usize, segment_overhead: usize) -> BearerTx {
        let rlc = RlcTx::new(mode, capacity_sdus, segment_overhead);
        BearerTx { next_sn: 0, rlc, reported: (None, None) }
    }

    /// PDCP numbers `pkt`, RLC queues it. Returns the SN, or `None` on a
    /// tail drop at a full queue (counted by the RLC entity).
    pub fn enqueue(&mut self, pkt: PacketBuf, now: Instant) -> Option<Sn> {
        // The SN is taken before RLC admission, so a tail drop leaves an
        // SN that an AM receiver waits for forever (ROADMAP item 13).
        let sn = self.next_sn;
        self.next_sn += 1;
        self.rlc.enqueue(sn, pkt, now).then_some(sn)
    }

    /// An RLC AM status report from the peer receiver.
    pub fn on_status(&mut self, status: &RlcStatus, now: Instant) {
        self.rlc.on_status(status, now);
    }

    /// The F1-U frame for this bearer if (highest transmitted, highest
    /// delivered) differs from the pair last reported, which it then
    /// becomes: one rule for both directions, asked after pulls and
    /// after status reports.
    pub fn f1u(&mut self, ue: UeId, drb: DrbId, now: Instant) -> Option<DlDataDeliveryStatus> {
        let marks = (self.rlc.highest_txed(), self.rlc.highest_delivered());
        if marks == self.reported {
            return None;
        }
        self.reported = marks;
        Some(DlDataDeliveryStatus {
            ue,
            drb,
            highest_txed_sn: marks.0,
            highest_delivered_sn: marks.1,
            timestamp: now,
            desired_buffer_size: 0,
        })
    }

    /// Leave this host at handover (see [`RlcTx::drain_for_handover`]).
    pub fn detach(mut self, drb: DrbId) -> DrbHandoverState {
        let forwarded = self.rlc.drain_for_handover();
        DrbHandoverState { drb, mode: self.rlc.mode(), next_sn: self.next_sn, forwarded }
    }

    /// A bearer arriving by handover: numbering continues (TS 38.323
    /// §5.1.2 keeps COUNT), the forwarded SDUs are queued under their
    /// original SNs and ingress times subject to this host's capacity
    /// (one past it is tail-dropped and counted), and the F1-U
    /// watermarks start fresh.
    pub fn attach(st: DrbHandoverState, cap: usize, overhead: usize, now: Instant) -> BearerTx {
        let mut b = BearerTx { next_sn: st.next_sn, ..BearerTx::new(st.mode, cap, overhead) };
        for sdu in st.forwarded {
            b.rlc.enqueue_forwarded(sdu, now);
        }
        b
    }

    /// PDCP re-establishment for a bearer that keeps its host (the UE's
    /// uplink at handover; see [`RlcTx::reestablish_requeue`]); the F1-U
    /// watermarks start fresh toward the target.
    pub fn reestablish(&mut self, now: Instant) {
        self.rlc.reestablish_requeue(now);
        self.reported = (None, None);
    }
}

/// One end's receive entities, keyed by DRB and walked in id order: the
/// UE's downlink receivers, or the gNB's uplink receivers of one UE.
#[derive(Debug, Default)]
pub struct RxBearers(IdTable<DrbId, RlcRx>);

impl RxBearers {
    /// Configure a receiver for `drb`; a no-op if it has one.
    pub fn ensure(&mut self, drb: DrbId, mode: RlcMode, status_period: Duration) {
        self.0.get_or_insert_with(drb, || RlcRx::new(mode, status_period));
    }

    /// Feed one transport block's segments to their receivers (dropping
    /// those of an unconfigured DRB): each SDU completed in order goes to
    /// `emit` with its DRB. `scratch` is a reusable buffer, left empty.
    pub fn on_segments(
        &mut self,
        segments: impl Iterator<Item = (DrbId, Segment)>,
        now: Instant,
        scratch: &mut Vec<RxDelivery>,
        mut emit: impl FnMut(DrbId, RxDelivery),
    ) {
        for (drb, seg) in segments {
            let Some(rx) = self.0.get_mut(drb) else {
                continue;
            };
            rx.on_segment_into(seg, now, scratch);
            for d in scratch.drain(..) {
                emit(drb, d);
            }
        }
    }

    /// Timer poll: UM reassembly-timeout skips, each SDU they release to
    /// `emit` with its DRB (see [`RlcRx::poll_into`]).
    pub fn poll(
        &mut self,
        now: Instant,
        scratch: &mut Vec<RxDelivery>,
        mut emit: impl FnMut(DrbId, RxDelivery),
    ) {
        for (drb, rx) in self.0.iter_mut() {
            rx.poll_into(now, scratch);
            for d in scratch.drain(..) {
                emit(drb, d);
            }
        }
    }

    /// Each status report due at `now`, to `emit` with its DRB.
    pub fn statuses(&mut self, now: Instant, mut emit: impl FnMut(DrbId, RlcStatus)) {
        for (drb, rx) in self.0.iter_mut() {
            if let Some(st) = rx.make_status(now) {
                emit(drb, st);
            }
        }
    }

    /// Whether [`RxBearers::statuses`] would emit anything at `now`.
    pub fn status_due(&self, now: Instant) -> bool {
        self.0.values().any(|rx| rx.status_due(now))
    }

    /// A consumed status report returns to the receiver that made it (see
    /// [`RlcRx::recycle_status`]); dropped if that DRB is gone.
    pub fn recycle_status(&mut self, drb: DrbId, status: RlcStatus) {
        if let Some(rx) = self.0.get_mut(drb) {
            rx.recycle_status(status);
        }
    }

    /// PDCP re-establishment of every receiver at handover (see
    /// [`RlcRx::reestablish`]), adopting the serving cell's status period.
    pub fn reestablish(&mut self, status_period: Duration) {
        for rx in self.0.values_mut() {
            rx.set_status_period(status_period);
            rx.reestablish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelProfile, FadingChannel};
    use crate::config::{CellConfig, SchedulerKind};
    use crate::gnb::{Gnb, SlotOutput};
    use crate::ids::Qfi;
    use crate::rlc::Nack;
    use crate::ue::UeStack;
    use l4span_net::{Ecn, TcpHeader};
    use l4span_sim::SimRng;

    fn pkt(len: usize) -> PacketBuf {
        PacketBuf::tcp(1, 2, Ecn::Ect1, 0, &TcpHeader::default(), len)
    }

    fn bearer() -> BearerTx {
        BearerTx::new(RlcMode::Am, 16, 8)
    }

    /// Hand everything queued to the MAC.
    fn pull_all(b: &mut BearerTx, now: Instant) {
        b.rlc.pull_with(usize::MAX, now, &mut Vec::new(), |_| {});
    }

    fn ack(ack_sn: Sn) -> RlcStatus {
        RlcStatus {
            ack_sn,
            nacks: vec![],
        }
    }

    /// The (txed, delivered) pair a frame carries.
    fn marks(f: Option<DlDataDeliveryStatus>) -> Option<(Option<Sn>, Option<Sn>)> {
        f.map(|f| (f.highest_txed_sn, f.highest_delivered_sn))
    }

    #[test]
    fn sns_are_dense_and_ordered() {
        let mut b = bearer();
        let now = Instant::ZERO;
        assert_eq!(b.enqueue(pkt(100), now), Some(0));
        assert_eq!(b.enqueue(pkt(100), now), Some(1));
        assert_eq!(b.enqueue(pkt(100), now), Some(2));
        assert_eq!(b.next_sn, 3);
    }

    #[test]
    fn reestablished_entity_continues_the_sn_space() {
        let mut old = bearer();
        old.enqueue(pkt(100), Instant::ZERO);
        old.enqueue(pkt(100), Instant::ZERO);
        let st = old.detach(DrbId(0));
        let mut new = BearerTx::attach(st, 16, 8, Instant::ZERO);
        assert_eq!(new.enqueue(pkt(100), Instant::ZERO), Some(2), "no SN reuse across handover");
    }

    #[test]
    fn f1u_reports_whatever_moved_once() {
        let (ue, drb) = (UeId(0), DrbId(0));
        let t = Instant::from_millis;
        let mut b = bearer();
        for _ in 0..3 {
            b.enqueue(pkt(100), t(0));
        }
        assert_eq!(marks(b.f1u(ue, drb, t(0))), None, "nothing transmitted yet");
        pull_all(&mut b, t(1));
        assert_eq!(marks(b.f1u(ue, drb, t(1))), Some((Some(2), None)), "txed moved");
        b.on_status(&ack(2), t(2));
        assert_eq!(marks(b.f1u(ue, drb, t(2))), Some((Some(2), Some(1))), "delivered moved");
        // A later slot pulls nothing: neither watermark moved since the
        // status's frame, so no frame.
        pull_all(&mut b, t(3));
        assert_eq!(marks(b.f1u(ue, drb, t(3))), None);
        // A status that acknowledges nothing new is silent too.
        b.on_status(&ack(2), t(4));
        assert_eq!(marks(b.f1u(ue, drb, t(4))), None);

        // In-place re-establishment requeues SN 2 (txed resets, delivered
        // survives) and reports afresh.
        b.reestablish(t(5));
        assert_eq!(marks(b.f1u(ue, drb, t(5))), Some((None, Some(1))));
        pull_all(&mut b, t(6));
        assert_eq!(marks(b.f1u(ue, drb, t(6))), Some((Some(2), Some(1))));

        // A bearer attached at a new host starts from no report; its first
        // pull reports the forwarded SN.
        let mut moved = BearerTx::attach(b.detach(drb), 16, 8, t(7));
        assert_eq!(marks(moved.f1u(ue, drb, t(7))), None);
        pull_all(&mut moved, t(8));
        assert_eq!(marks(moved.f1u(ue, drb, t(8))), Some((Some(2), None)));
    }

    /// The same script through a gNB's downlink bearer and a UE's uplink
    /// bearer: enqueues past capacity, pulls, an ACK, a NACK and its
    /// repair. Both ends must number, report and count tail drops alike.
    #[test]
    fn downlink_and_uplink_bearers_agree() {
        let cfg = CellConfig {
            rlc_queue_sdus: 4,
            ..CellConfig::default()
        };
        let mut gnb = Gnb::new(cfg.clone(), SchedulerKind::RoundRobin, SimRng::new(1));
        let ch = FadingChannel::new(ChannelProfile::Static, 25.0, cfg.carrier_hz, &mut SimRng::new(5));
        let (ue_id, drb) = (UeId(0), DrbId(0));
        gnb.add_ue(ue_id, ch, &[(drb, RlcMode::Am)]);
        let d = Duration::from_millis(10);
        let mut ue = UeStack::new(ue_id, &[], d, d, Duration::ZERO, SimRng::new(3));
        ue.configure_ul_drb(drb, RlcMode::Am, cfg.rlc_queue_sdus, cfg.segment_overhead);

        // One clock: a status arrives at the start of the next slot.
        let slot = std::cell::Cell::new(0u64);
        let next_slot_at = || Instant::ZERO + cfg.slot_duration * slot.get();
        let mut out = SlotOutput::default();
        // One downlink slot at the gNB (uplink slots pass); the UE is
        // granted, at the same instant, the bytes its new block carried.
        let mut pull = |gnb: &mut Gnb, ue: &mut UeStack| {
            let mut now = next_slot_at();
            gnb.on_slot_into(now, &mut out);
            slot.set(slot.get() + 1);
            if out.role == Some(crate::config::SlotRole::Uplink) {
                now = next_slot_at();
                gnb.on_slot_into(now, &mut out);
                slot.set(slot.get() + 1);
            }
            let new_tbs = out.deliveries.iter().filter(|d| d.tb.attempt == 1);
            let granted = new_tbs.map(|d| d.tb.bytes).sum();
            let _ = ue.build_ul_tb(granted, 15, now, Vec::new());
            assert_eq!(gnb.rlc_backlog_bytes(ue_id, drb), ue.ul_backlog_bytes());
            let mut ul = Vec::new();
            ue.ul_f1u_into(now, &mut ul);
            (out.f1u.clone(), ul)
        };
        let status = |gnb: &mut Gnb, ue: &mut UeStack, st: &RlcStatus| {
            let now = next_slot_at();
            let dl = gnb.on_rlc_status(ue_id, drb, st, now);
            ue.on_ul_status(drb, st, now);
            let mut ul = Vec::new();
            ue.ul_f1u_into(now, &mut ul);
            (dl.into_iter().collect::<Vec<_>>(), ul)
        };
        let enqueue = |gnb: &mut Gnb, ue: &mut UeStack, n: usize| {
            for _ in 0..n {
                let dl = gnb
                    .enqueue_downlink(ue_id, Qfi(0), pkt(100), Instant::ZERO)
                    .map(|(_, sn)| sn);
                assert_eq!(dl, ue.enqueue_uplink_data(drb, pkt(100), Instant::ZERO));
            }
        };

        enqueue(&mut gnb, &mut ue, 6); // SNs 0–3 queued, 4 and 5 tail-dropped
        let (dl, ul) = pull(&mut gnb, &mut ue);
        assert_eq!(dl.len(), 1);
        assert_eq!(dl, ul);
        let txed = dl[0].highest_txed_sn;
        enqueue(&mut gnb, &mut ue, 2); // SNs 6, 7
        let (dl, ul) = pull(&mut gnb, &mut ue);
        assert_eq!(dl.len(), 1);
        assert_eq!(dl, ul);
        assert!(dl[0].highest_txed_sn > txed, "{dl:?}");
        // Drain what the MAC left queued.
        while gnb.rlc_backlog_bytes(ue_id, drb) > 0 {
            let (dl, ul) = pull(&mut gnb, &mut ue);
            assert_eq!(dl, ul);
        }

        let (dl, ul) = status(&mut gnb, &mut ue, &ack(2));
        assert_eq!((dl.len(), dl[0].highest_delivered_sn), (1, Some(1)));
        assert_eq!(dl, ul);
        let nack = RlcStatus {
            ack_sn: 3,
            nacks: vec![Nack { sn: 3, from: 0, to: u32::MAX }],
        };
        let (dl, ul) = status(&mut gnb, &mut ue, &nack);
        assert_eq!((dl.len(), dl[0].highest_delivered_sn), (1, Some(2)));
        assert_eq!(dl, ul);
        // The repair of SN 3 and a pull-less slot after it move nothing.
        assert_eq!(pull(&mut gnb, &mut ue), (vec![], vec![]));
        assert_eq!(pull(&mut gnb, &mut ue), (vec![], vec![]));
        let (dl, ul) = status(&mut gnb, &mut ue, &ack(8));
        assert_eq!((dl.len(), dl[0].highest_delivered_sn), (1, Some(7)));
        assert_eq!(dl, ul);

        assert_eq!(gnb.stats().sdus_dropped, 2);
        assert_eq!(ue.ul_drops(), 2);
    }
}
