//! The L4Span layer itself: the three event handlers of Appendix A.

use l4span_net::ecn::FlowClass;
use l4span_net::{Ecn, PacketBuf, Protocol, TcpFlags};
use l4span_ran::f1u::DlDataDeliveryStatus;
use l4span_ran::{DrbId, UeId};
use l4span_sim::{Duration, FxHashMap, Instant, SimRng};

use crate::config::{HandoverPolicy, L4SpanConfig, SharedDrbStrategy};
use crate::estimator::EgressEstimator;
use crate::flow::{FlowState, FlowTable};
use crate::marking;
use crate::profile::ProfileTable;
use l4span_net::FiveTuple;

/// What to do with a downlink packet after L4Span processed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DlVerdict {
    /// Hand the packet to SDAP (possibly with a rewritten ECN field).
    Forward,
    /// Drop it (non-ECN fallback feedback, §4.4).
    Drop,
}

/// Event counters (Fig. 21 / Table 1 accounting).
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerStats {
    /// Downlink datagrams processed.
    pub dl_packets: u64,
    /// Uplink ACKs inspected.
    pub ul_acks: u64,
    /// Uplink ACKs rewritten by short-circuiting.
    pub ul_rewritten: u64,
    /// RAN feedback messages processed.
    pub feedback_msgs: u64,
    /// CE marks applied to downlink IP headers.
    pub dl_marks: u64,
    /// Tentative (bookkept) marks for short-circuited flows.
    pub tentative_marks: u64,
    /// Packets dropped for non-ECN feedback.
    pub drops: u64,
}

/// Per-DRB estimation and marking state.
#[derive(Debug)]
struct DrbState {
    profile: ProfileTable,
    est: EgressEstimator,
}

impl DrbState {
    fn new(window: Duration) -> DrbState {
        DrbState {
            profile: ProfileTable::new(),
            est: EgressEstimator::new(window),
        }
    }
}

/// A DRB's marker state lifted out of one L4Span instance, opaque to the
/// caller: the packet profile table (SN bookkeeping that must stay in
/// lockstep with PDCP) plus the egress-rate estimator. Produced by
/// [`L4SpanLayer::extract_drb_state`], consumed by
/// [`L4SpanLayer::reseed_drb_state`] — the carrier for marker-state
/// migration when a CU-UP instance follows a UE across cells.
#[derive(Debug)]
pub struct MarkerDrbState(DrbState);

/// A flow's per-tuple state (short-circuit ledger, ECE latch, RTT*)
/// lifted out of one instance's [`FlowTable`], opaque to the caller.
/// The uplink short-circuit path rewrites ACKs from this state, so when
/// a CU-UP instance follows a UE across cells the tuple entries must
/// migrate with the DRB state — rebuilding them fresh would desync the
/// AccECN ledger from what the client has already been told.
#[derive(Debug)]
pub struct MarkerFlowState(FlowState);

/// The L4Span CU-UP module. One instance serves a whole cell (it holds
/// per-UE, per-DRB state internally, like the per-UE entities of §5).
pub struct L4SpanLayer {
    cfg: L4SpanConfig,
    rng: SimRng,
    drbs: FxHashMap<(UeId, DrbId), DrbState>,
    flows: FlowTable,
    stats: LayerStats,
}

impl L4SpanLayer {
    /// Create a layer with the given configuration.
    pub fn new(cfg: L4SpanConfig, rng: SimRng) -> L4SpanLayer {
        L4SpanLayer {
            cfg,
            rng,
            drbs: FxHashMap::default(),
            flows: FlowTable::new(),
            stats: LayerStats::default(),
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &L4SpanConfig {
        &self.cfg
    }

    /// Cumulative event counters.
    pub fn stats(&self) -> LayerStats {
        self.stats
    }

    fn drb_state(&mut self, ue: UeId, drb: DrbId) -> &mut DrbState {
        let window = self.cfg.estimation_window;
        self.drbs
            .entry((ue, drb))
            .or_insert_with(|| DrbState::new(window))
    }

    /// Smoothed egress-rate estimate for a DRB in bytes/sec (Eq. 4).
    pub fn egress_rate(&self, ue: UeId, drb: DrbId) -> Option<f64> {
        self.drbs.get(&(ue, drb)).and_then(|d| d.est.rate())
    }

    /// Predicted sojourn time of the DRB's standing queue (Eq. 5).
    pub fn predicted_sojourn(&self, ue: UeId, drb: DrbId) -> Option<Duration> {
        let d = self.drbs.get(&(ue, drb))?;
        d.est.predict_sojourn(d.profile.queued_bytes())
    }

    /// Standing-queue bytes L4Span believes are in the RAN.
    pub fn queued_bytes(&self, ue: UeId, drb: DrbId) -> usize {
        self.drbs
            .get(&(ue, drb))
            .map(|d| d.profile.queued_bytes())
            .unwrap_or(0)
    }

    /// The current Eq. 1 marking probability for a DRB (diagnostics and
    /// the Fig. 4 walkthrough).
    pub fn current_p_l4s(&self, ue: UeId, drb: DrbId) -> f64 {
        let Some(d) = self.drbs.get(&(ue, drb)) else {
            return 0.0;
        };
        let Some(rate) = d.est.rate() else {
            return 0.0;
        };
        marking::p_l4s(
            d.profile.queued_bytes(),
            self.cfg.tau_s,
            rate,
            d.est.rate_std(),
        )
    }

    /// Resident memory of all tables (Table 1 accounting).
    pub fn memory_bytes(&self) -> usize {
        self.drbs
            .values()
            .map(|d| d.profile.memory_bytes() + d.est.memory_bytes())
            .sum::<usize>()
            + core::mem::size_of::<Self>()
    }

    /// Lift a DRB's marker state out of this instance (for migration to
    /// another L4Span instance, or inspection). Returns `None` when the
    /// DRB was never seen.
    pub fn extract_drb_state(&mut self, ue: UeId, drb: DrbId) -> Option<MarkerDrbState> {
        self.drbs.remove(&(ue, drb)).map(MarkerDrbState)
    }

    /// Install a previously-extracted DRB state (replacing any state this
    /// instance already holds for the pair). The profile table inside
    /// carries the PDCP SN mirror, so reseeding is the only correct way
    /// to move a DRB between instances — building fresh state would
    /// desynchronise the SN bookkeeping from the in-flight F1-U counters.
    pub fn reseed_drb_state(&mut self, ue: UeId, drb: DrbId, state: MarkerDrbState) {
        self.drbs.insert((ue, drb), state.0);
    }

    /// Lift a tracked flow's per-tuple state out of this instance (for
    /// migration alongside [`L4SpanLayer::extract_drb_state`]). Returns
    /// `None` when the tuple was never observed.
    pub fn extract_flow_state(&mut self, tuple: &FiveTuple) -> Option<MarkerFlowState> {
        self.flows.extract(tuple).map(MarkerFlowState)
    }

    /// Install a previously-extracted flow entry (class counters are
    /// restored with it).
    pub fn reseed_flow_state(&mut self, tuple: FiveTuple, state: MarkerFlowState) {
        self.flows.absorb(tuple, state.0);
    }

    /// The UE carrying `drb` handed over to a different cell. Under
    /// [`HandoverPolicy::MigrateState`] the estimator survives (first
    /// post-handover marks ride the old cell's estimates, §7); under
    /// [`HandoverPolicy::ColdStart`] it is reset and must re-learn from
    /// target-cell feedback. The profile table always survives: its SN
    /// mirror must stay in lockstep with PDCP, whose numbering is
    /// continuous across re-establishment — and the forwarded-but-
    /// unconfirmed SDUs it tracks as queued really are queued again at
    /// the target.
    pub fn on_handover(&mut self, ue: UeId, drb: DrbId, policy: HandoverPolicy) {
        if policy == HandoverPolicy::ColdStart {
            if let Some(d) = self.drbs.get_mut(&(ue, drb)) {
                d.est.reset();
            }
        }
    }

    /// **Event 1** (Fig. 22): a downlink datagram arrived from the core.
    /// The caller resolved SDAP's QFI→DRB mapping (L4Span mirrors it).
    pub fn on_dl_packet(
        &mut self,
        ue: UeId,
        drb: DrbId,
        pkt: &mut PacketBuf,
        now: Instant,
    ) -> DlVerdict {
        self.stats.dl_packets += 1;
        let Some(tuple) = pkt.five_tuple() else {
            return DlVerdict::Forward; // unparseable: pass through
        };
        let class = FlowClass::from_ecn(pkt.ecn());
        let default_mss = self.cfg.default_mss;

        // --- flow bookkeeping -------------------------------------------------
        let is_tcp = tuple.protocol == Protocol::Tcp;
        let tcp_hdr = if is_tcp { pkt.tcp_header() } else { None };
        {
            // One table probe: lookup-or-create plus the one-time
            // NonECN→ECT class upgrade (with count bookkeeping).
            let flow = self.flows.observe(tuple, ue, drb, class, default_mss);
            if let Some(h) = &tcp_hdr {
                flow.observe_forward(now);
                if h.accecn.is_some() {
                    flow.uses_accecn = true;
                }
                if let Some(mss) = h.mss {
                    flow.mss = mss as usize;
                }
                // The sender's CWR ends a classic ECE episode (§4.4).
                if h.flags.contains(TcpFlags::CWR) {
                    flow.ece_on = false;
                }
            }
        }

        // --- profile table ingress -------------------------------------------
        let wire_len = pkt.wire_len();
        let payload_len = pkt.payload_len();
        self.drb_state(ue, drb).profile.on_ingress(wire_len, now);

        // --- marking decision --------------------------------------------------
        // Handshake/control packets (no payload) are never marked.
        if payload_len == 0 {
            return DlVerdict::Forward;
        }
        let p = self.marking_probability(ue, drb, &tuple);
        let marked = self.rng.chance(p);
        let short_circuit = self.cfg.short_circuit && is_tcp;
        let flow = self.flows.get_mut(&tuple).expect("inserted above");
        match (flow.class, marked) {
            (FlowClass::NonEcn, true) if self.cfg.drop_non_ecn => {
                self.stats.drops += 1;
                return DlVerdict::Drop;
            }
            (FlowClass::NonEcn, _) => {}
            (_, true) if short_circuit => {
                // Tentative mark: bookkeeping only (§4.4).
                flow.marks += 1;
                flow.ce_packets = flow.ce_packets.wrapping_add(1);
                flow.ledger.ce_bytes = (flow.ledger.ce_bytes + payload_len as u32) & 0x00FF_FFFF;
                flow.ece_on = true;
                self.stats.tentative_marks += 1;
            }
            (_, true) => {
                flow.marks += 1;
                let ce = pkt.ecn().remark_to(Ecn::Ce);
                pkt.set_ecn(ce);
                self.stats.dl_marks += 1;
            }
            (FlowClass::L4s, false) if short_circuit => {
                flow.ledger.ect1_bytes =
                    (flow.ledger.ect1_bytes + payload_len as u32) & 0x00FF_FFFF;
            }
            (FlowClass::Classic, false) if short_circuit => {
                flow.ledger.ect0_bytes =
                    (flow.ledger.ect0_bytes + payload_len as u32) & 0x00FF_FFFF;
            }
            _ => {}
        }
        DlVerdict::Forward
    }

    /// The marking probability currently applicable to `tuple` on its
    /// DRB, combining Eq. 1 / Eq. 2 / the shared-DRB strategy (§4.2).
    fn marking_probability(&mut self, ue: UeId, drb: DrbId, tuple: &l4span_net::FiveTuple) -> f64 {
        let Some(d) = self.drbs.get(&(ue, drb)) else {
            return 0.0;
        };
        let Some(rate) = d.est.attainable_rate() else {
            return 0.0; // no feedback yet: cannot judge congestion
        };
        let rate_std = d.est.rate_std();
        let n_queue = d.profile.queued_bytes();
        let sojourn = Duration::from_secs_f64(n_queue as f64 / rate.max(1.0));
        let (l4s_n, classic_n, _non) = self.flows.class_counts(ue, drb);
        let flow = self.flows.get(tuple).expect("flow exists");
        let k = self.cfg.k_classic();
        // Eq. 2 needs R̂TT = R̂TT* + τ̂_s (2·τ̂_s when no handshake RTT).
        // The sojourn term is capped at the target τ_s: d̂RTT describes
        // the *balanced-buffer* operating point. Feeding the full current
        // sojourn back into d̂RTT would make p collapse exactly when the
        // queue bloats (deep queue → huge RTT estimate → no marks), the
        // opposite of "prevent the well-documented buffer bloat". With
        // the cap, a queue above target sees a slightly over-strong p and
        // drains toward it; below target the gate stops marking — the
        // buffer "balances" as §4.2.2 intends.
        let sojourn_at_target = sojourn.min(self.cfg.tau_s);
        let rtt = match flow.rtt_star {
            Some(star) => star + sojourn_at_target,
            None => sojourn_at_target * 2,
        };
        let eq1 = || marking::p_l4s(n_queue, self.cfg.tau_s, rate, rate_std);
        // Eq. 2 signals only while a standing queue actually exceeds the
        // sojourn target: the classic strategy's goal is to *balance* the
        // buffer, not to empty it ("maintain a suitable amount of bytes
        // in the buffer to avoid underutilization", §4.2.2). Marking an
        // uncongested DRB would chase the sender's own rate downward.
        //
        // Above the target, the base probability is scaled by (τ̂/τ_s)²:
        // the Padhye-matched p alone is an *equilibrium* rate and cannot
        // drain a slow-start backlog within a useful time; Fig. 4 (right)
        // shows exactly this "dequeue rate drops → higher marking
        // probability → RAN can drain the queue" feedback.
        let tau_s = self.cfg.tau_s;
        let eq2 = || {
            if sojourn < tau_s {
                0.0
            } else {
                let base = marking::p_classic(flow.mss, k, rtt, rate);
                let over = sojourn.as_secs_f64() / tau_s.as_secs_f64();
                (base * over * over).clamp(0.0, 1.0)
            }
        };
        let shared = l4s_n > 0 && classic_n > 0;
        match flow.class {
            FlowClass::L4s if !shared => eq1(),
            FlowClass::Classic if !shared => eq2(),
            FlowClass::NonEcn => {
                if self.cfg.drop_non_ecn {
                    eq2()
                } else {
                    0.0
                }
            }
            class => match self.cfg.shared_strategy {
                SharedDrbStrategy::Original => match class {
                    FlowClass::L4s => eq1(),
                    _ => eq2(),
                },
                SharedDrbStrategy::AllL4s => eq1(),
                SharedDrbStrategy::AllClassic => eq2(),
                SharedDrbStrategy::Coupled => match class {
                    FlowClass::Classic => eq2(),
                    _ => marking::p_l4s_coupled(eq2(), k),
                },
            },
        }
    }

    /// **Event 2** (Fig. 23 top): an F1-U delivery-status frame arrived.
    pub fn on_ran_feedback(&mut self, msg: &DlDataDeliveryStatus, _now: Instant) {
        self.stats.feedback_msgs += 1;
        let DrbState { profile, est } = self.drb_state(msg.ue, msg.drb);
        profile.on_feedback(
            msg.highest_txed_sn,
            msg.highest_delivered_sn,
            msg.timestamp,
            |p| est.on_txed(p.t_txed, p.size),
        );
    }

    /// **Event 3** (Fig. 23 bottom): an uplink packet passes the CU on
    /// its way to the core. TCP ACKs of short-circuited flows get their
    /// feedback fields rewritten in place (checksums fixed by
    /// `PacketBuf::update_tcp`).
    pub fn on_ul_packet(&mut self, pkt: &mut PacketBuf, _now: Instant) {
        if !pkt.is_tcp_ack() {
            return;
        }
        self.stats.ul_acks += 1;
        if !self.cfg.short_circuit {
            return;
        }
        let Some(tuple) = pkt.five_tuple() else {
            return;
        };
        let Some(flow) = self.flows.reverse_lookup_mut(&tuple) else {
            return;
        };
        match flow.class {
            FlowClass::L4s if flow.uses_accecn => {
                // Add the bookkeeping ledger ON TOP of the receiver's own
                // counters: the receiver still reports genuine CE marks
                // from upstream (wired) bottlenecks, and erasing them
                // would blind the sender whenever the bottleneck shifts
                // out of the RAN (Fig. 2's 10–20 s phase).
                let ledger = flow.ledger;
                let ce_pkts = flow.ce_packets;
                let mut rewritten = false;
                pkt.update_tcp(|h| {
                    if let Some(rx) = h.accecn {
                        h.accecn = Some(
                            l4span_net::AccEcnCounters {
                                ect0_bytes: rx.ect0_bytes + ledger.ect0_bytes,
                                ce_bytes: rx.ce_bytes + ledger.ce_bytes,
                                ect1_bytes: rx.ect1_bytes + ledger.ect1_bytes,
                            }
                            .wrapped(),
                        );
                        let ace = (u32::from(h.flags.ace()) + ce_pkts) & 0b111;
                        h.flags.set_ace(ace as u8);
                        rewritten = true;
                    }
                });
                if rewritten {
                    self.stats.ul_rewritten += 1;
                }
            }
            FlowClass::Classic
                // Set ECE while our episode is live; never clear the
                // receiver's own echo (it may reflect upstream marks).
                if flow.ece_on => {
                    let mut changed = false;
                    pkt.update_tcp(|h| {
                        if !h.flags.contains(TcpFlags::ECE) {
                            h.flags.set(TcpFlags::ECE);
                            changed = true;
                        }
                    });
                    if changed {
                        self.stats.ul_rewritten += 1;
                    }
                }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l4span_net::{AccEcnCounters, TcpHeader};

    const UE: UeId = UeId(0);
    const DRB: DrbId = DrbId(0);

    fn layer() -> L4SpanLayer {
        L4SpanLayer::new(L4SpanConfig::default(), SimRng::new(42))
    }

    fn data_pkt(ecn: Ecn, src_port: u16, payload: usize) -> PacketBuf {
        let hdr = TcpHeader {
            src_port,
            dst_port: 50_000,
            seq: 0,
            ack: 1,
            flags: TcpFlags::new().with(TcpFlags::ACK),
            ..TcpHeader::default()
        };
        PacketBuf::tcp(10, 20, ecn, 0, &hdr, payload)
    }

    fn udp_pkt(ecn: Ecn, payload: usize) -> PacketBuf {
        PacketBuf::udp(10, 20, ecn, 0, 5004, 6000, payload)
    }

    fn feedback(high_txed: u64, t: Instant) -> DlDataDeliveryStatus {
        DlDataDeliveryStatus {
            ue: UE,
            drb: DRB,
            highest_txed_sn: Some(high_txed),
            highest_delivered_sn: None,
            timestamp: t,
            desired_buffer_size: 0,
        }
    }

    /// Feed `n` packets and feedback reporting steady drainage at
    /// `per_ms` packets per millisecond.
    fn warm_up(l: &mut L4SpanLayer, n: u64, gap_us: u64) {
        for i in 0..n {
            let mut p = data_pkt(Ecn::Ect1, 443, 1400);
            l.on_dl_packet(UE, DRB, &mut p, Instant::from_micros(i * gap_us));
            l.on_ran_feedback(
                &feedback(i, Instant::from_micros(i * gap_us + 100)),
                Instant::from_micros(i * gap_us + 100),
            );
        }
    }

    /// Warm up a *slow* DRB: one small (700-byte wire) SDU every 15 ms,
    /// giving an egress estimate of ≈56 kB/s. A subsequent 700-byte SDU
    /// then predicts a sojourn above the 10 ms gate while
    /// `2·N_queue < MSS·K`, which drives Eq. 2 to exactly 1.0 — a
    /// deterministic classic mark for latch tests.
    fn slow_warm_up(l: &mut L4SpanLayer) -> Instant {
        for i in 0..20u64 {
            let mut p = data_pkt(Ecn::Ect1, 443, 660);
            let t = Instant::from_micros(i * 15_000);
            l.on_dl_packet(UE, DRB, &mut p, t);
            l.on_ran_feedback(&feedback(i, t + Duration::from_micros(100)), t);
        }
        Instant::from_micros(20 * 15_000)
    }

    #[test]
    fn no_marks_before_first_feedback() {
        let mut l = layer();
        for _ in 0..50 {
            let mut p = udp_pkt(Ecn::Ect1, 1200);
            assert_eq!(
                l.on_dl_packet(UE, DRB, &mut p, Instant::ZERO),
                DlVerdict::Forward
            );
            assert_eq!(p.ecn(), Ecn::Ect1, "cannot judge congestion yet");
        }
    }

    #[test]
    fn drained_queue_is_not_marked() {
        let mut l = layer();
        warm_up(&mut l, 200, 500);
        // Queue is empty (every SN txed): p ≈ 0.
        let mut marks = 0;
        for i in 0..100u64 {
            let mut p = udp_pkt(Ecn::Ect1, 1200);
            l.on_dl_packet(UE, DRB, &mut p, Instant::from_micros(100_000 + i));
            if p.ecn() == Ecn::Ce {
                marks += 1;
            }
            // Drain immediately.
            l.on_ran_feedback(
                &feedback(200 + i, Instant::from_micros(100_050 + i)),
                Instant::from_micros(100_050 + i),
            );
        }
        assert!(marks <= 2, "near-zero marking on an empty queue: {marks}");
    }

    #[test]
    fn deep_queue_marks_udp_l4s_packets_downlink() {
        let mut l = layer();
        warm_up(&mut l, 100, 500);
        // Now stall the RAN: ingress 300 more packets with no feedback:
        // predicted sojourn blows past τ_s = 10 ms.
        let t = Instant::from_millis(60);
        let mut marks = 0;
        for _ in 0..300 {
            let mut p = udp_pkt(Ecn::Ect1, 1200);
            l.on_dl_packet(UE, DRB, &mut p, t);
            if p.ecn() == Ecn::Ce {
                marks += 1;
            }
        }
        assert!(marks > 250, "deep queue must mark nearly all: {marks}");
    }

    #[test]
    fn tcp_l4s_marks_are_tentative_with_short_circuit() {
        let mut l = layer();
        warm_up(&mut l, 100, 500);
        let t = Instant::from_millis(60);
        for _ in 0..200 {
            let mut p = data_pkt(Ecn::Ect1, 443, 1400);
            l.on_dl_packet(UE, DRB, &mut p, t);
            assert_ne!(p.ecn(), Ecn::Ce, "downlink header untouched under SC");
        }
        assert!(l.stats().tentative_marks > 150);
        assert_eq!(l.stats().dl_marks, 0);
    }

    #[test]
    fn short_circuit_rewrites_accecn_ack() {
        let mut l = layer();
        // Handshake: SYN-ACK downlink with AccECN option → flow uses AccECN.
        let synack_hdr = TcpHeader {
            src_port: 443,
            dst_port: 50_000,
            flags: TcpFlags::new().with(TcpFlags::SYN).with(TcpFlags::ACK),
            accecn: Some(AccEcnCounters::default()),
            mss: Some(1400),
            ..TcpHeader::default()
        };
        let mut synack = PacketBuf::tcp(10, 20, Ecn::Ect1, 0, &synack_hdr, 0);
        l.on_dl_packet(UE, DRB, &mut synack, Instant::ZERO);
        warm_up(&mut l, 100, 500);
        // Build a deep queue and tentatively mark TCP packets.
        let t = Instant::from_millis(60);
        for _ in 0..100 {
            let mut p = data_pkt(Ecn::Ect1, 443, 1400);
            l.on_dl_packet(UE, DRB, &mut p, t);
        }
        assert!(l.stats().tentative_marks > 0);
        // Uplink ACK with zero counters gets the ledger substituted.
        let ack_hdr = TcpHeader {
            src_port: 50_000,
            dst_port: 443,
            ack: 1400,
            flags: TcpFlags::new().with(TcpFlags::ACK),
            accecn: Some(AccEcnCounters::default()),
            ..TcpHeader::default()
        };
        let mut ack = PacketBuf::tcp(20, 10, Ecn::NotEct, 0, &ack_hdr, 0);
        l.on_ul_packet(&mut ack, t);
        let h = ack.tcp_header().unwrap();
        assert!(h.accecn.unwrap().ce_bytes > 0, "ledger substituted");
        assert!(ack.checksums_valid(), "checksum refreshed");
        assert!(l.stats().ul_rewritten >= 1);
    }

    #[test]
    fn classic_short_circuit_echoes_ece_until_cwr() {
        let mut l = layer();
        let t = slow_warm_up(&mut l);
        // With no handshake RTT, Eq. 2 reduces to (MSS·K / 2·N_queue)²,
        // which is 1.0 for a small packet on a slow DRB: the mark (and
        // therefore the ECE latch) is deterministic.
        let mut p = data_pkt(Ecn::Ect0, 444, 660);
        l.on_dl_packet(UE, DRB, &mut p, t);
        assert_eq!(p.ecn(), Ecn::Ect0, "downlink untouched under SC");
        let ack_hdr = TcpHeader {
            src_port: 50_000,
            dst_port: 444,
            ack: 1400,
            flags: TcpFlags::new().with(TcpFlags::ACK),
            ..TcpHeader::default()
        };
        let mut ack = PacketBuf::tcp(20, 10, Ecn::NotEct, 0, &ack_hdr, 0);
        l.on_ul_packet(&mut ack, t);
        assert!(
            ack.tcp_header().unwrap().flags.contains(TcpFlags::ECE),
            "ECE latched on uplink ACK"
        );
        assert!(ack.checksums_valid());
        // A downlink CWR (pure header, no payload so no re-mark) clears it.
        let mut cwr_pkt = data_pkt(Ecn::Ect0, 444, 0);
        cwr_pkt.update_tcp(|h| h.flags.set(TcpFlags::CWR));
        l.on_dl_packet(UE, DRB, &mut cwr_pkt, t);
        let mut ack2 = PacketBuf::tcp(20, 10, Ecn::NotEct, 0, &ack_hdr, 0);
        l.on_ul_packet(&mut ack2, Instant::from_millis(61));
        assert!(
            !ack2.tcp_header().unwrap().flags.contains(TcpFlags::ECE),
            "CWR cleared the latch"
        );
    }

    #[test]
    fn non_ecn_flow_untouched_by_default_dropped_when_configured() {
        let mut l = layer();
        warm_up(&mut l, 100, 500);
        let t = Instant::from_millis(60);
        for _ in 0..100 {
            let mut p = udp_pkt(Ecn::NotEct, 1200);
            assert_eq!(l.on_dl_packet(UE, DRB, &mut p, t), DlVerdict::Forward);
            assert_eq!(p.ecn(), Ecn::NotEct);
        }
        // Now with drop_non_ecn: a small packet on a slow DRB makes
        // Eq. 2 deterministic (see `classic_short_circuit_echoes_ece…`).
        let cfg = L4SpanConfig {
            drop_non_ecn: true,
            ..L4SpanConfig::default()
        };
        let mut l2 = L4SpanLayer::new(cfg, SimRng::new(7));
        let t2 = slow_warm_up(&mut l2);
        let mut drops = 0;
        for _ in 0..5 {
            let mut p = udp_pkt(Ecn::NotEct, 672);
            if l2.on_dl_packet(UE, DRB, &mut p, t2) == DlVerdict::Drop {
                drops += 1;
            }
        }
        assert!(drops > 0, "loss-based feedback for non-ECN flows");
    }

    #[test]
    fn sojourn_prediction_tracks_feedback() {
        let mut l = layer();
        warm_up(&mut l, 100, 500);
        // Empty queue: sojourn ≈ 0.
        let s0 = l.predicted_sojourn(UE, DRB).unwrap();
        assert!(s0 < Duration::from_millis(1), "{s0}");
        // 60 stalled packets at ~2.9 MB/s ≈ 30 ms.
        let t = Instant::from_millis(60);
        for _ in 0..60 {
            let mut p = udp_pkt(Ecn::Ect1, 1200);
            l.on_dl_packet(UE, DRB, &mut p, t);
        }
        let s1 = l.predicted_sojourn(UE, DRB).unwrap();
        assert!(
            s1 > Duration::from_millis(15),
            "standing queue must predict sojourn: {s1}"
        );
    }

    #[test]
    fn handover_policy_migrate_keeps_estimates_cold_start_forgets() {
        let mut migrate = layer();
        let mut cold = layer();
        warm_up(&mut migrate, 200, 500);
        warm_up(&mut cold, 200, 500);
        assert!(migrate.egress_rate(UE, DRB).is_some());
        migrate.on_handover(UE, DRB, HandoverPolicy::MigrateState);
        cold.on_handover(UE, DRB, HandoverPolicy::ColdStart);
        assert!(
            migrate.egress_rate(UE, DRB).is_some(),
            "MigrateState: old estimate drives the first post-HO marks"
        );
        assert_eq!(
            cold.egress_rate(UE, DRB),
            None,
            "ColdStart: silent until a fresh window fills"
        );
        // Both keep the profile table's SN mirror (PDCP continuity).
        assert!(migrate.queued_bytes(UE, DRB) == cold.queued_bytes(UE, DRB));
        // A deep queue right after handover: only MigrateState can mark.
        let t = Instant::from_millis(120);
        let (mut marks_migrate, mut marks_cold) = (0, 0);
        for _ in 0..300 {
            let mut p = udp_pkt(Ecn::Ect1, 1200);
            migrate.on_dl_packet(UE, DRB, &mut p, t);
            if p.ecn() == Ecn::Ce {
                marks_migrate += 1;
            }
            let mut p = udp_pkt(Ecn::Ect1, 1200);
            cold.on_dl_packet(UE, DRB, &mut p, t);
            if p.ecn() == Ecn::Ce {
                marks_cold += 1;
            }
        }
        assert!(
            marks_migrate > 200,
            "migrated estimate marks: {marks_migrate}"
        );
        assert_eq!(marks_cold, 0, "cold start cannot judge congestion yet");
    }

    #[test]
    fn drb_state_extract_reseed_roundtrip() {
        let mut a = layer();
        warm_up(&mut a, 200, 500);
        let queued_before = a.queued_bytes(UE, DRB);
        let rate_before = a.egress_rate(UE, DRB);
        let st = a.extract_drb_state(UE, DRB).expect("state exists");
        assert_eq!(a.egress_rate(UE, DRB), None, "state left the instance");
        // A second CU-UP instance inherits the DRB wholesale.
        let mut b = layer();
        b.reseed_drb_state(UE, DRB, st);
        assert_eq!(b.egress_rate(UE, DRB), rate_before);
        assert_eq!(b.queued_bytes(UE, DRB), queued_before);
        assert!(a.extract_drb_state(UE, DRB).is_none());
    }

    #[test]
    fn memory_accounting_is_sane() {
        let mut l = layer();
        warm_up(&mut l, 1000, 100);
        let m = l.memory_bytes();
        assert!(m > 0 && m < 1 << 20, "bounded state: {m} bytes");
    }
}
