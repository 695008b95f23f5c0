//! CU-side marking adapters: L4Span, the DualPi2-at-CU ablation, the
//! TC-RAN (CoDel) baseline, or nothing.
//!
//! All adapters speak the same three-event interface as L4Span so the
//! world can swap them per scenario. The baselines estimate the RLC
//! sojourn from the age of the oldest unreported SDU in a profile table —
//! the best a fixed-threshold qdisc at the CU can do, and precisely why
//! §6.3.1 finds DualPi2 under-utilises a fading link.

use l4span_aqm::{CoDel, DualPi2, Verdict};
use l4span_core::profile::ProfileTable;
use l4span_core::{DlVerdict, HandoverPolicy, L4SpanConfig, L4SpanLayer};
use l4span_core::{MarkerDrbState, MarkerFlowState};
use l4span_net::{Ecn, FiveTuple, PacketBuf};
use l4span_ran::f1u::DlDataDeliveryStatus;
use l4span_ran::{DrbId, UeId};
use l4span_sim::{Duration, FxHashMap, Instant, SimRng};

/// Which marker the scenario installs at the CU. `#[non_exhaustive]`:
/// match with a wildcard arm so future baselines aren't semver breaks.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub enum MarkerKind {
    /// Vanilla RAN: no in-network signaling at all (the "5G network" bars
    /// of Fig. 2(b) and the unmarked halves of Fig. 9).
    None,
    /// L4Span with the given configuration.
    L4Span(L4SpanConfig),
    /// DualPi2 transplanted to the CU with the given L-queue step
    /// threshold (1 ms or 10 ms in §6.3.1).
    DualPi2Cu {
        /// Step-marking threshold for L4S packets.
        threshold: Duration,
    },
    /// TC-RAN: CoDel (`ecn = false`) or ECN-CoDel (`ecn = true`) at the
    /// CU with the default 5 ms / 100 ms parameters.
    TcRan {
        /// Mark instead of drop.
        ecn: bool,
    },
}

/// Per-DRB state for the fixed-threshold baselines.
pub struct BaselineDrb {
    profile: ProfileTable,
    dualpi2: DualPi2,
    codel: CoDel,
}

/// The installed marker instance.
pub enum Marker {
    /// No-op.
    None,
    /// The real thing.
    L4Span(L4SpanLayer),
    /// DualPi2 at the CU.
    DualPi2Cu {
        /// Per-DRB queue/PI state.
        drbs: FxHashMap<(UeId, DrbId), BaselineDrb>,
        /// L-queue step threshold new DRBs get.
        threshold: Duration,
        /// Marking-coin RNG.
        rng: SimRng,
    },
    /// CoDel / ECN-CoDel at the CU.
    TcRan {
        /// Per-DRB queue/CoDel state.
        drbs: FxHashMap<(UeId, DrbId), BaselineDrb>,
        /// Mark instead of drop.
        ecn: bool,
    },
}

impl MarkerKind {
    /// The variant of this marker installed at the **UE side** for the
    /// uplink data queue: L4Span runs with
    /// [`L4SpanConfig::for_uplink`] (no ACK short-circuiting — uplink
    /// feedback already rides the fast downlink), the fixed-threshold
    /// baselines are unchanged. The marker API is direction-agnostic:
    /// "a packet enters the RAN queue", "granted bytes left it".
    pub fn uplink(&self) -> MarkerKind {
        match self {
            MarkerKind::L4Span(cfg) => MarkerKind::L4Span(cfg.for_uplink()),
            other => other.clone(),
        }
    }
}

impl Marker {
    /// Instantiate a marker.
    pub fn new(kind: &MarkerKind, rng: SimRng) -> Marker {
        match kind {
            MarkerKind::None => Marker::None,
            MarkerKind::L4Span(cfg) => Marker::L4Span(L4SpanLayer::new(cfg.clone(), rng)),
            MarkerKind::DualPi2Cu { threshold } => Marker::DualPi2Cu {
                drbs: FxHashMap::default(),
                threshold: *threshold,
                rng,
            },
            MarkerKind::TcRan { ecn } => Marker::TcRan {
                drbs: FxHashMap::default(),
                ecn: *ecn,
            },
        }
    }

    /// Downlink event. May rewrite the ECN field; returns whether to
    /// forward or drop.
    pub fn on_dl(&mut self, ue: UeId, drb: DrbId, pkt: &mut PacketBuf, now: Instant) -> DlVerdict {
        match self {
            Marker::None => DlVerdict::Forward,
            Marker::L4Span(l) => l.on_dl_packet(ue, drb, pkt, now),
            Marker::DualPi2Cu {
                drbs,
                threshold,
                rng,
            } => {
                let d = baseline_drb(drbs, ue, drb, *threshold);
                d.profile.on_ingress(pkt.wire_len(), now);
                if pkt.payload_len() == 0 {
                    return DlVerdict::Forward;
                }
                let sojourn = d
                    .profile
                    .head_ingress()
                    .map(|t| now.saturating_since(t))
                    .unwrap_or(Duration::ZERO);
                d.dualpi2.update(sojourn, now);
                match d.dualpi2.decide(pkt.ecn(), sojourn, rng) {
                    Verdict::Mark => {
                        let ce = pkt.ecn().remark_to(Ecn::Ce);
                        pkt.set_ecn(ce);
                        DlVerdict::Forward
                    }
                    Verdict::Drop => DlVerdict::Drop,
                    Verdict::Pass => DlVerdict::Forward,
                }
            }
            Marker::TcRan { drbs, ecn } => {
                let d = baseline_drb(drbs, ue, drb, Duration::from_millis(1));
                d.profile.on_ingress(pkt.wire_len(), now);
                if pkt.payload_len() == 0 {
                    return DlVerdict::Forward;
                }
                let sojourn = d
                    .profile
                    .head_ingress()
                    .map(|t| now.saturating_since(t))
                    .unwrap_or(Duration::ZERO);
                let verdict = d.codel.decide(sojourn, now);
                // ECN-CoDel variant: once the control law is in its
                // dropping state, every ECT packet is marked (TC-RAN's
                // fixed-threshold behaviour that §6.2.2 contrasts with
                // L4Span's rate-adaptive marking).
                if *ecn && pkt.ecn().is_ect() {
                    if verdict != Verdict::Pass || d.codel.dropping() {
                        let ce = pkt.ecn().remark_to(Ecn::Ce);
                        pkt.set_ecn(ce);
                    }
                    return DlVerdict::Forward;
                }
                match verdict {
                    Verdict::Mark | Verdict::Drop => DlVerdict::Drop,
                    Verdict::Pass => DlVerdict::Forward,
                }
            }
        }
    }

    /// F1-U feedback event.
    pub fn on_feedback(&mut self, msg: &DlDataDeliveryStatus, now: Instant) {
        match self {
            Marker::None => {}
            Marker::L4Span(l) => l.on_ran_feedback(msg, now),
            Marker::DualPi2Cu { drbs, .. } | Marker::TcRan { drbs, .. } => {
                if let Some(d) = drbs.get_mut(&(msg.ue, msg.drb)) {
                    d.profile.on_feedback(
                        msg.highest_txed_sn,
                        msg.highest_delivered_sn,
                        msg.timestamp,
                        |_| {},
                    );
                }
            }
        }
    }

    /// Uplink packet event (short-circuiting; only L4Span acts).
    pub fn on_ul(&mut self, pkt: &mut PacketBuf, now: Instant) {
        if let Marker::L4Span(l) = self {
            l.on_ul_packet(pkt, now);
        }
    }

    /// The UE carrying `drb` handed over to another cell: apply the
    /// scenario's marker policy to that DRB's estimation state. For the
    /// fixed-threshold baselines, `ColdStart` resets the control-law
    /// state (PI integrator / CoDel dropping episode); the profile
    /// table's SN mirror always survives, for the same PDCP-continuity
    /// reason as in L4Span proper.
    pub fn on_handover(&mut self, ue: UeId, drb: DrbId, policy: HandoverPolicy) {
        match self {
            Marker::None => {}
            Marker::L4Span(l) => l.on_handover(ue, drb, policy),
            Marker::DualPi2Cu {
                drbs, threshold, ..
            } => {
                if policy == HandoverPolicy::ColdStart {
                    if let Some(d) = drbs.get_mut(&(ue, drb)) {
                        d.dualpi2 = DualPi2::new(Duration::from_millis(15), *threshold);
                    }
                }
            }
            Marker::TcRan { drbs, .. } => {
                if policy == HandoverPolicy::ColdStart {
                    if let Some(d) = drbs.get_mut(&(ue, drb)) {
                        d.codel = CoDel::new(true);
                    }
                }
            }
        }
    }

    /// Borrow the L4Span layer if this marker is one.
    pub fn as_l4span(&self) -> Option<&L4SpanLayer> {
        match self {
            Marker::L4Span(l) => Some(l),
            _ => None,
        }
    }

    /// Lift every piece of state this instance holds for `ue` out, for
    /// Xn migration to the target cell's marker instance (per-cell CU-UP
    /// deployments). `drbs` names the UE's bearers; `tuples` the
    /// five-tuples of its flows as seen in the *downlink* direction —
    /// the reversed tuple is extracted too, because a CU instance
    /// observes uplink flows through their downlink-travelling feedback
    /// and keys that state by the feedback's own tuple.
    pub fn extract_ue(&mut self, ue: UeId, drbs: &[DrbId], tuples: &[FiveTuple]) -> MarkerCarry {
        let mut carry = MarkerCarry {
            ue,
            drbs: Vec::new(),
            flows: Vec::new(),
            baseline: Vec::new(),
        };
        match self {
            Marker::None => {}
            Marker::L4Span(l) => {
                for &d in drbs {
                    if let Some(st) = l.extract_drb_state(ue, d) {
                        carry.drbs.push((d, st));
                    }
                }
                for t in tuples {
                    if let Some(st) = l.extract_flow_state(t) {
                        carry.flows.push((*t, st));
                    }
                    let rev = t.reversed();
                    if let Some(st) = l.extract_flow_state(&rev) {
                        carry.flows.push((rev, st));
                    }
                }
            }
            Marker::DualPi2Cu { drbs: map, .. } | Marker::TcRan { drbs: map, .. } => {
                for &d in drbs {
                    if let Some(st) = map.remove(&(ue, d)) {
                        carry.baseline.push((d, st));
                    }
                }
            }
        }
        carry
    }

    /// Install a UE's state previously lifted with
    /// [`Marker::extract_ue`]. The carry must come from a marker of the
    /// same kind (the world instantiates every per-cell marker from one
    /// [`MarkerKind`], so this holds by construction); mismatched
    /// payloads are ignored rather than misapplied.
    pub fn absorb_ue(&mut self, carry: MarkerCarry) {
        let ue = carry.ue;
        match self {
            Marker::None => {}
            Marker::L4Span(l) => {
                for (d, st) in carry.drbs {
                    l.reseed_drb_state(ue, d, st);
                }
                for (t, st) in carry.flows {
                    l.reseed_flow_state(t, st);
                }
            }
            Marker::DualPi2Cu { drbs: map, .. } | Marker::TcRan { drbs: map, .. } => {
                for (d, st) in carry.baseline {
                    map.insert((ue, d), st);
                }
            }
        }
    }
}

/// A UE's marker state in flight between two per-cell [`Marker`]
/// instances during handover (the Xn context transfer). Opaque;
/// produced by [`Marker::extract_ue`], consumed by
/// [`Marker::absorb_ue`].
pub struct MarkerCarry {
    ue: UeId,
    drbs: Vec<(DrbId, MarkerDrbState)>,
    flows: Vec<(FiveTuple, MarkerFlowState)>,
    baseline: Vec<(DrbId, BaselineDrb)>,
}

fn baseline_drb(
    drbs: &mut FxHashMap<(UeId, DrbId), BaselineDrb>,
    ue: UeId,
    drb: DrbId,
    threshold: Duration,
) -> &mut BaselineDrb {
    drbs.entry((ue, drb)).or_insert_with(|| BaselineDrb {
        profile: ProfileTable::new(),
        dualpi2: DualPi2::new(Duration::from_millis(15), threshold),
        codel: CoDel::new(true),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn udp(ecn: Ecn) -> PacketBuf {
        PacketBuf::udp(1, 2, ecn, 0, 5004, 6000, 1200)
    }

    fn fb(ue: UeId, drb: DrbId, high: u64, t: Instant) -> DlDataDeliveryStatus {
        DlDataDeliveryStatus {
            ue,
            drb,
            highest_txed_sn: Some(high),
            highest_delivered_sn: None,
            timestamp: t,
            desired_buffer_size: 0,
        }
    }

    #[test]
    fn none_marker_is_transparent() {
        let mut m = Marker::new(&MarkerKind::None, SimRng::new(1));
        let mut p = udp(Ecn::Ect1);
        assert_eq!(
            m.on_dl(UeId(0), DrbId(0), &mut p, Instant::ZERO),
            DlVerdict::Forward
        );
        assert_eq!(p.ecn(), Ecn::Ect1);
    }

    #[test]
    fn dualpi2_cu_step_marks_stale_queue() {
        let mut m = Marker::new(
            &MarkerKind::DualPi2Cu {
                threshold: Duration::from_millis(1),
            },
            SimRng::new(1),
        );
        // Build a queue with no feedback: head age grows.
        let mut first = udp(Ecn::Ect1);
        m.on_dl(UeId(0), DrbId(0), &mut first, Instant::ZERO);
        let mut later = udp(Ecn::Ect1);
        m.on_dl(UeId(0), DrbId(0), &mut later, Instant::from_millis(5));
        assert_eq!(later.ecn(), Ecn::Ce, "head is 5 ms old > 1 ms step");
        // Feedback drains the profile: marking stops.
        m.on_feedback(
            &fb(UeId(0), DrbId(0), 1, Instant::from_millis(6)),
            Instant::from_millis(6),
        );
        let mut fresh = udp(Ecn::Ect1);
        m.on_dl(UeId(0), DrbId(0), &mut fresh, Instant::from_millis(7));
        assert_eq!(fresh.ecn(), Ecn::Ect1, "fresh head, no mark");
    }

    #[test]
    fn tcran_codel_marks_after_interval() {
        let mut m = Marker::new(&MarkerKind::TcRan { ecn: true }, SimRng::new(1));
        // Keep a stale head for > 100 ms of packets.
        let mut marked = 0;
        let mut first = udp(Ecn::Ect0);
        m.on_dl(UeId(0), DrbId(0), &mut first, Instant::ZERO);
        for ms in 1..300u64 {
            let mut p = udp(Ecn::Ect0);
            m.on_dl(UeId(0), DrbId(0), &mut p, Instant::from_millis(ms));
            if p.ecn() == Ecn::Ce {
                marked += 1;
            }
        }
        assert!(marked > 0, "ECN-CoDel marks a standing queue");
    }

    #[test]
    fn l4span_marker_roundtrip() {
        let mut m = Marker::new(&MarkerKind::L4Span(L4SpanConfig::default()), SimRng::new(1));
        let mut p = udp(Ecn::Ect1);
        assert_eq!(
            m.on_dl(UeId(0), DrbId(0), &mut p, Instant::ZERO),
            DlVerdict::Forward
        );
        assert!(m.as_l4span().is_some());
        assert_eq!(m.as_l4span().unwrap().stats().dl_packets, 1);
    }
}
