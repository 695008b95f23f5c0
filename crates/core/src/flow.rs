//! Flow bookkeeping: five-tuple → (UE, DRB) mapping, per-flow feedback
//! state for short-circuiting, and handshake-based RTT* estimation.

use l4span_net::ecn::FlowClass;
use l4span_net::{AccEcnCounters, FiveTuple};
use l4span_ran::{DrbId, UeId};
use l4span_sim::{Duration, FxHashMap, Instant};

/// Per-flow state L4Span keeps (paper §4.1, §4.2.2, §4.4).
#[derive(Debug)]
pub struct FlowState {
    /// UE this flow belongs to.
    pub ue: UeId,
    /// DRB the flow rides.
    pub drb: DrbId,
    /// L4S / classic / non-ECN, from the first downlink packet's ECN field.
    pub class: FlowClass,
    /// True once a handshake packet carried the AccECN TCP option.
    pub uses_accecn: bool,
    /// Classic short-circuit state: echo ECE on uplink ACKs until the
    /// sender's CWR is observed downlink.
    pub ece_on: bool,
    /// AccECN bookkeeping ledger ("L4Span serves as a bookkeeper for the
    /// client"): cumulative byte counters by codepoint *as L4Span marked
    /// them*, substituted into uplink ACKs when short-circuiting.
    pub ledger: AccEcnCounters,
    /// CE-marked packet count (feeds the ACE field, modulo 8).
    pub ce_packets: u32,
    /// Time of the first forward (downlink) TCP packet.
    pub first_fwd_at: Option<Instant>,
    /// R̂TT*: spacing of the first two forward TCP packets (§4.2.2).
    pub rtt_star: Option<Duration>,
    /// Flow MSS from the handshake option, else the configured default.
    pub mss: usize,
    /// Cumulative tentative/actual CE marks on this flow (diagnostics).
    pub marks: u64,
}

impl FlowState {
    /// Fresh flow state.
    pub fn new(ue: UeId, drb: DrbId, class: FlowClass, default_mss: usize) -> FlowState {
        FlowState {
            ue,
            drb,
            class,
            uses_accecn: false,
            ece_on: false,
            ledger: AccEcnCounters::default(),
            ce_packets: 0,
            first_fwd_at: None,
            rtt_star: None,
            mss: default_mss,
            marks: 0,
        }
    }

    /// Feed a forward-packet timestamp into the RTT* estimator: the gap
    /// between the first two forward TCP packets approximates the path
    /// RTT (SYN-ACK → first data spans client-ACK round).
    pub fn observe_forward(&mut self, now: Instant) {
        match (self.first_fwd_at, self.rtt_star) {
            (None, _) => self.first_fwd_at = Some(now),
            (Some(t0), None) => {
                let gap = now.saturating_since(t0);
                if !gap.is_zero() {
                    self.rtt_star = Some(gap);
                }
            }
            _ => {}
        }
    }
}

/// The five-tuple table: downlink tuples map to flow state; uplink ACKs
/// are resolved through the reversed tuple (Fig. 23 pseudocode).
///
/// Per-DRB class counts are maintained incrementally on insert and
/// reclassification, so the per-packet shared-DRB decision (§4.2) is an
/// O(1) lookup instead of a scan over every tracked flow.
#[derive(Debug, Default)]
pub struct FlowTable {
    flows: FxHashMap<FiveTuple, FlowState>,
    /// (ue, drb) → [l4s, classic, non_ecn] flow counts.
    counts: FxHashMap<(UeId, DrbId), [u32; 3]>,
}

fn class_idx(class: FlowClass) -> usize {
    match class {
        FlowClass::L4s => 0,
        FlowClass::Classic => 1,
        FlowClass::NonEcn => 2,
    }
}

impl FlowTable {
    /// Empty table.
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// The one insert path (shared by [`FlowTable::get_or_insert`] and
    /// [`FlowTable::observe`]): lookup-or-create with count bookkeeping.
    /// Free function over the two fields so callers can keep borrowing
    /// `counts` after the returned flow borrow (field-disjoint).
    fn entry<'a>(
        flows: &'a mut FxHashMap<FiveTuple, FlowState>,
        counts: &mut FxHashMap<(UeId, DrbId), [u32; 3]>,
        tuple: FiveTuple,
        ue: UeId,
        drb: DrbId,
        class: FlowClass,
        default_mss: usize,
    ) -> &'a mut FlowState {
        flows.entry(tuple).or_insert_with(|| {
            counts.entry((ue, drb)).or_default()[class_idx(class)] += 1;
            FlowState::new(ue, drb, class, default_mss)
        })
    }

    /// Lookup or create the flow for a downlink tuple.
    pub fn get_or_insert(
        &mut self,
        tuple: FiveTuple,
        ue: UeId,
        drb: DrbId,
        class: FlowClass,
        default_mss: usize,
    ) -> &mut FlowState {
        Self::entry(
            &mut self.flows,
            &mut self.counts,
            tuple,
            ue,
            drb,
            class,
            default_mss,
        )
    }

    /// Per-packet entry point: lookup-or-create the flow, and upgrade a
    /// NonECN-classified flow to the observed ECT `class` (handshake
    /// packets are Not-ECT, so the real class shows on the first ECT
    /// data packet). One table probe on the hot path; class counts stay
    /// in sync through the upgrade.
    pub fn observe(
        &mut self,
        tuple: FiveTuple,
        ue: UeId,
        drb: DrbId,
        class: FlowClass,
        default_mss: usize,
    ) -> &mut FlowState {
        let flow = Self::entry(
            &mut self.flows,
            &mut self.counts,
            tuple,
            ue,
            drb,
            class,
            default_mss,
        );
        if flow.class == FlowClass::NonEcn && class != FlowClass::NonEcn {
            let c = self.counts.entry((flow.ue, flow.drb)).or_default();
            c[class_idx(FlowClass::NonEcn)] = c[class_idx(FlowClass::NonEcn)].saturating_sub(1);
            c[class_idx(class)] += 1;
            flow.class = class;
        }
        flow
    }

    /// Downlink-tuple lookup.
    pub fn get(&self, tuple: &FiveTuple) -> Option<&FlowState> {
        self.flows.get(tuple)
    }

    /// Mutable downlink-tuple lookup.
    pub fn get_mut(&mut self, tuple: &FiveTuple) -> Option<&mut FlowState> {
        self.flows.get_mut(tuple)
    }

    /// Resolve an *uplink* packet's tuple to its downlink flow.
    pub fn reverse_lookup_mut(&mut self, uplink: &FiveTuple) -> Option<&mut FlowState> {
        self.flows.get_mut(&uplink.reversed())
    }

    /// Number of tracked flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Iterate flows (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = (&FiveTuple, &FlowState)> {
        self.flows.iter()
    }

    /// Count flows of each class on a DRB: (l4s, classic, non_ecn).
    /// O(1): read from the incrementally-maintained counters.
    pub fn class_counts(&self, ue: UeId, drb: DrbId) -> (usize, usize, usize) {
        let c = self.counts.get(&(ue, drb)).copied().unwrap_or_default();
        (c[0] as usize, c[1] as usize, c[2] as usize)
    }

    /// Remove a flow entry and keep the class counters in sync. The Xn
    /// handover path uses this to carry a UE's per-tuple state between
    /// per-cell marker instances.
    pub fn extract(&mut self, tuple: &FiveTuple) -> Option<FlowState> {
        let flow = self.flows.remove(tuple)?;
        if let Some(c) = self.counts.get_mut(&(flow.ue, flow.drb)) {
            c[class_idx(flow.class)] = c[class_idx(flow.class)].saturating_sub(1);
        }
        Some(flow)
    }

    /// Re-insert a flow entry previously removed with
    /// [`FlowTable::extract`], restoring its class counter.
    pub fn absorb(&mut self, tuple: FiveTuple, flow: FlowState) {
        self.counts.entry((flow.ue, flow.drb)).or_default()[class_idx(flow.class)] += 1;
        self.flows.insert(tuple, flow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l4span_net::Protocol;

    fn tuple() -> FiveTuple {
        FiveTuple {
            src_ip: 1,
            dst_ip: 2,
            src_port: 443,
            dst_port: 50_000,
            protocol: Protocol::Tcp,
        }
    }

    #[test]
    fn reverse_lookup_finds_downlink_flow() {
        let mut t = FlowTable::new();
        t.get_or_insert(tuple(), UeId(0), DrbId(1), FlowClass::L4s, 1400);
        let up = tuple().reversed();
        let f = t.reverse_lookup_mut(&up).expect("found");
        assert_eq!(f.drb, DrbId(1));
        assert_eq!(f.class, FlowClass::L4s);
    }

    #[test]
    fn rtt_star_from_first_two_forward_packets() {
        let mut f = FlowState::new(UeId(0), DrbId(0), FlowClass::Classic, 1400);
        f.observe_forward(Instant::from_millis(100));
        assert_eq!(f.rtt_star, None);
        f.observe_forward(Instant::from_millis(140));
        assert_eq!(f.rtt_star, Some(Duration::from_millis(40)));
        // Further packets don't change it.
        f.observe_forward(Instant::from_millis(300));
        assert_eq!(f.rtt_star, Some(Duration::from_millis(40)));
    }

    #[test]
    fn zero_gap_is_not_an_rtt() {
        let mut f = FlowState::new(UeId(0), DrbId(0), FlowClass::Classic, 1400);
        f.observe_forward(Instant::from_millis(5));
        f.observe_forward(Instant::from_millis(5));
        assert_eq!(f.rtt_star, None, "coincident packets carry no signal");
    }

    #[test]
    fn class_counts_by_drb() {
        let mut t = FlowTable::new();
        let mut tp = tuple();
        t.get_or_insert(tp, UeId(0), DrbId(0), FlowClass::L4s, 1400);
        tp.src_port = 444;
        t.get_or_insert(tp, UeId(0), DrbId(0), FlowClass::Classic, 1400);
        tp.src_port = 445;
        t.get_or_insert(tp, UeId(0), DrbId(1), FlowClass::Classic, 1400);
        assert_eq!(t.class_counts(UeId(0), DrbId(0)), (1, 1, 0));
        assert_eq!(t.class_counts(UeId(0), DrbId(1)), (0, 1, 0));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn observe_upgrades_non_ecn_once_and_keeps_counts() {
        let mut t = FlowTable::new();
        // Handshake packet: Not-ECT.
        let f = t.observe(tuple(), UeId(0), DrbId(0), FlowClass::NonEcn, 1400);
        assert_eq!(f.class, FlowClass::NonEcn);
        assert_eq!(t.class_counts(UeId(0), DrbId(0)), (0, 0, 1));
        // First ECT data packet: the flow's real class shows.
        let f = t.observe(tuple(), UeId(0), DrbId(0), FlowClass::L4s, 1400);
        assert_eq!(f.class, FlowClass::L4s);
        assert_eq!(t.class_counts(UeId(0), DrbId(0)), (1, 0, 0));
        // Later Not-ECT packets (pure ACKs) must not downgrade it back.
        let f = t.observe(tuple(), UeId(0), DrbId(0), FlowClass::NonEcn, 1400);
        assert_eq!(f.class, FlowClass::L4s);
        assert_eq!(t.class_counts(UeId(0), DrbId(0)), (1, 0, 0));
        assert_eq!(t.len(), 1);
    }
}
