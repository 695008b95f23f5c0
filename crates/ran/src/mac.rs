//! MAC downlink scheduling: resource-block-group allocation under
//! round-robin or proportional-fair policy, and the transport-block type
//! shared with HARQ.
//!
//! The allocation functions are pure so they can be unit-tested in
//! isolation; the per-slot machinery that calls them lives in [`crate::gnb`].

use l4span_sim::Instant;

use crate::ids::{DrbId, UeId};
use crate::rlc::Segment;

/// A transport block scheduled for one UE in one slot.
#[derive(Debug)]
pub struct TransportBlock {
    /// Destination UE.
    pub ue: UeId,
    /// RLC segments packed into the block, tagged with their DRB.
    pub segments: Vec<(DrbId, Segment)>,
    /// Bytes of MAC payload consumed (segments + RLC/MAC overhead).
    pub bytes: usize,
    /// HARQ transmission attempt, 1 = first transmission.
    pub attempt: u8,
    /// CQI used for the (initial) transmission.
    pub cqi: u8,
    /// Time of the first transmission attempt (for metrics).
    pub first_tx: Instant,
}

/// One UE competing for resources in a slot.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// UE identifier.
    pub ue: UeId,
    /// RLC backlog in bytes across all of the UE's DRBs.
    pub backlog: usize,
    /// Bytes one RBG can carry for this UE at its current CQI.
    pub bytes_per_rbg: usize,
    /// EWMA throughput in bytes/slot (proportional-fair denominator).
    pub avg_throughput: f64,
}

/// One allocation of a slot: `rbgs` resource-block groups for the
/// candidate at position `cand` of the slice the allocator was given, so
/// the caller addresses the UE's state by index instead of searching for
/// its id again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Position of the granted UE in the candidate slice.
    pub cand: usize,
    /// Resource-block groups granted (never 0).
    pub rbgs: usize,
}

/// Reusable buffers for the slot-tick allocators. The 2 kHz per-cell
/// slot tick calls an allocator every downlink slot; routing its
/// working sets through here keeps the tick allocation-free at steady
/// state (the shard epoch hot loop).
#[derive(Debug, Default)]
pub struct AllocScratch {
    remaining: Vec<(usize, isize)>,
    grants: Vec<usize>,
    metric: Vec<f64>,
    order: Vec<usize>,
}

/// Allocate `n_rbgs` resource-block groups round-robin: one RBG per
/// backlogged UE per pass, starting after the cursor so the head position
/// rotates across slots. Writes the grants, in candidate order, into the
/// caller-owned `out` (cleared first) — zero allocations once `scratch`
/// and `out` are at steady-state capacity.
pub fn allocate_round_robin_into(
    cands: &[Candidate],
    n_rbgs: usize,
    cursor: &mut usize,
    scratch: &mut AllocScratch,
    out: &mut Vec<Grant>,
) {
    out.clear();
    let remaining = &mut scratch.remaining;
    remaining.clear();
    remaining.extend(
        cands
            .iter()
            .enumerate()
            .filter(|(_, c)| c.backlog > 0 && c.bytes_per_rbg > 0)
            .map(|(i, c)| (i, c.backlog as isize)),
    );
    if remaining.is_empty() {
        return;
    }
    let grants = &mut scratch.grants;
    grants.clear();
    grants.resize(cands.len(), 0);
    let start = *cursor % remaining.len();
    let mut left = n_rbgs;
    let mut idx = start;
    // Cycle until RBGs run out or nobody has backlog left.
    while left > 0 && !remaining.is_empty() {
        let pos = idx % remaining.len();
        let ci = remaining[pos].0;
        grants[ci] += 1;
        left -= 1;
        remaining[pos].1 -= cands[ci].bytes_per_rbg as isize;
        if remaining[pos].1 <= 0 {
            remaining.remove(pos);
            // `idx` now points at the element after the removed one.
            if remaining.is_empty() {
                break;
            }
            idx %= remaining.len();
        } else {
            idx += 1;
        }
    }
    // Audit note: an all-skip slot — every candidate UE's BSR/queue
    // empty — takes the `remaining.is_empty()` early return above and
    // never reaches this rotation, so idle slots cannot steal a UE's
    // turn (pinned by `rr_all_empty_slot_does_not_advance_cursor`).
    // A slot whose capacity HARQ consumed (`n_rbgs == 0` with backlog)
    // *does* rotate: that UE's turn was spent on its retransmission.
    *cursor = cursor.wrapping_add(1);
    out.extend(
        grants
            .iter()
            .enumerate()
            .filter(|&(_, &rbgs)| rbgs > 0)
            .map(|(cand, &rbgs)| Grant { cand, rbgs }),
    );
}

/// Allocate RBG-by-RBG to the UE with the highest proportional-fair
/// metric `instantaneous_rate / avg_throughput` among those with backlog.
///
/// The metric is constant for the whole slot (avg throughput only updates
/// between slots), so the textbook per-RBG argmax degenerates: the
/// highest-metric UE keeps winning until its backlog is covered, then the
/// next one, and so on. Walking candidates once in descending-metric
/// order (same UE-id tie-break the argmax used) therefore produces
/// *identical* grants to the RBG-by-RBG loop while replacing
/// `O(n_rbgs × n_ues)` comparisons per slot with one small sort — the
/// dominant cost of the 16-UE slot tick. Grants are written into the
/// caller-owned `out` (cleared first) — zero allocations once `scratch`
/// and `out` are at steady-state capacity.
pub fn allocate_proportional_fair_into(
    cands: &[Candidate],
    n_rbgs: usize,
    scratch: &mut AllocScratch,
    out: &mut Vec<Grant>,
) {
    const EPS: f64 = 1e-6;
    out.clear();
    let metric = &mut scratch.metric;
    metric.clear();
    metric.extend(
        cands
            .iter()
            .map(|c| c.bytes_per_rbg as f64 / (c.avg_throughput + EPS)),
    );
    let order = &mut scratch.order;
    order.clear();
    order.extend((0..cands.len()).filter(|&i| cands[i].backlog > 0 && cands[i].bytes_per_rbg > 0));
    // Descending metric; on ties the smaller UE id wins, matching the
    // argmax's `then_with` tie-break. Unstable sort: the UE-id
    // tie-break makes the comparator a total order, and unlike the
    // stable sort it never allocates.
    order.sort_unstable_by(|&i, &j| {
        metric[j]
            .partial_cmp(&metric[i])
            .unwrap()
            .then_with(|| cands[i].ue.cmp(&cands[j].ue))
    });
    let grants = &mut scratch.grants;
    grants.clear();
    grants.resize(cands.len(), 0);
    let mut left = n_rbgs;
    for &i in order.iter() {
        if left == 0 {
            break;
        }
        // RBGs this UE would absorb: one per `bytes_per_rbg` of backlog,
        // rounded up — exactly how many wins it takes before its residual
        // backlog hits zero in the per-RBG formulation.
        let want = cands[i].backlog.div_ceil(cands[i].bytes_per_rbg);
        let n = want.min(left);
        left -= n;
        grants[i] = n;
    }
    // Emit in candidate (UE-id) order, as the per-RBG loop did — the gNB
    // builds TBs in this order, so it also fixes the RNG draw sequence.
    out.extend(
        grants
            .iter()
            .enumerate()
            .filter(|&(_, &rbgs)| rbgs > 0)
            .map(|(cand, &rbgs)| Grant { cand, rbgs }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(ue: u16, backlog: usize, per_rbg: usize, avg: f64) -> Candidate {
        Candidate {
            ue: UeId(ue),
            backlog,
            bytes_per_rbg: per_rbg,
            avg_throughput: avg,
        }
    }

    fn allocate_round_robin(
        cands: &[Candidate],
        n_rbgs: usize,
        cursor: &mut usize,
    ) -> Vec<(UeId, usize)> {
        let mut out = Vec::new();
        allocate_round_robin_into(
            cands,
            n_rbgs,
            cursor,
            &mut AllocScratch::default(),
            &mut out,
        );
        by_ue(cands, &out)
    }

    fn by_ue(cands: &[Candidate], grants: &[Grant]) -> Vec<(UeId, usize)> {
        grants.iter().map(|g| (cands[g.cand].ue, g.rbgs)).collect()
    }

    fn allocate_proportional_fair(cands: &[Candidate], n_rbgs: usize) -> Vec<(UeId, usize)> {
        let mut out = Vec::new();
        allocate_proportional_fair_into(cands, n_rbgs, &mut AllocScratch::default(), &mut out);
        by_ue(cands, &out)
    }

    #[test]
    fn rr_splits_evenly_among_backlogged() {
        let cands = vec![
            cand(0, 1_000_000, 100, 0.0),
            cand(1, 1_000_000, 100, 0.0),
            cand(2, 0, 100, 0.0), // no backlog
        ];
        let mut cursor = 0;
        let g = allocate_round_robin(&cands, 12, &mut cursor);
        assert_eq!(g.len(), 2);
        let total: usize = g.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 12);
        for (_, n) in &g {
            assert_eq!(*n, 6);
        }
    }

    #[test]
    fn rr_gives_leftover_capacity_to_others() {
        // UE 0 needs only one RBG; UE 1 is greedy.
        let cands = vec![cand(0, 50, 100, 0.0), cand(1, 1_000_000, 100, 0.0)];
        let mut cursor = 0;
        let g = allocate_round_robin(&cands, 10, &mut cursor);
        let m: std::collections::HashMap<_, _> = g.into_iter().collect();
        assert_eq!(m[&UeId(0)], 1);
        assert_eq!(m[&UeId(1)], 9);
    }

    #[test]
    fn rr_cursor_rotates_start() {
        // 3 UEs, 1 RBG: the single grant should rotate with the cursor.
        let cands = vec![
            cand(0, 1000, 100, 0.0),
            cand(1, 1000, 100, 0.0),
            cand(2, 1000, 100, 0.0),
        ];
        let mut cursor = 0;
        let first: Vec<_> = allocate_round_robin(&cands, 1, &mut cursor);
        let second: Vec<_> = allocate_round_robin(&cands, 1, &mut cursor);
        assert_ne!(first[0].0, second[0].0, "head UE must rotate");
    }

    #[test]
    fn rr_empty_when_no_backlog() {
        let cands = vec![cand(0, 0, 100, 0.0)];
        let mut cursor = 0;
        assert!(allocate_round_robin(&cands, 10, &mut cursor).is_empty());
    }

    #[test]
    fn rr_all_empty_slot_does_not_advance_cursor() {
        // Audit pin: a slot where every candidate UE has an empty
        // BSR/queue (or no candidates at all) exits before the cursor
        // rotation, so grant order is identical with and without
        // interleaved all-idle slots.
        let cands = vec![
            cand(0, 1000, 100, 0.0),
            cand(1, 1000, 100, 0.0),
            cand(2, 1000, 100, 0.0),
        ];
        let idle = vec![cand(0, 0, 100, 0.0), cand(1, 0, 100, 0.0)];

        let mut plain = 0usize;
        let a1 = allocate_round_robin(&cands, 1, &mut plain);
        let a2 = allocate_round_robin(&cands, 1, &mut plain);

        let mut interleaved = 0usize;
        let b1 = allocate_round_robin(&cands, 1, &mut interleaved);
        // No-op slots: no backlog anywhere, then no candidates at all.
        assert!(allocate_round_robin(&idle, 1, &mut interleaved).is_empty());
        assert!(allocate_round_robin(&[], 1, &mut interleaved).is_empty());
        let b2 = allocate_round_robin(&cands, 1, &mut interleaved);

        assert_eq!(a1, b1);
        assert_eq!(a2, b2, "idle slots must not steal a UE's turn");
        assert_eq!(plain, interleaved);
    }

    #[test]
    fn pf_scratch_survives_all_empty_slot() {
        // PF has no cursor; an all-empty slot must simply clear the
        // output and leave the scratch reusable for the next slot.
        let mut scratch = AllocScratch::default();
        let mut out = vec![Grant { cand: 9, rbgs: 9 }]; // stale content must be cleared
        allocate_proportional_fair_into(&[], 4, &mut scratch, &mut out);
        assert!(out.is_empty());
        let idle = vec![cand(0, 0, 100, 1.0)];
        allocate_proportional_fair_into(&idle, 4, &mut scratch, &mut out);
        assert!(out.is_empty());
        let busy = vec![cand(1, 500, 100, 1.0)];
        allocate_proportional_fair_into(&busy, 4, &mut scratch, &mut out);
        assert_eq!(out, vec![Grant { cand: 0, rbgs: 4 }]);
    }

    #[test]
    fn pf_prefers_underserved_ue() {
        // Same channel quality, UE 1 historically starved.
        let cands = vec![
            cand(0, 1_000_000, 100, 1000.0),
            cand(1, 1_000_000, 100, 10.0),
        ];
        let g = allocate_proportional_fair(&cands, 10);
        let m: std::collections::HashMap<_, _> = g.into_iter().collect();
        assert!(m[&UeId(1)] == 10, "starved UE takes all RBGs: {m:?}");
    }

    #[test]
    fn pf_prefers_good_channel_when_history_equal() {
        let cands = vec![
            cand(0, 1_000_000, 300, 100.0),
            cand(1, 1_000_000, 100, 100.0),
        ];
        let g = allocate_proportional_fair(&cands, 4);
        let m: std::collections::HashMap<_, _> = g.into_iter().collect();
        assert_eq!(m.get(&UeId(0)), Some(&4));
        assert_eq!(m.get(&UeId(1)), None);
    }

    #[test]
    fn pf_stops_when_backlog_served() {
        let cands = vec![cand(0, 150, 100, 1.0)];
        let g = allocate_proportional_fair(&cands, 10);
        assert_eq!(g, vec![(UeId(0), 2)]); // 2 RBGs cover 150 bytes
    }

    #[test]
    fn pf_zero_rate_ue_is_skipped() {
        // CQI 0 => bytes_per_rbg 0: cannot be scheduled.
        let cands = vec![cand(0, 1000, 0, 1.0), cand(1, 1000, 100, 1.0)];
        let g = allocate_proportional_fair(&cands, 4);
        let m: std::collections::HashMap<_, _> = g.into_iter().collect();
        assert_eq!(m.get(&UeId(0)), None);
        assert_eq!(m.get(&UeId(1)), Some(&4));
    }
}
