//! The packet profile table (paper §4.3.2, Fig. 5).
//!
//! One table per DRB tracks each PDCP SDU's ingress, transmitted, and
//! delivered timestamps. L4Span populates the ingress column itself (it
//! sits on the downlink datapath and sees every SDU in PDCP-SN order) and
//! fills the other columns from the cumulative F1-U counters, using only
//! the two mandatory fields so RLC UM works identically (§4.3.1).

use std::collections::VecDeque;

use l4span_sim::Instant;

/// One SDU's row in the profile table.
#[derive(Debug, Clone, Copy)]
pub struct PacketRecord {
    /// PDCP sequence number.
    pub sn: u64,
    /// Wire size in bytes.
    pub size: usize,
    /// CU ingress timestamp (T_I).
    pub t_ingress: Instant,
}

/// A newly-transmitted SDU, as extracted from an F1-U report.
#[derive(Debug, Clone, Copy)]
pub struct TxedPacket {
    /// PDCP sequence number.
    pub sn: u64,
    /// Wire size in bytes.
    pub size: usize,
    /// CU ingress timestamp.
    pub t_ingress: Instant,
    /// Transmit timestamp (T_T) from the feedback message.
    pub t_txed: Instant,
}

/// Per-DRB packet profile table.
///
/// Rows live in a `VecDeque` ordered by SN: ingress order *is* SN order
/// (PDCP assigns densely), so the standing queue is always a contiguous
/// suffix and feedback consumes a contiguous prefix — both O(1) amortised.
#[derive(Debug, Default)]
pub struct ProfileTable {
    /// Rows for SDUs not yet reported transmitted.
    pending: VecDeque<PacketRecord>,
    /// Next SN this table will assign at ingress (mirrors PDCP).
    next_sn: u64,
    /// Highest SN reported transmitted, if any.
    highest_txed: Option<u64>,
    /// Highest SN reported delivered, if any.
    highest_delivered: Option<u64>,
    /// Bytes in the standing queue (ingressed, not yet transmitted).
    queued_bytes: usize,
    /// Total SDUs ever recorded (diagnostics / memory accounting).
    total_seen: u64,
}

impl ProfileTable {
    /// Empty table.
    pub fn new() -> ProfileTable {
        ProfileTable::default()
    }

    /// Record a downlink SDU at CU ingress; returns the SN it mirrors.
    pub fn on_ingress(&mut self, size: usize, now: Instant) -> u64 {
        let sn = self.next_sn;
        self.next_sn += 1;
        self.total_seen += 1;
        self.queued_bytes += size;
        self.pending.push_back(PacketRecord {
            sn,
            size,
            t_ingress: now,
        });
        sn
    }

    /// Fold in an F1-U report: all SNs up to `highest_txed_sn` are now
    /// transmitted (at `t` — slot granularity, exactly what the DU knows).
    /// `on_txed` sees each row that newly became transmitted, oldest
    /// first.
    pub fn on_feedback(
        &mut self,
        highest_txed_sn: Option<u64>,
        highest_delivered_sn: Option<u64>,
        t: Instant,
        mut on_txed: impl FnMut(TxedPacket),
    ) {
        if let Some(d) = highest_delivered_sn {
            self.highest_delivered = Some(self.highest_delivered.map_or(d, |h| h.max(d)));
        }
        let Some(high) = highest_txed_sn else {
            return;
        };
        let mut any = false;
        while let Some(front) = self.pending.front() {
            if front.sn > high {
                break;
            }
            let r = self.pending.pop_front().expect("front exists");
            self.queued_bytes -= r.size;
            any = true;
            on_txed(TxedPacket {
                sn: r.sn,
                size: r.size,
                t_ingress: r.t_ingress,
                t_txed: t,
            });
        }
        if any || self.highest_txed.is_some_and(|h| high > h) {
            self.highest_txed = Some(self.highest_txed.map_or(high, |h| h.max(high)));
        }
    }

    /// Bytes sitting in the RAN queue (N_queue of Eq. 5): ingressed SDUs
    /// not yet reported transmitted.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Ingress time of the oldest SDU still queued — the "head age"
    /// sojourn estimate that the DualPi2-at-CU and TC-RAN baselines use
    /// in place of Eq. 5 (§6.3.1, §6.2.2).
    pub fn head_ingress(&self) -> Option<Instant> {
        self.pending.front().map(|r| r.t_ingress)
    }

    /// Standing queue length in SDUs.
    pub fn queued_sdus(&self) -> usize {
        self.pending.len()
    }

    /// Next SN to be assigned (diagnostic: must track PDCP exactly).
    pub fn next_sn(&self) -> u64 {
        self.next_sn
    }

    /// Highest transmitted SN seen in feedback.
    pub fn highest_txed(&self) -> Option<u64> {
        self.highest_txed
    }

    /// Highest delivered SN seen in feedback (AM only).
    pub fn highest_delivered(&self) -> Option<u64> {
        self.highest_delivered
    }

    /// Total SDUs ever recorded.
    pub fn total_seen(&self) -> u64 {
        self.total_seen
    }

    /// Resident memory estimate in bytes (Table 1 accounting).
    pub fn memory_bytes(&self) -> usize {
        self.pending.capacity() * core::mem::size_of::<PacketRecord>()
            + core::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rows one report newly marks transmitted.
    fn feedback(
        t: &mut ProfileTable,
        txed: Option<u64>,
        delivered: Option<u64>,
        at: Instant,
    ) -> Vec<TxedPacket> {
        let mut out = Vec::new();
        t.on_feedback(txed, delivered, at, |p| out.push(p));
        out
    }

    #[test]
    fn ingress_assigns_dense_sns_and_counts_queue() {
        let mut t = ProfileTable::new();
        assert_eq!(t.on_ingress(1500, Instant::from_millis(1)), 0);
        assert_eq!(t.on_ingress(500, Instant::from_millis(2)), 1);
        assert_eq!(t.queued_bytes(), 2000);
        assert_eq!(t.queued_sdus(), 2);
        assert_eq!(t.next_sn(), 2);
    }

    #[test]
    fn feedback_consumes_prefix() {
        let mut t = ProfileTable::new();
        for i in 0..5 {
            t.on_ingress(1000, Instant::from_millis(i));
        }
        let txed = feedback(&mut t, Some(2), None, Instant::from_millis(10));
        assert_eq!(txed.len(), 3);
        assert_eq!(txed[0].sn, 0);
        assert_eq!(txed[2].sn, 2);
        assert!(txed.iter().all(|p| p.t_txed == Instant::from_millis(10)));
        assert_eq!(t.queued_bytes(), 2000);
        assert_eq!(t.highest_txed(), Some(2));
        // Re-reporting the same high SN yields nothing new.
        assert!(feedback(&mut t, Some(2), None, Instant::from_millis(11)).is_empty());
    }

    #[test]
    fn delivered_tracks_independently() {
        let mut t = ProfileTable::new();
        t.on_ingress(1000, Instant::ZERO);
        feedback(&mut t, Some(0), None, Instant::from_millis(1));
        assert_eq!(t.highest_delivered(), None);
        feedback(&mut t, Some(0), Some(0), Instant::from_millis(20));
        assert_eq!(t.highest_delivered(), Some(0));
    }

    #[test]
    fn ingress_timestamps_survive_to_feedback() {
        let mut t = ProfileTable::new();
        t.on_ingress(700, Instant::from_millis(3));
        let txed = feedback(&mut t, Some(0), None, Instant::from_millis(9));
        assert_eq!(txed[0].t_ingress, Instant::from_millis(3));
        assert_eq!(txed[0].size, 700);
    }

    #[test]
    fn feedback_beyond_ingress_is_tolerated() {
        // A stale/duplicated report must not panic or corrupt counts.
        let mut t = ProfileTable::new();
        t.on_ingress(100, Instant::ZERO);
        let txed = feedback(&mut t, Some(10), None, Instant::from_millis(1));
        assert_eq!(txed.len(), 1);
        assert_eq!(t.queued_bytes(), 0);
    }

    #[test]
    fn memory_stays_bounded_by_queue() {
        let mut t = ProfileTable::new();
        for i in 0..10_000u64 {
            t.on_ingress(1000, Instant::from_millis(i));
            t.on_feedback(Some(i), None, Instant::from_millis(i), |_| {});
        }
        assert_eq!(t.queued_sdus(), 0);
        assert_eq!(t.total_seen(), 10_000);
        // The deque never held more than a handful of rows.
        assert!(t.memory_bytes() < 64 * 1024, "{}", t.memory_bytes());
    }
}
