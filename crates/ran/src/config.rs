//! Cell, RLC, and scheduler configuration.
//!
//! Defaults reproduce the paper's testbed (§6.1): a TDD band-n78 cell at
//! 3.75 GHz with 20 MHz bandwidth and 30 kHz subcarrier spacing, whose
//! saturated downlink capacity calibrates to ≈40 Mbit/s, srsRAN's default
//! RLC SDU queue of 16384 SDUs, and HARQ/uplink timing constants from the
//! paper's footnotes.

use l4span_sim::Duration;

/// RLC mode of a DRB (paper §4.3.1). AM runs ARQ and reports delivery;
/// UM omits both, so L4Span falls back to transmit-time feedback only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RlcMode {
    /// Acknowledged mode: ARQ, status reports, delivery feedback.
    Am,
    /// Unacknowledged mode: no retransmission, no delivery feedback.
    Um,
}

/// Downlink MAC scheduler flavour (Fig. 10 compares both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Round-robin over backlogged UEs.
    RoundRobin,
    /// Proportional fair: metric = instantaneous rate / EWMA throughput.
    ProportionalFair,
}

/// TDD slot roles for one period of the DDDSU pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotRole {
    /// Full downlink slot.
    Downlink,
    /// Special slot: partially downlink (we use the fraction in
    /// [`CellConfig::special_slot_dl_fraction`]).
    Special,
    /// Uplink slot: carries UE ACKs, RLC status reports, SRs.
    Uplink,
}

/// Static configuration of one simulated cell.
#[derive(Debug, Clone)]
pub struct CellConfig {
    /// Slot length; 0.5 ms for 30 kHz SCS.
    pub slot_duration: Duration,
    /// TDD pattern, repeated forever. Default DDDSU.
    pub tdd_pattern: Vec<SlotRole>,
    /// Usable share of a special slot for downlink data.
    pub special_slot_dl_fraction: f64,
    /// Physical resource blocks in the carrier (51 for 20 MHz @ 30 kHz).
    pub n_prbs: usize,
    /// PRBs per resource-block group (scheduler allocation granule).
    pub rbg_size: usize,
    /// Usable resource elements per PRB per slot after DMRS/PDCCH
    /// overhead (12 subcarriers × 14 symbols × ~0.75).
    pub re_per_prb: usize,
    /// Carrier frequency in Hz (drives Doppler in the channel model).
    pub carrier_hz: f64,
    /// HARQ round-trip: time between a failed TB and its retransmission
    /// ("the MAC/PHY delay the transport block by eight ms", paper §4.4).
    pub harq_rtt: Duration,
    /// Maximum HARQ transmission attempts before the TB is abandoned to
    /// RLC ARQ (AM) or lost (UM).
    pub harq_max_attempts: u8,
    /// MCS selection backoff in dB below the reported SNR.
    pub link_adaptation_backoff_db: f64,
    /// Age of the CQI report the scheduler acts on.
    pub cqi_delay: Duration,
    /// RLC SDU queue capacity (srsRAN default 16384; Fig. 9 also runs 256).
    pub rlc_queue_sdus: usize,
    /// UE-side RLC status report period (t-StatusProhibit analogue).
    pub rlc_status_period: Duration,
    /// UE-internal modem-to-kernel delivery delay.
    pub ue_internal_delay: Duration,
    /// Extra uplink scheduling-request delay when the UE UL queue was
    /// empty (models SR + grant latency, uniform in [0, this]).
    pub ul_sr_delay_max: Duration,
    /// One-way delay between the 5G core/UPF and the CU (the wired
    /// fronthaul/backhaul inside the operator network).
    pub core_to_cu_delay: Duration,
    /// Per-RLC-segment header overhead charged against the MAC budget
    /// (RLC + MAC subheader bytes).
    pub segment_overhead: usize,
}

impl Default for CellConfig {
    fn default() -> Self {
        CellConfig {
            slot_duration: Duration::from_micros(500),
            tdd_pattern: vec![
                SlotRole::Downlink,
                SlotRole::Downlink,
                SlotRole::Downlink,
                SlotRole::Special,
                SlotRole::Uplink,
            ],
            special_slot_dl_fraction: 0.5,
            n_prbs: 51,
            rbg_size: 4,
            re_per_prb: 126,
            carrier_hz: 3.75e9,
            harq_rtt: Duration::from_millis(8),
            harq_max_attempts: 4,
            link_adaptation_backoff_db: 1.0,
            cqi_delay: Duration::from_millis(4),
            rlc_queue_sdus: 16_384,
            rlc_status_period: Duration::from_millis(10),
            ue_internal_delay: Duration::from_millis(2),
            ul_sr_delay_max: Duration::from_millis(5),
            core_to_cu_delay: Duration::from_millis(1),
            segment_overhead: 8,
        }
    }
}

impl CellConfig {
    /// Role of slot number `n` (counting from simulation start).
    pub fn slot_role(&self, slot_index: u64) -> SlotRole {
        self.tdd_pattern[(slot_index as usize) % self.tdd_pattern.len()]
    }

    /// Downlink duty cycle of the TDD pattern (fraction of airtime usable
    /// for downlink data).
    pub fn dl_duty(&self) -> f64 {
        let total = self.tdd_pattern.len() as f64;
        let dl: f64 = self
            .tdd_pattern
            .iter()
            .map(|r| match r {
                SlotRole::Downlink => 1.0,
                SlotRole::Special => self.special_slot_dl_fraction,
                SlotRole::Uplink => 0.0,
            })
            .sum();
        dl / total
    }

    /// Approximate saturated cell capacity in bit/s at spectral
    /// efficiency `eff` bits per resource element.
    pub fn capacity_bps(&self, eff: f64) -> f64 {
        let re_per_sec = (self.n_prbs * self.re_per_prb) as f64 / self.slot_duration.as_secs_f64();
        re_per_sec * eff * self.dl_duty()
    }

    /// Number of resource-block groups the scheduler allocates.
    pub fn n_rbgs(&self) -> usize {
        self.n_prbs.div_ceil(self.rbg_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_testbed() {
        let c = CellConfig::default();
        assert_eq!(c.slot_duration, Duration::from_micros(500));
        assert_eq!(c.n_prbs, 51);
        assert_eq!(c.rlc_queue_sdus, 16_384);
        assert_eq!(c.tdd_pattern.len(), 5);
        // DDDSU with S=0.5 -> duty 0.7.
        assert!((c.dl_duty() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn capacity_calibrates_to_forty_mbps() {
        let c = CellConfig::default();
        // At the top of our CQI table (eff = 4.45 bit/RE, see phy.rs) the
        // cell saturates close to the paper's 40 Mbit/s.
        let cap = c.capacity_bps(4.45);
        assert!(
            (cap - 40.0e6).abs() < 2.5e6,
            "capacity {cap} not within 2.5 Mbps of 40 Mbps"
        );
    }

    #[test]
    fn slot_roles_repeat() {
        let c = CellConfig::default();
        assert_eq!(c.slot_role(0), SlotRole::Downlink);
        assert_eq!(c.slot_role(3), SlotRole::Special);
        assert_eq!(c.slot_role(4), SlotRole::Uplink);
        assert_eq!(c.slot_role(5), SlotRole::Downlink);
        assert_eq!(c.slot_role(9), SlotRole::Uplink);
    }

    #[test]
    fn rbg_count_rounds_up() {
        let c = CellConfig::default();
        assert_eq!(c.n_rbgs(), 13); // 51 / 4 rounded up
    }
}
