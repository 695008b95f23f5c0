//! PHY abstraction: link adaptation (SNR→CQI→MCS), transport-block
//! sizing, and the BLER model that drives HARQ retransmissions.
//!
//! The CQI table is a condensed 3GPP TS 38.214-style table whose top
//! spectral efficiency is calibrated so a fully-allocated 51-PRB cell
//! saturates at ≈40 Mbit/s (the paper's testbed capacity, §6.1).

/// One link-adaptation operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CqiEntry {
    /// SNR (dB) at which this CQI achieves ≈10% BLER.
    pub snr_threshold_db: f64,
    /// Spectral efficiency in bits per resource element.
    pub efficiency: f64,
}

/// Condensed CQI table: index = CQI − 1 (CQI 0 = out of range).
/// Thresholds follow the usual ~1.9 dB/step ladder; efficiencies are the
/// 38.214 Table 5.2.2.1-2 values scaled to a 4.45 b/RE ceiling (40 Mbit/s
/// cell calibration, see `CellConfig::capacity_bps`).
pub const CQI_TABLE: [CqiEntry; 15] = [
    CqiEntry {
        snr_threshold_db: -6.7,
        efficiency: 0.15,
    },
    CqiEntry {
        snr_threshold_db: -4.7,
        efficiency: 0.23,
    },
    CqiEntry {
        snr_threshold_db: -2.3,
        efficiency: 0.38,
    },
    CqiEntry {
        snr_threshold_db: 0.2,
        efficiency: 0.60,
    },
    CqiEntry {
        snr_threshold_db: 2.4,
        efficiency: 0.88,
    },
    CqiEntry {
        snr_threshold_db: 4.3,
        efficiency: 1.18,
    },
    CqiEntry {
        snr_threshold_db: 5.9,
        efficiency: 1.48,
    },
    CqiEntry {
        snr_threshold_db: 8.1,
        efficiency: 1.91,
    },
    CqiEntry {
        snr_threshold_db: 10.3,
        efficiency: 2.41,
    },
    CqiEntry {
        snr_threshold_db: 11.7,
        efficiency: 2.73,
    },
    CqiEntry {
        snr_threshold_db: 14.1,
        efficiency: 3.32,
    },
    CqiEntry {
        snr_threshold_db: 16.3,
        efficiency: 3.90,
    },
    CqiEntry {
        snr_threshold_db: 18.7,
        efficiency: 4.21,
    },
    CqiEntry {
        snr_threshold_db: 21.0,
        efficiency: 4.39,
    },
    CqiEntry {
        snr_threshold_db: 22.7,
        efficiency: 4.45,
    },
];

/// CQI (1..=15) reported for a measured SNR, or 0 if below the lowest
/// operating point.
pub fn cqi_for_snr(snr_db: f64) -> u8 {
    let mut cqi = 0u8;
    for (i, e) in CQI_TABLE.iter().enumerate() {
        if snr_db >= e.snr_threshold_db {
            cqi = (i + 1) as u8;
        } else {
            break;
        }
    }
    cqi
}

/// Link-adaptation decision: the MCS/CQI the scheduler uses for a UE,
/// chosen from the reported SNR minus a backoff margin.
pub fn select_mcs(reported_snr_db: f64, backoff_db: f64) -> u8 {
    cqi_for_snr(reported_snr_db - backoff_db)
}

/// Spectral efficiency (bits/RE) of a CQI; 0 for CQI 0.
pub fn efficiency(cqi: u8) -> f64 {
    if cqi == 0 || cqi as usize > CQI_TABLE.len() {
        0.0
    } else {
        CQI_TABLE[cqi as usize - 1].efficiency
    }
}

/// Transport-block size in **bytes** for `n_prbs` PRBs at `cqi`, with
/// `re_per_prb` usable resource elements per PRB.
pub fn tbs_bytes(cqi: u8, n_prbs: usize, re_per_prb: usize) -> usize {
    let bits = (n_prbs * re_per_prb) as f64 * efficiency(cqi);
    // `as usize` truncates, which for this non-negative quotient is the
    // floor.
    (bits / 8.0) as usize
}

/// Block error rate of a transmission at `actual_snr_db` using `cqi`.
///
/// Logistic curve anchored so BLER = 10% exactly at the CQI's threshold
/// (the link-adaptation target) and falling steeply with margin:
/// `BLER(m) = 1 / (1 + exp(2.2·m + ln 9))` where `m` is the dB margin.
pub fn bler(cqi: u8, actual_snr_db: f64) -> f64 {
    if cqi == 0 {
        return 1.0;
    }
    let thr = CQI_TABLE[cqi as usize - 1].snr_threshold_db;
    let margin = actual_snr_db - thr;
    1.0 / (1.0 + (2.2 * margin + 9.0f64.ln()).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cqi_is_monotone_in_snr() {
        let mut last = 0;
        for snr10 in -100..300 {
            let c = cqi_for_snr(snr10 as f64 / 10.0);
            assert!(c >= last);
            last = c;
        }
        assert_eq!(cqi_for_snr(-20.0), 0);
        assert_eq!(cqi_for_snr(30.0), 15);
    }

    #[test]
    fn efficiency_is_monotone() {
        for c in 1..15u8 {
            assert!(efficiency(c) < efficiency(c + 1));
        }
        assert_eq!(efficiency(0), 0.0);
        assert_eq!(efficiency(99), 0.0);
    }

    #[test]
    fn tbs_matches_capacity_calibration() {
        // Full allocation (51 PRB × 126 RE) at top CQI: the bytes per slot
        // that saturate a 40 Mbit/s cell at 0.7 DL duty.
        let tbs = tbs_bytes(15, 51, 126);
        let bits_per_sec = tbs as f64 * 8.0 * 2000.0 * 0.7;
        assert!(
            (bits_per_sec - 40.0e6).abs() < 2.5e6,
            "calibration off: {bits_per_sec}"
        );
    }

    #[test]
    fn bler_anchors_at_ten_percent() {
        for (i, e) in CQI_TABLE.iter().enumerate() {
            let b = bler((i + 1) as u8, e.snr_threshold_db);
            assert!((b - 0.1).abs() < 1e-9, "cqi {} bler {b}", i + 1);
        }
    }

    #[test]
    fn bler_falls_with_margin() {
        let at = |m: f64| bler(10, CQI_TABLE[9].snr_threshold_db + m);
        assert!(at(2.0) < 0.01);
        assert!(at(-2.0) > 0.45);
        assert!(at(5.0) < 1e-4);
        assert_eq!(bler(0, 100.0), 1.0);
    }

    #[test]
    fn select_mcs_applies_backoff() {
        let snr = CQI_TABLE[9].snr_threshold_db + 0.5;
        assert_eq!(select_mcs(snr, 0.0), 10);
        assert_eq!(select_mcs(snr, 1.0), 9);
    }

    #[test]
    fn tbs_zero_for_cqi_zero() {
        assert_eq!(tbs_bytes(0, 51, 126), 0);
    }
}
