//! Order statistics the benchmark reports: medians of timed rounds and
//! percentiles of pooled delay samples.

/// Sort a sample pool in place (total order; the simulator never emits NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of an unsorted sample (mean of the middle pair for even n).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (0–100) of a **sorted** non-empty sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Percentiles a report may quote, lowest first, each with the share of
/// samples beyond it in parts per 100 000 (integers, so the ten-sample
/// rule below is exact at the boundaries).
const TAIL_CANDIDATES: [(f64, u64); 6] = [
    (50.0, 50_000),
    (90.0, 10_000),
    (99.0, 1_000),
    (99.9, 100),
    (99.99, 10),
    (99.999, 1),
];

/// The highest of [`TAIL_CANDIDATES`] that still has at least ten
/// samples beyond it in a pool of `n` — quoting a higher one would
/// describe a handful of packets, not the tail. `None` below 20 samples
/// (not even the median qualifies).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .find(|&&(_, beyond)| n as u64 * beyond >= 10 * 100_000)
        .map(|&(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 90.0), 90.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn picker_wants_ten_samples_beyond_the_percentile() {
        assert_eq!(highest_supported_percentile(5), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(206_723), Some(99.99));
        assert_eq!(highest_supported_percentile(10_000_000), Some(99.999));
    }
}
