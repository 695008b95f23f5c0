//! Statistics helpers for the evaluation harness.
//!
//! The paper reports median / 25th / 75th / 10th / 90th percentile boxes
//! (Fig. 9, Fig. 11, Fig. 24), CDFs (Figs. 15, 17, 18, 20, 21), means
//! (Fig. 10, Fig. 19) and EWMA-smoothed rates (Prague's alpha, PF
//! scheduler averages). Everything here is plain, allocation-conscious
//! code with no external dependencies.

/// Linear-interpolation percentile of a *sorted* slice, `p` in `[0, 100]`.
///
/// Uses the same "linear" method as numpy's default, which is what the
/// paper's matplotlib boxplots use.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let p = p.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Percentile of an unsorted slice (copies and sorts internally).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    percentile_sorted(&v, p)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Five-number box summary matching the paper's plots:
/// median, 25/75th percentile box edges, 10/90th percentile whiskers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// 50th percentile.
    pub median: f64,
    /// 25th percentile (box lower edge).
    pub p25: f64,
    /// 75th percentile (box upper edge).
    pub p75: f64,
    /// 10th percentile (lower whisker).
    pub p10: f64,
    /// 90th percentile (upper whisker).
    pub p90: f64,
    /// Arithmetic mean (reported in Fig. 19).
    pub mean: f64,
    /// Number of samples summarised.
    pub n: usize,
}

impl BoxStats {
    /// Summarise a sample set. Returns all-zero stats with `n == 0` for
    /// an empty input: read `n` before the numbers (the figure tables
    /// print such a box as `-`, not as zeros).
    pub fn from_samples(values: &[f64]) -> BoxStats {
        if values.is_empty() {
            return BoxStats {
                median: 0.0,
                p25: 0.0,
                p75: 0.0,
                p10: 0.0,
                p90: 0.0,
                mean: 0.0,
                n: 0,
            };
        }
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in BoxStats input"));
        BoxStats {
            median: percentile_sorted(&v, 50.0),
            p25: percentile_sorted(&v, 25.0),
            p75: percentile_sorted(&v, 75.0),
            p10: percentile_sorted(&v, 10.0),
            p90: percentile_sorted(&v, 90.0),
            mean: mean(&v),
            n: v.len(),
        }
    }
}

/// Empirical CDF over a sample set.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from samples (NaNs are rejected with a panic: they indicate a
    /// metric bug upstream).
    pub fn from_samples(values: &[f64]) -> Cdf {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in CDF input"));
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x`.
    pub fn fraction_at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Value at quantile `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        percentile_sorted(&self.sorted, q * 100.0)
    }

    /// `n`-point summary `(value, cumulative_fraction)` for printing a
    /// figure series. Points are evenly spaced in quantile space.
    pub fn points(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return Vec::new();
        }
        (0..n)
            .map(|i| {
                let q = i as f64 / (n - 1).max(1) as f64;
                (self.quantile(q), q)
            })
            .collect()
    }
}

/// Welford online mean/variance accumulator — used for the estimator's
/// ground-truth egress-rate standard deviation (paper §4.3.3) and for
/// metric aggregation without storing every sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold in one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (+inf when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (-inf when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Exponentially-weighted moving average with gain `g`:
/// `v ← (1-g)·v + g·x`. Uninitialised until the first `push`.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    gain: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Create with gain in `(0, 1]`.
    pub fn new(gain: f64) -> Self {
        assert!(gain > 0.0 && gain <= 1.0, "EWMA gain out of range");
        Ewma { gain, value: None }
    }

    /// Fold in one observation and return the new average.
    pub fn push(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(v) => v + self.gain * (x - v),
        };
        self.value = Some(v);
        v
    }

    /// Current average, if any observation has been pushed.
    pub fn get(&self) -> Option<f64> {
        self.value
    }

    /// Current average or the supplied default.
    pub fn get_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }

    /// Reset to the uninitialised state.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_linear_interp() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 100.0), 4.0);
        assert_eq!(percentile_sorted(&v, 50.0), 2.5);
        assert_eq!(percentile_sorted(&v, 25.0), 1.75);
        assert_eq!(percentile_sorted(&[5.0], 73.0), 5.0);
    }

    #[test]
    fn box_stats_shape() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let b = BoxStats::from_samples(&v);
        assert_eq!(b.n, 100);
        assert!((b.median - 50.5).abs() < 1e-9);
        assert!(b.p10 < b.p25 && b.p25 < b.median);
        assert!(b.median < b.p75 && b.p75 < b.p90);
        assert!((b.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn box_stats_empty_is_zeroed() {
        let b = BoxStats::from_samples(&[]);
        assert_eq!(b.n, 0);
        assert_eq!(b.median, 0.0);
    }

    #[test]
    fn cdf_fraction_and_quantile() {
        let v: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let c = Cdf::from_samples(&v);
        assert_eq!(c.fraction_at(-1.0), 0.0);
        assert_eq!(c.fraction_at(9.0), 1.0);
        assert!((c.fraction_at(4.0) - 0.5).abs() < 1e-9);
        assert_eq!(c.quantile(0.0), 0.0);
        assert_eq!(c.quantile(1.0), 9.0);
        let pts = c.points(5);
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0].1, 0.0);
        assert_eq!(pts[4].1, 1.0);
    }

    #[test]
    fn running_stats_matches_direct() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut rs = RunningStats::new();
        for &x in &v {
            rs.push(x);
        }
        assert_eq!(rs.count(), 8);
        assert!((rs.mean() - 5.0).abs() < 1e-12);
        assert!((rs.variance() - 4.0).abs() < 1e-12);
        assert!((rs.std() - 2.0).abs() < 1e-12);
        assert_eq!(rs.min(), 2.0);
        assert_eq!(rs.max(), 9.0);
    }

    #[test]
    fn ewma_converges() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.get(), None);
        assert_eq!(e.push(10.0), 10.0); // first sample initialises
        assert_eq!(e.push(0.0), 5.0);
        assert_eq!(e.push(0.0), 2.5);
        e.reset();
        assert_eq!(e.get_or(1.25), 1.25);
    }

    #[test]
    #[should_panic]
    fn ewma_rejects_bad_gain() {
        let _ = Ewma::new(0.0);
    }
}
