//! Per-subsystem wall-clock cycle accounting for the simulator's hot
//! loop.
//!
//! A [`CycleScope`] is a tiny fixed-slot accumulator: the host (the
//! harness world) names its subsystems once, brackets each subsystem
//! call with [`CycleScope::start`]/[`CycleScope::stop`], and reads the
//! totals back as a [`CycleStat`] table at the end of the run. It is the
//! attribution tool behind the `fig_breakdown` bench bin: when a PR
//! regresses events/sec, the table says *where* the cycles went.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** A disabled scope's `start` reads one
//!    bool and returns `None`; `stop(None, _)` is a predictable branch.
//!    This is the same convention as the harness's existing
//!    `measure_marker_time` instrumentation, which has never been
//!    measurable on a benchmark workload.
//! 2. **No effect on simulation state.** The scope only reads the OS
//!    monotonic clock; nothing simulated depends on it, so enabling it
//!    cannot change a fingerprint (asserted by a harness test).
//! 3. **Honest accounting.** Spans are non-overlapping by convention;
//!    whatever the host does not bracket shows up as the difference
//!    between the run's wall time and [`CycleScope::total_ns`]
//!    ("untracked" in the breakdown table) instead of silently inflating
//!    a named bucket.

/// One subsystem's accumulated totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleStat {
    /// Subsystem label (as registered at construction).
    pub label: &'static str,
    /// Total wall-clock nanoseconds spent inside the subsystem's spans.
    pub nanos: u64,
    /// Number of spans recorded.
    pub calls: u64,
}

impl CycleStat {
    /// Mean nanoseconds per span (0 when no spans were recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.nanos as f64 / self.calls as f64
        }
    }
}

/// A fixed-slot per-subsystem wall-clock accumulator. See the module
/// docs for the design constraints.
#[derive(Debug)]
pub struct CycleScope {
    enabled: bool,
    labels: &'static [&'static str],
    nanos: Vec<u64>,
    calls: Vec<u64>,
}

impl CycleScope {
    /// An enabled scope with one slot per label. Slot indices follow
    /// label order; hosts should define named `const` indices.
    pub fn new(labels: &'static [&'static str]) -> CycleScope {
        CycleScope {
            enabled: true,
            labels,
            nanos: vec![0; labels.len()],
            calls: vec![0; labels.len()],
        }
    }

    /// A disabled scope: `start` always returns `None` and nothing is
    /// ever recorded.
    pub fn disabled() -> CycleScope {
        CycleScope {
            enabled: false,
            labels: &[],
            nanos: Vec::new(),
            calls: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span. Returns `None` (for free) when disabled.
    #[inline]
    pub fn start(&self) -> Option<std::time::Instant> {
        if self.enabled {
            Some(std::time::Instant::now())
        } else {
            None
        }
    }

    /// Close a span opened by [`CycleScope::start`], folding its
    /// duration into `slot`. A `None` token (disabled scope) is a no-op.
    #[inline]
    pub fn stop(&mut self, t0: Option<std::time::Instant>, slot: usize) {
        if let Some(t0) = t0 {
            self.nanos[slot] += t0.elapsed().as_nanos() as u64;
            self.calls[slot] += 1;
        }
    }

    /// Totals per slot, in label order. Empty for a disabled scope.
    pub fn report(&self) -> Vec<CycleStat> {
        self.labels
            .iter()
            .enumerate()
            .map(|(i, &label)| CycleStat {
                label,
                nanos: self.nanos[i],
                calls: self.calls[i],
            })
            .collect()
    }

    /// Sum of all recorded span nanoseconds (the tracked share of the
    /// run; wall time minus this is the untracked remainder).
    pub fn total_ns(&self) -> u64 {
        self.nanos.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LABELS: &[&str] = &["alpha", "beta"];

    #[test]
    fn disabled_scope_records_nothing() {
        let mut s = CycleScope::disabled();
        assert!(!s.enabled());
        let t0 = s.start();
        assert!(t0.is_none());
        s.stop(t0, 0); // must not panic despite zero slots
        assert!(s.report().is_empty());
        assert_eq!(s.total_ns(), 0);
    }

    #[test]
    fn enabled_scope_accumulates_per_slot() {
        let mut s = CycleScope::new(LABELS);
        assert!(s.enabled());
        for _ in 0..3 {
            let t0 = s.start();
            assert!(t0.is_some());
            s.stop(t0, 0);
        }
        let t0 = s.start();
        s.stop(t0, 1);
        let r = s.report();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].label, "alpha");
        assert_eq!(r[0].calls, 3);
        assert_eq!(r[1].label, "beta");
        assert_eq!(r[1].calls, 1);
        assert_eq!(s.total_ns(), r[0].nanos + r[1].nanos);
    }

    #[test]
    fn mean_ns_handles_empty_and_populated() {
        let empty = CycleStat {
            label: "x",
            nanos: 0,
            calls: 0,
        };
        assert_eq!(empty.mean_ns(), 0.0);
        let some = CycleStat {
            label: "x",
            nanos: 90,
            calls: 3,
        };
        assert_eq!(some.mean_ns(), 30.0);
    }
}
