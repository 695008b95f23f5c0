//! Layer drivers: benchmark-owned loops that call one crate's public
//! functions with realistic inputs and report host nanoseconds per
//! operation (median over batches). They subsume the four criterion
//! benches under `crates/bench/benches/`.
//!
//! Drivers only call the API forms ROADMAP keeps (`*_into`,
//! `CcKind::make`, …): later PRs may not edit this directory, so a
//! call to a doomed shim would block its removal.

mod aqm;
mod cc;
mod core;
mod net;
mod ran;
mod sim;

use std::time::Instant;

/// Every driver metric, grouped by layer (crate).
pub const NAMES: &[&str] = &[
    "sim.queue.hold_ns_d64",
    "sim.queue.hold_ns_d4k",
    "sim.queue.hold_ns_d256k",
    "net.packet.build_tcp_ns",
    "net.packet.set_ecn_ns",
    "net.packet.update_tcp_ns",
    "core.marker.dl_packet_ns_1drb",
    "core.marker.dl_packet_ns_1kdrb",
    "core.marker.ran_feedback_ns",
    "core.marker.ul_packet_ns",
    "core.marker.driver_mark_pct",
    "core.estimator.on_txed_ns",
    "core.estimator.query_ns",
    "core.marking.p_l4s_ns",
    "core.marking.p_classic_ns",
    "aqm.router.dualpi2_ns_per_pkt",
    "aqm.router.red_ns_per_pkt",
    "aqm.router.drop_pct",
    "cc.tcp.cubic_ns_per_seg",
    "cc.tcp.prague_ns_per_seg",
    "cc.tcp.bbr2_ns_per_seg",
    "cc.tcp.polls_per_seg",
    "cc.fec.ns_per_pkt",
    "ran.gnb.slot_ns_16ue_rr",
    "ran.gnb.slot_ns_16ue_pf",
    "ran.gnb.slot_ns_64ue_pf",
    "ran.gnb.enqueue_dl_ns",
    "ran.rlc.tx_pull_ns_per_seg",
    "ran.rlc.rx_segment_ns",
    "ran.mac.alloc_rr_ns_16",
    "ran.mac.alloc_pf_ns_16",
    "ran.mac.alloc_pf_ns_64",
    "ran.channel.snr_ns",
    "ran.ue.on_tb_ns",
];

/// Whether a driver metric is an exact count (a share or a ratio read
/// from a fixed pre-pass) rather than host time per operation.
pub fn is_exact(name: &str) -> bool {
    name.ends_with("_pct") || name.ends_with(".polls_per_seg")
}

/// How long to measure: timed batches per driver and the minimum wall
/// time of one batch.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub batches: usize,
    pub batch_ns: u64,
}

impl Budget {
    /// The measured configuration: median of 5 batches of >= 50 ms.
    pub const FULL: Budget = Budget {
        batches: 5,
        batch_ns: 50_000_000,
    };
    /// One short batch: the smoke test.
    #[cfg(test)]
    pub const SMOKE: Budget = Budget {
        batches: 1,
        batch_ns: 200_000,
    };
}

/// Collected driver output.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: Vec<(&'static str, f64)>,
    /// Operations for the share-failed rule: one per timed batch.
    pub attempted: u64,
    pub failed: u64,
}

/// Time one closure call, in ns.
fn timed(f: impl FnOnce()) -> u64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as u64
}

/// Measure a driver with `K` separately timed sections. `batch(iters)`
/// performs about `iters` operations, continuing from the state the
/// previous call left, and returns `(ns, operations)` per section (the
/// sections of one loop may count different things: slots, SDUs,
/// transport blocks). The iteration count grows (untimed, which also
/// warms the state up) until one batch lasts `budget.batch_ns`; the
/// result is the per-section median ns/operation over `budget.batches`
/// batches.
fn measure<const K: usize>(
    budget: Budget,
    mut batch: impl FnMut(u64) -> [(u64, u64); K],
) -> [f64; K] {
    let mut iters = 64u64;
    loop {
        let ns: u64 = batch(iters).iter().map(|s| s.0).sum();
        if ns >= budget.batch_ns || iters >= 1 << 40 {
            break;
        }
        // Aim a fifth past the target so the timed batches clear it.
        let want = (budget.batch_ns as f64 * 1.2 / ns.max(1) as f64).ceil() as u64;
        iters *= want.clamp(2, 16);
    }
    let mut per_op: Vec<[f64; K]> = Vec::with_capacity(budget.batches);
    for _ in 0..budget.batches {
        per_op.push(batch(iters).map(|(ns, ops)| ns as f64 / ops.max(1) as f64));
    }
    std::array::from_fn(|k| {
        let col: Vec<f64> = per_op.iter().map(|row| row[k]).collect();
        crate::stats::median(&col).expect("at least one batch")
    })
}

/// [`measure`] for the common single-section driver: `op` is one operation.
fn measure_op(budget: Budget, mut op: impl FnMut()) -> f64 {
    let [ns] = measure(budget, |iters| {
        let ns = timed(|| {
            for _ in 0..iters {
                op();
            }
        });
        [(ns, iters)]
    });
    ns
}

/// Run every driver. A driver that panics, or reports a value that is
/// not finite and positive where time is measured, fails its batches;
/// its metrics are then absent rather than partial.
pub fn run_all(budget: Budget, seed: u64) -> Outcome {
    type Driver = fn(Budget, u64) -> Vec<(&'static str, f64)>;
    let drivers: [Driver; 6] = [sim::run, net::run, core::run, aqm::run, cc::run, ran::run];
    let mut out = Outcome::default();
    for d in drivers {
        match std::panic::catch_unwind(|| d(budget, seed)) {
            Ok(values) => {
                for (name, v) in values {
                    out.attempted += budget.batches as u64;
                    if !v.is_finite() || v < 0.0 || (!is_exact(name) && v == 0.0) {
                        out.failed += budget.batches as u64;
                    } else {
                        out.values.push((name, v));
                    }
                }
            }
            Err(_) => {
                out.attempted += budget.batches as u64;
                out.failed += budget.batches as u64;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_per_section_medians_and_scales_iterations() {
        let mut calls = Vec::new();
        let got = measure(
            Budget {
                batches: 3,
                batch_ns: 1_000,
            },
            |iters| {
                calls.push(iters);
                [(iters * 2, iters), (iters * 10, iters * 2)] // 2 and 5 ns/op exactly
            },
        );
        assert_eq!(got, [2.0, 5.0]);
        let timed_iters = *calls.last().unwrap();
        assert!(
            timed_iters * 12 >= 1_000,
            "batches reach the target: {calls:?}"
        );
        assert!(calls.len() >= 4 && calls[calls.len() - 3..].iter().all(|&i| i == timed_iters));
    }

    #[test]
    fn every_driver_reports_every_name_once() {
        let out = run_all(Budget::SMOKE, 7);
        assert_eq!(out.failed, 0, "{out:?}");
        let got: Vec<&str> = out.values.iter().map(|&(n, _)| n).collect();
        assert_eq!(got, NAMES, "driver output order is catalogue order");
        assert_eq!(out.attempted, NAMES.len() as u64);
        // The exact driver counts do not depend on the host or the budget.
        let exact = |o: &Outcome| -> Vec<(&str, f64)> {
            o.values
                .iter()
                .filter(|(n, _)| is_exact(n))
                .map(|&(n, v)| (n, v))
                .collect()
        };
        let again = run_all(Budget::SMOKE, 7);
        assert_eq!(exact(&out), exact(&again));
        assert_eq!(exact(&out).len(), 3);
    }
}
