//! `fig_handover` — the mobility experiment this repo adds beyond the
//! paper's figures: a 2-cell topology with genuine Xn handover (PDCP
//! re-establishment, lossless RLC forwarding), swept over handover
//! frequency × marker handover policy × congestion controller.
//!
//! For every grid cell it reports goodput, steady-state OWD, the OWD in
//! the 500 ms after each handover (where the `MigrateState` vs
//! `ColdStart` policy choice shows up — a migrated estimate keeps the
//! old cell's attainable-rate peak for up to ~1.25 s and under-marks
//! against a worse target cell), the mean handover interruption time
//! (gap in delivered bytes around the switch), and each cell's share of
//! the served traffic.
//!
//! `cargo run --release -p l4span-bench --bin fig_handover [--full]`

use l4span_bench::{row, Col, Experiment, Table};
use l4span_core::HandoverPolicy;
use l4span_harness::scenario::{handover_cell, l4span_default};
use l4span_harness::Report;
use l4span_sim::Duration;

const POST_HO_WINDOW: Duration = Duration::from_millis(500);

fn policy_name(p: HandoverPolicy) -> &'static str {
    match p {
        HandoverPolicy::MigrateState => "migrate",
        HandoverPolicy::ColdStart => "cold",
    }
}

fn main() {
    let exp = Experiment::new(
        "fig_handover",
        "2-cell mobility: HO frequency × marker policy × CC",
    );
    let secs = exp.secs(8);
    let n_ues = 4;
    let periods_ms: &[u64] = if exp.full {
        &[500, 1000, 2000, 4000]
    } else {
        &[1000, 2000]
    };
    let ccs: &[&str] = if exp.full {
        &["cubic", "prague", "bbr2", "reno", "bbr"]
    } else {
        &["cubic", "prague", "bbr2"]
    };
    let policies = [HandoverPolicy::MigrateState, HandoverPolicy::ColdStart];

    let mut grid = Vec::new();
    for &cc in ccs {
        for &period in periods_ms {
            for policy in policies {
                let cfg = handover_cell(
                    n_ues,
                    cc,
                    Duration::from_millis(period),
                    policy,
                    l4span_default(),
                    exp.seed,
                    Duration::from_secs(secs),
                );
                grid.push(((cc, period, policy_name(policy)), cfg));
            }
        }
    }
    let results = exp.run(grid);

    let flows: Vec<usize> = (0..n_ues).collect();
    let t = Table::start([
        Col::text("scenario", 28),
        Col::num("HOs", 4, 0),
        Col::num("thr Mbps", 9, 2),
        Col::num("owd p50", 9, 1),
        Col::num("postHO50", 9, 1),
        Col::num("postHO p90", 11, 1),
        Col::num("gap ms", 8, 1),
        Col::num("cell0", 8, 2),
        Col::num("cell1", 8, 2),
    ]);
    for ((cc, period, policy), r) in &results {
        let thr: f64 = flows.iter().map(|&f| r.goodput_total_mbps(f)).sum();
        let post = r.post_handover_owd(&flows, POST_HO_WINDOW);
        row!(
            t,
            format!("{cc}/ho{period}ms/{policy}"),
            r.handovers.len(),
            thr,
            r.owd_stats_pooled(&flows).median,
            post.median,
            post.p90,
            r.mean_interruption_ms(),
            r.cell_goodput_mbps(0),
            r.cell_goodput_mbps(1)
        );
    }

    // Same CC and cadence, the two marker policies side by side on
    // post-handover delay.
    println!("\npolicy deltas (postHO p50, migrate − cold):");
    let t = Table::start([
        Col::text("cc", 8),
        Col::text("ho ms", 6),
        Col::num("migrate", 8, 1),
        Col::num("cold", 8, 1),
        Col::num("delta ms", 8, 1),
    ]);
    // The policy loop is innermost: each pair of results is one CC and
    // cadence, migrate then cold.
    for pair in results.chunks(2) {
        let [((cc, period, _), migrate), (_, cold)] = pair else {
            unreachable!("two policies per cadence")
        };
        let post50 = |r: &Report| r.post_handover_owd(&flows, POST_HO_WINDOW).median;
        let (m, c) = (post50(migrate), post50(cold));
        row!(t, *cc, period.to_string(), m, c, m - c);
    }
    println!("\nReading: `migrate` rides the old cell's rate estimate into the");
    println!("new cell (paper §7), `cold` re-learns from scratch; the delta");
    println!("shows which way that gamble goes at each handover cadence.");
}
