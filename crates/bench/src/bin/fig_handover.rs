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

use l4span_bench::{banner, run_grid, Args};
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

fn row(label: &str, n_ues: usize, r: &Report) {
    let flows: Vec<usize> = (0..n_ues).collect();
    let thr: f64 = flows.iter().map(|&f| r.goodput_total_mbps(f)).sum();
    let owd = r.owd_stats_pooled(&flows);
    let post = r.post_handover_owd(&flows, POST_HO_WINDOW);
    let gap = r
        .mean_interruption_ms()
        .map(|g| format!("{g:8.1}"))
        .unwrap_or_else(|| "       -".into());
    println!(
        "{label:<28} {:>4} {thr:>9.2} {:>9.1} {:>9.1} {:>11.1} {gap} {:>8.2} {:>8.2}",
        r.handovers.len(),
        owd.median,
        post.median,
        post.p90,
        r.cell_goodput_mbps(0),
        r.cell_goodput_mbps(1),
    );
}

fn main() {
    let args = Args::parse();
    let secs = args.secs_or(8);
    banner(
        "fig_handover",
        "2-cell mobility: HO frequency × marker policy × CC",
        &args,
    );
    let n_ues = 4;
    let periods_ms: &[u64] = if args.full {
        &[500, 1000, 2000, 4000]
    } else {
        &[1000, 2000]
    };
    let ccs: &[&str] = if args.full {
        &["cubic", "prague", "bbr2", "reno", "bbr"]
    } else {
        &["cubic", "prague", "bbr2"]
    };
    let policies = [HandoverPolicy::MigrateState, HandoverPolicy::ColdStart];

    let mut grid = Vec::new();
    for &cc in ccs {
        for &period in periods_ms {
            for policy in policies {
                let label = format!("{cc}/ho{period}ms/{}", policy_name(policy));
                let cfg = handover_cell(
                    n_ues,
                    cc,
                    Duration::from_millis(period),
                    policy,
                    l4span_default(),
                    args.seed,
                    Duration::from_secs(secs),
                );
                grid.push((label, cfg));
            }
        }
    }
    let results = run_grid(grid);

    println!(
        "\n{:<28} {:>4} {:>9} {:>9} {:>9} {:>11} {:>8} {:>8} {:>8}",
        "scenario",
        "HOs",
        "thr Mbps",
        "owd p50",
        "postHO50",
        "postHO p90",
        "gap ms",
        "cell0",
        "cell1"
    );
    for (label, r) in &results {
        row(label, n_ues, r);
    }

    // The A/B the issue calls for: same CC and cadence, the two marker
    // policies side by side on post-handover delay.
    println!("\npolicy deltas (postHO p50, migrate − cold):");
    for &cc in ccs {
        for &period in periods_ms {
            let find = |pol: HandoverPolicy| {
                let key = format!("{cc}/ho{period}ms/{}", policy_name(pol));
                results
                    .iter()
                    .find(|(l, _)| *l == key)
                    .map(|(_, r)| {
                        r.post_handover_owd(&(0..n_ues).collect::<Vec<_>>(), POST_HO_WINDOW)
                            .median
                    })
                    .unwrap_or(f64::NAN)
            };
            let m = find(HandoverPolicy::MigrateState);
            let c = find(HandoverPolicy::ColdStart);
            println!(
                "  {cc:<8} ho{period:<6} {m:8.1} - {c:8.1} = {:+8.1} ms",
                m - c
            );
        }
    }
    println!("\nReading: `migrate` rides the old cell's rate estimate into the");
    println!("new cell (paper §7), `cold` re-learns from scratch; the delta");
    println!("shows which way that gamble goes at each handover cadence.");
}
