//! Fig. 20 — egress-rate estimation error CDF: L4Span's Eq. 4 estimate
//! vs the ground-truth RLC dequeue log, 16 UEs, three channel profiles.
//!
//! `cargo run --release -p l4span-bench --bin fig20`

use l4span_bench::{banner, print_cdf, run_grid, Args};
use l4span_cc::WanLink;
use l4span_harness::scenario::{congested_cell, l4span_default, ChannelMix};
use l4span_sim::Duration;

fn main() {
    let args = Args::parse();
    let secs = args.secs_or(15);
    banner("Fig. 20", "egress-rate estimation error", &args);

    let cells = [
        ("static", ChannelMix::Static),
        ("pedestrian", ChannelMix::Pedestrian),
        ("vehicular", ChannelMix::Vehicular),
    ]
    .into_iter()
    .map(|(name, mix)| {
        (
            name,
            congested_cell(
                16,
                "prague",
                mix,
                16_384,
                WanLink::east(),
                l4span_default(),
                args.seed,
                Duration::from_secs(secs),
            ),
        )
    })
    .collect();
    for (name, r) in run_grid(cells) {
        let med = l4span_sim::stats::percentile(&r.rate_err_pct, 50.0);
        let mean = l4span_sim::stats::mean(&r.rate_err_pct);
        println!(
            "\n{name}: {} samples, median error {med:+.1}%, mean {mean:+.1}%",
            r.rate_err_pct.len()
        );
        print_cdf(
            &format!("{name} rate estimation error (%)"),
            &r.rate_err_pct,
            11,
        );
    }
    println!("\nPaper shape: errors concentrate near 0% in all three channels,");
    println!("approximately zero-mean Gaussian (the Eq. 1 modelling assumption).");
}
