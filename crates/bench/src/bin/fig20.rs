//! Fig. 20 — egress-rate estimation error CDF: L4Span's Eq. 4 estimate
//! vs the ground-truth RLC dequeue log, 16 UEs, three channel profiles.
//!
//! `cargo run --release -p l4span-bench --bin fig20`

use l4span_bench::{print_cdf, Experiment};
use l4span_cc::WanLink;
use l4span_harness::scenario::{l4span_default, ChannelMix};

fn main() {
    let exp = Experiment::new("Fig. 20", "egress-rate estimation error");
    let secs = exp.secs(15);

    let cells = [
        ("static", ChannelMix::Static),
        ("pedestrian", ChannelMix::Pedestrian),
        ("vehicular", ChannelMix::Vehicular),
    ]
    .into_iter()
    .map(|(name, mix)| {
        (
            name,
            exp.cell(16, "prague", mix, WanLink::east(), l4span_default(), secs),
        )
    })
    .collect();
    for (name, r) in exp.run(cells) {
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
