//! Fig. 15 — effectiveness of feedback short-circuiting: one UE, local
//! server, Prague or CUBIC, with the uplink-ACK rewrite enabled vs
//! disabled (downlink marking). Prints RTT and throughput CDFs.
//!
//! `cargo run --release -p l4span-bench --bin fig15`

use l4span_bench::{print_cdf, Experiment};
use l4span_cc::WanLink;
use l4span_core::L4SpanConfig;
use l4span_harness::scenario::ChannelMix;
use l4span_harness::MarkerKind;

fn main() {
    let exp = Experiment::new("Fig. 15", "feedback short-circuiting on/off");
    let secs = exp.secs(20);

    let mut cells = Vec::new();
    for cc in ["prague", "cubic"] {
        for (label, sc) in [("with SC", true), ("w/o SC", false)] {
            let l4cfg = L4SpanConfig {
                short_circuit: sc,
                ..L4SpanConfig::default()
            };
            cells.push((
                (cc, label),
                exp.cell(
                    1,
                    cc,
                    ChannelMix::Mobile,
                    WanLink::local(),
                    MarkerKind::L4Span(l4cfg),
                    secs,
                ),
            ));
        }
    }
    for ((cc, label), r) in exp.run(cells) {
        let rtt: Vec<f64> = r.rtt_ms(0).collect();
        println!(
            "\n{cc} {label}: mean thr {:.2} Mbit/s, rtt p50/p99.9 = {:.1}/{:.1} ms",
            r.goodput_total_mbps(0),
            l4span_sim::stats::percentile(&rtt, 50.0),
            l4span_sim::stats::percentile(&rtt, 99.9),
        );
        print_cdf(&format!("{cc} {label} RTT (ms)"), &rtt, 11);
        let thr: Vec<f64> = r
            .throughput_series_mbps(0, 1)
            .iter()
            .map(|&(_, m)| m)
            .collect();
        print_cdf(&format!("{cc} {label} throughput (Mbit/s)"), &thr, 11);
    }
    println!("\nPaper shape: short-circuiting lowers mean RTT (28.5 vs 33.9 ms");
    println!("Prague; 75 vs 85 ms CUBIC) and slashes the 99.9th tail, with no");
    println!("throughput penalty.");
}
