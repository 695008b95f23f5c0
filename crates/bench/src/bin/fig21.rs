//! Fig. 21 — processing time of the three L4Span events (downlink
//! packet, uplink ACK, RAN feedback) measured wall-clock inside a busy
//! multi-UE cell. Micro-benchmarks of the same paths are the
//! benchmark's `core.marker.{dl_packet_ns_1drb, ul_packet_ns,
//! ran_feedback_ns}` rows, in `benchmark/src/drivers/core.rs`.
//!
//! `cargo run --release -p l4span-bench --bin fig21`

use l4span_bench::{banner, print_cdf, Args};
use l4span_cc::WanLink;
use l4span_harness::scenario::{congested_cell, l4span_default, ChannelMix};
use l4span_harness::{run, ScenarioConfig};
use l4span_sim::Duration;

fn main() {
    let args = Args::parse();
    let secs = args.secs_or(10);
    banner("Fig. 21", "L4Span event processing time", &args);

    let mut cfg: ScenarioConfig = congested_cell(
        if args.full { 64 } else { 8 },
        "prague",
        ChannelMix::Static,
        16_384,
        WanLink::east(),
        l4span_default(),
        args.seed,
        Duration::from_secs(secs),
    );
    cfg.measure_marker_time = true;
    let r = run(cfg);
    let (dl, ul, fb) = &r.marker_time_ns;
    for (name, v) in [("DL packet", dl), ("UL packet", ul), ("RAN feedback", fb)] {
        let ns: Vec<f64> = v.iter().map(|&x| x as f64 / 1000.0).collect();
        println!(
            "\n{name}: {} events, median {:.3} us, p97 {:.3} us",
            ns.len(),
            l4span_sim::stats::percentile(&ns, 50.0),
            l4span_sim::stats::percentile(&ns, 97.0)
        );
        print_cdf(&format!("{name} processing time (us)"), &ns, 11);
    }
    println!("\nPaper shape: sub-microsecond medians; 97% of DL packets under");
    println!("2 us. (Absolute values depend on the host CPU.)");
}
