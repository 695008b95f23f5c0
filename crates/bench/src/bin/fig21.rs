//! Fig. 21 — processing time of the three L4Span events (downlink
//! packet, uplink ACK, RAN feedback) measured wall-clock inside a busy
//! multi-UE cell. Micro-benchmarks of the same paths are the
//! benchmark's `core.marker.{dl_packet_ns_1drb, ul_packet_ns,
//! ran_feedback_ns}` rows, in `benchmark/src/drivers/core.rs`.
//!
//! `cargo run --release -p l4span-bench --bin fig21`

use l4span_bench::{print_cdf, Experiment};
use l4span_cc::WanLink;
use l4span_harness::run;
use l4span_harness::scenario::{l4span_default, ChannelMix};

fn main() {
    let exp = Experiment::new("Fig. 21", "L4Span event processing time");
    let secs = exp.secs(10);

    let mut cfg = exp.cell(
        if exp.full { 64 } else { 8 },
        "prague",
        ChannelMix::Static,
        WanLink::east(),
        l4span_default(),
        secs,
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
