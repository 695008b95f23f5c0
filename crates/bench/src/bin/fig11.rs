//! Fig. 11 — short-lived-flow finish time and long-lived-flow rate: one
//! UE carries a greedy download (LLF) plus repeated 14 kB short flows
//! (SLF), with and without L4Span, for Prague / BBRv2 / CUBIC.
//!
//! `cargo run --release -p l4span-bench --bin fig11`

use l4span_bench::{row, Col, Experiment, Table};
use l4span_cc::WanLink;
use l4span_harness::app::AppProfile;
use l4span_harness::scenario::{l4span_default, FlowSpec, ScenarioConfig, TransportSpec, UeSpec};
use l4span_harness::MarkerKind;
use l4span_ran::ChannelProfile;
use l4span_sim::stats::BoxStats;
use l4span_sim::{Duration, Instant};

fn scenario(cc: &str, marker: MarkerKind, seed: u64, secs: u64) -> (ScenarioConfig, Vec<usize>) {
    let mut cfg = ScenarioConfig::new(seed, Duration::from_secs(secs));
    cfg.marker = marker;
    cfg.ues.push(UeSpec::simple(ChannelProfile::Static, 24.0));
    let transport = TransportSpec::tcp_named(cc).expect("known cc");
    // Flow 0: the long-lived download.
    cfg.flows.push(FlowSpec::new(
        0,
        AppProfile::bulk(),
        transport.clone(),
        WanLink::east(),
        Instant::ZERO,
    ));
    // Repeated 14 kB SLFs, one every 2 s starting at t=3 s.
    let mut slf = Vec::new();
    let mut t = 3;
    while t + 2 <= secs {
        slf.push(cfg.flows.len());
        cfg.flows.push(FlowSpec::new(
            0,
            AppProfile::sized(14_000),
            transport.clone(),
            WanLink::east(),
            Instant::from_secs(t),
        ));
        t += 2;
    }
    (cfg, slf)
}

fn main() {
    let exp = Experiment::new("Fig. 11", "short-flow finish time vs long-flow rate");
    let secs = exp.secs(25);

    let mut cells = Vec::new();
    for cc in ["prague", "bbr2", "cubic"] {
        for (mark, marker) in [(" ", MarkerKind::None), ("+", l4span_default())] {
            let (cfg, slf) = scenario(cc, marker, exp.seed, secs);
            cells.push(((cc, mark, slf), cfg));
        }
    }
    let t = Table::start([
        Col::text("cc", 8),
        Col::text("+", 3),
        Col::num("LLF Mbit/s", 14, 2),
        Col::boxed("SLF finish time ms: med [p25,p75] (p10,p90)"),
        Col::num("SLFs finished", 14, 0),
    ]);
    for ((cc, mark, slf), r) in exp.run(cells) {
        let finishes: Vec<f64> = slf.iter().filter_map(|&f| r.finish_ms[f]).collect();
        row!(
            t,
            cc,
            mark,
            r.goodput_total_mbps(0),
            BoxStats::from_samples(&finishes),
            format!("{}/{}", finishes.len(), slf.len())
        );
    }
    println!("\nPaper shape: L4Span cuts the SLF finish time several-fold");
    println!("(94.6% for Prague) while the LLF keeps most of its rate.");
}
