//! Fig. 16 — a DRB shared by one L4S (Prague) and one classic (CUBIC)
//! flow on the same UE, under the four marking methods: Original,
//! all-L4S, all-classic, and the paper's coupled rule. Reports the L4S
//! share of throughput and RTT.
//!
//! `cargo run --release -p l4span-bench --bin fig16`

use l4span_bench::{row, Col, Experiment, Table};
use l4span_cc::WanLink;
use l4span_core::{L4SpanConfig, SharedDrbStrategy};
use l4span_harness::app::AppProfile;
use l4span_harness::scenario::{FlowSpec, ScenarioConfig, TransportSpec, UeSpec};
use l4span_harness::MarkerKind;
use l4span_ran::ChannelProfile;
use l4span_sim::{Duration, Instant};

fn shared_drb(strategy: SharedDrbStrategy, seed: u64, secs: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(seed, Duration::from_secs(secs));
    let l4 = L4SpanConfig {
        shared_strategy: strategy,
        ..L4SpanConfig::default()
    };
    cfg.marker = MarkerKind::L4Span(l4);
    cfg.ues.push(UeSpec::simple(ChannelProfile::Static, 24.0));
    for cc in ["prague", "cubic"] {
        // Same DRB 0: the lower-end-UE case of §4.2.3.
        cfg.flows.push(FlowSpec::new(
            0,
            AppProfile::bulk(),
            TransportSpec::tcp_named(cc).expect("known cc"),
            WanLink::east(),
            Instant::from_millis(if cc == "prague" { 0 } else { 50 }),
        ));
    }
    cfg
}

fn main() {
    let exp = Experiment::new("Fig. 16", "L4S + classic sharing one DRB");
    let secs = exp.secs(20);

    let cells = [
        ("original", SharedDrbStrategy::Original),
        ("l4s", SharedDrbStrategy::AllL4s),
        ("classic", SharedDrbStrategy::AllClassic),
        ("l4span", SharedDrbStrategy::Coupled),
    ]
    .into_iter()
    .map(|(name, strat)| (name, shared_drb(strat, exp.seed, secs)))
    .collect();
    let t = Table::start([
        Col::text("strategy", 10),
        Col::num("thr L4S Mb/s", 14, 2),
        Col::num("thr CUBIC", 14, 2),
        Col::pct("L4S thr %", 12, 1),
        Col::pct("L4S RTT %", 12, 1),
    ]);
    for (name, r) in exp.run(cells) {
        let t0 = r.goodput_total_mbps(0);
        let t1 = r.goodput_total_mbps(1);
        let thr_ratio = 100.0 * t0 / (t0 + t1).max(1e-9);
        let r0 = r.rtt_stats(0).median;
        let r1 = r.rtt_stats(1).median;
        let rtt_ratio = 100.0 * r0 / (r0 + r1).max(1e-9);
        row!(t, name, t0, t1, thr_ratio, rtt_ratio);
    }
    println!("\nPaper shape: 'original' starves the L4S flow, 'l4s' starves the");
    println!("classic flow (~25% share), 'classic' has high variance, and the");
    println!("coupled rule lands both ratios near 50%.");
}
