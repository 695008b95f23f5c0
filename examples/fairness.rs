//! Fairness, Fig. 14 style: three staggered flows (Prague/Prague/CUBIC
//! on separate UEs) sharing the cell under L4Span; prints a throughput
//! time series so the convergence to fair share is visible.
//!
//! Run with: `cargo run --release --example fairness`

use l4span::cc::{CcKind, WanLink};
use l4span::harness::app::AppProfile;
use l4span::harness::scenario::{l4span_default, FlowSpec, ScenarioConfig, TransportSpec, UeSpec};
use l4span::harness::{self};
use l4span::ran::ChannelProfile;
use l4span::sim::{Duration, Instant};

fn main() {
    let mut cfg = ScenarioConfig::new(5, Duration::from_secs(60));
    cfg.marker = l4span_default();
    let ccs = [CcKind::Prague, CcKind::Prague, CcKind::Cubic];
    for (i, cc) in ccs.into_iter().enumerate() {
        cfg.ues.push(UeSpec::simple(ChannelProfile::Static, 24.0));
        cfg.flows.push(
            FlowSpec::new(
                i,
                AppProfile::bulk(),
                TransportSpec::tcp(cc),
                WanLink::east(),
                Instant::from_secs(10 * i as u64),
            )
            .stop_at(Instant::from_secs(60 - 10 * i as u64)),
        );
    }
    let r = harness::run(cfg);

    println!("== Fig. 14(c) style: Prague, Prague, CUBIC; staggered 0/10/20 s ==");
    println!(
        "{:<6} {:>10} {:>10} {:>10}",
        "t(s)", "prague-1", "prague-2", "cubic"
    );
    let series: Vec<Vec<(f64, f64)>> = (0..3).map(|f| r.throughput_series_mbps(f, 10)).collect();
    let len = series.iter().map(|s| s.len()).max().unwrap_or(0);
    for i in (0..len).step_by(2) {
        let at = |f: usize| -> f64 { series[f].get(i).map(|&(_, m)| m).unwrap_or(0.0) };
        println!(
            "{:<6.0} {:>10.1} {:>10.1} {:>10.1}",
            i as f64,
            at(0),
            at(1),
            at(2)
        );
    }
    // Fair-share check in the fully-overlapped window (25-40 s).
    let from = Instant::from_secs(25);
    let to = Instant::from_secs(40);
    let rates: Vec<f64> = (0..3).map(|f| r.goodput_mbps(f, from, to)).collect();
    println!(
        "\n25-40 s shares: {:.1} / {:.1} / {:.1} Mbit/s",
        rates[0], rates[1], rates[2]
    );
    println!("Expected shape (paper Fig. 14): roughly equal thirds of the cell.");
}
