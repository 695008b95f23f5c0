//! Fig. 13 — SCReAM and UDP Prague (interactive video) under static /
//! pedestrian / vehicular channels, 8 concurrent UEs, ±L4Span. UDP
//! feedback rides the payload, so L4Span uses downlink IP marking only.
//!
//! `cargo run --release -p l4span-bench --bin fig13`

use l4span_bench::{row, Col, Experiment, Table};
use l4span_cc::WanLink;
use l4span_harness::app::AppProfile;
use l4span_harness::scenario::{
    l4span_default, ChannelMix, FlowSpec, ScenarioConfig, TransportSpec, UeSpec,
};
use l4span_harness::MarkerKind;
use l4span_sim::stats::BoxStats;
use l4span_sim::{Duration, Instant};

fn video_cell(
    n: usize,
    workload: &(AppProfile, TransportSpec),
    mix: ChannelMix,
    marker: MarkerKind,
    seed: u64,
    secs: u64,
) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(seed, Duration::from_secs(secs));
    cfg.marker = marker;
    for i in 0..n {
        let snr = 20.0 + 5.0 * (i as f64 * 0.618).fract();
        cfg.ues.push(UeSpec::simple(mix.profile(i), snr));
        cfg.flows.push(FlowSpec::new(
            i,
            workload.0.clone(),
            workload.1.clone(),
            WanLink::east(),
            Instant::from_millis(20 * i as u64),
        ));
    }
    cfg
}

fn main() {
    let exp = Experiment::new("Fig. 13", "interactive video congestion control ±L4Span");
    let secs = exp.secs(15);

    let n = 8;
    let scream = (
        AppProfile::video(25.0, 0.5e6, 2.0e6, 20.0e6),
        TransportSpec::scream(),
    );
    let udp_prague = (
        AppProfile::bulk(),
        TransportSpec::udp_prague(6.25e4, 2.5e5, 2.5e6),
    );
    let mut cells = Vec::new();
    for (app, traffic) in [("scream", &scream), ("udp-prague", &udp_prague)] {
        for (chan, mix) in [
            ("static", ChannelMix::Static),
            ("pedestrian", ChannelMix::Pedestrian),
            ("vehicular", ChannelMix::Vehicular),
        ] {
            for (mark, marker) in [(" ", MarkerKind::None), ("+", l4span_default())] {
                cells.push((
                    (app, chan, mark),
                    video_cell(n, traffic, mix, marker, exp.seed, secs),
                ));
            }
        }
    }
    let t = Table::start([
        Col::text("app", 12),
        Col::text("channel", 12),
        Col::text("+", 3),
        Col::boxed("RTT ms: med [p25,p75] (p10,p90)"),
        Col::num("Mbit/s/UE", 12, 2),
    ]);
    for ((app, chan, mark), r) in exp.run(cells) {
        let mut rtts = Vec::new();
        for f in 0..n {
            rtts.extend(r.rtt_ms(f));
        }
        let rtt = BoxStats::from_samples(&rtts);
        let per_ue: f64 = (0..n).map(|f| r.goodput_total_mbps(f)).sum::<f64>() / n as f64;
        row!(t, app, chan, mark, rtt, per_ue);
    }
    println!("\nPaper shape: L4Span reduces RTT for both apps in all channels");
    println!("(76/38/45% for UDP Prague; 13/11/38% for SCReAM) with a small");
    println!("throughput cost.");
}
