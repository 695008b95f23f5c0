//! Interactive video, Fig. 13 style — on the pluggable application API:
//! the same `FramedVideo` source rides (a) the SCReAM media transport
//! and (b) plain TCP Prague, over a shared cell, with and without
//! L4Span. Alongside RTT and goodput, the report's application-level
//! QoE shows what the marker buys *frames*: one-way delay, the
//! deadline-miss rate, and playback stall time.
//!
//! Run with: `cargo run --release --example interactive_video`

use l4span::cc::{CcKind, WanLink};
use l4span::harness::app::{AppProfile, FramedVideoCfg};
use l4span::harness::scenario::{
    l4span_default, ChannelMix, FlowSpec, ScenarioConfig, TransportSpec, UeSpec,
};
use l4span::harness::{self, MarkerKind};
use l4span::sim::{Duration, Instant};

fn video_cell(
    n: usize,
    transport: &TransportSpec,
    mix: ChannelMix,
    marker: MarkerKind,
) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(11, Duration::from_secs(10));
    cfg.marker = marker;
    // A 25 fps call with an I/P keyframe pattern (one 3× keyframe per
    // second) and a 100 ms per-frame deadline.
    let encoder = FramedVideoCfg::new(25.0, 0.5e6, 2.0e6, 20.0e6).with_keyframes(25, 3.0);
    for i in 0..n {
        let snr = 20.0 + 5.0 * (i as f64 * 0.618).fract();
        cfg.ues.push(UeSpec::simple(mix.profile(i), snr));
        cfg.flows.push(FlowSpec::new(
            i,
            AppProfile::FramedVideo(encoder),
            transport.clone(),
            WanLink::east(),
            Instant::from_millis(20 * i as u64),
        ));
    }
    cfg
}

fn main() {
    let n = 8;
    println!("== {n} UEs, interactive video (Fig. 13 style, app API) ==");
    println!(
        "{:<12} {:<12} {:<8} {:>11} {:>11} {:>8} {:>10} {:>10}",
        "transport", "channel", "l4span", "RTT med", "frame OWD", "miss %", "stall ms", "Mbit/s/UE"
    );
    let transports = [
        ("scream", TransportSpec::scream()),
        ("tcp-prague", TransportSpec::tcp(CcKind::Prague)),
    ];
    for (tname, transport) in &transports {
        for (ch_name, mix) in [
            ("static", ChannelMix::Static),
            ("pedestrian", ChannelMix::Pedestrian),
            ("vehicular", ChannelMix::Vehicular),
        ] {
            for (mark, marker) in [("off", MarkerKind::None), ("on", l4span_default())] {
                let r = harness::run(video_cell(n, transport, mix, marker));
                let flows: Vec<usize> = (0..n).collect();
                let mut rtts = Vec::new();
                for &f in &flows {
                    rtts.extend(r.rtt_ms(f));
                }
                let rtt = l4span::sim::stats::BoxStats::from_samples(&rtts);
                let fowd = r.frame_owd_stats_pooled(&flows);
                let miss = flows
                    .iter()
                    .filter_map(|&f| r.frame_deadline_miss_rate(f))
                    .sum::<f64>()
                    / n as f64;
                let stall = flows.iter().map(|&f| r.stall_time_ms(f)).sum::<f64>() / n as f64;
                let per_ue: f64 =
                    flows.iter().map(|&f| r.goodput_total_mbps(f)).sum::<f64>() / n as f64;
                println!(
                    "{tname:<12} {ch_name:<12} {mark:<8} {:>11.1} {:>11.1} {:>8.1} {:>10.0} {per_ue:>10.2}",
                    rtt.median,
                    fowd.median,
                    100.0 * miss,
                    stall,
                );
            }
        }
    }
    println!("\nExpected shape (paper Fig. 13): L4Span cuts RTT and frame");
    println!("delay for both transports in every channel, shrinking the");
    println!("deadline-miss rate and stall time at a small throughput cost.");
}
