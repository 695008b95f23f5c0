//! Smoke test: every canned scenario builder in `scenario.rs`, across
//! every channel mix and every CU marker kind, yields a world that runs
//! a full simulated second without panicking and actually moves bytes.
//!
//! This guards the 17 figure bins (which are built from exactly these
//! builders) without running full figures in CI.

use l4span_cc::WanLink;
use l4span_core::L4SpanConfig;
use l4span_harness::{run, scenario, MarkerKind, Report};
use l4span_ran::ChannelProfile;
use l4span_sim::{Duration, Instant};

fn one_second(cfg: scenario::ScenarioConfig) -> Report {
    assert_eq!(cfg.duration, Duration::from_secs(1));
    run(cfg)
}

fn delivered_something(r: &Report) {
    let total: u64 = r.thr_bins.iter().flatten().sum();
    assert!(total > 0, "a greedy download must deliver bytes");
}

#[test]
fn congested_cell_runs_under_every_marker() {
    let markers = [
        MarkerKind::None,
        scenario::l4span_default(),
        MarkerKind::DualPi2Cu {
            threshold: Duration::from_millis(1),
        },
        MarkerKind::DualPi2Cu {
            threshold: Duration::from_millis(10),
        },
        MarkerKind::TcRan { ecn: false },
        MarkerKind::TcRan { ecn: true },
    ];
    // The whole marker sweep rides the parallel runner (one worker per
    // scenario up to the core count), exactly like the fig bins do.
    let cfgs: Vec<scenario::ScenarioConfig> = markers
        .into_iter()
        .enumerate()
        .map(|(i, marker)| {
            scenario::congested_cell(
                2,
                "prague",
                scenario::ChannelMix::Static,
                16_384,
                WanLink::local(),
                marker,
                40 + i as u64,
                Duration::from_secs(1),
            )
        })
        .collect();
    for r in l4span_harness::run_batch(cfgs) {
        delivered_something(&r);
    }
}

#[test]
fn congested_cell_runs_under_every_channel_mix() {
    let mixes = [
        scenario::ChannelMix::Static,
        scenario::ChannelMix::Pedestrian,
        scenario::ChannelMix::Vehicular,
        scenario::ChannelMix::Mobile,
    ];
    let cfgs: Vec<scenario::ScenarioConfig> = mixes
        .into_iter()
        .enumerate()
        .map(|(i, mix)| {
            scenario::congested_cell(
                2,
                "cubic",
                mix,
                16_384,
                WanLink::east(),
                scenario::l4span_default(),
                50 + i as u64,
                Duration::from_secs(1),
            )
        })
        .collect();
    for r in l4span_harness::run_batch(cfgs) {
        delivered_something(&r);
    }
}

#[test]
fn congested_cell_runs_with_short_rlc_queue_and_west_wan() {
    // The Fig. 9 short-queue variant plus the longest canned WAN.
    let cfg = scenario::congested_cell(
        2,
        "reno",
        scenario::ChannelMix::Mobile,
        256,
        WanLink::west(),
        scenario::l4span_default(),
        60,
        Duration::from_secs(1),
    );
    let r = one_second(cfg);
    delivered_something(&r);
}

#[test]
fn scenario_config_skeleton_runs_empty() {
    // `ScenarioConfig::new` with no UEs/flows is a valid (if silent) world.
    let cfg = scenario::ScenarioConfig::new(1, Duration::from_secs(1));
    let r = one_second(cfg);
    assert_eq!(r.rlc_drops, 0);
}

#[test]
fn ue_spec_simple_and_channel_events_run() {
    // Hand-built scenario: one UE whose channel degrades mid-run, with
    // marker-time instrumentation on — exercises the remaining
    // `ScenarioConfig` knobs the canned builders leave at defaults.
    let mut cfg = scenario::ScenarioConfig::new(2, Duration::from_secs(1));
    cfg.marker = MarkerKind::L4Span(L4SpanConfig::default());
    cfg.measure_marker_time = true;
    cfg.ues.push(
        scenario::UeSpec::simple(ChannelProfile::Pedestrian, 26.0).with_mobility(vec![
            scenario::MobilityStep::new(
                Instant::from_millis(500),
                0,
                ChannelProfile::Vehicular,
                5.0,
            ),
        ]),
    );
    cfg.flows.push(scenario::FlowSpec::new(
        0,
        l4span_harness::app::AppProfile::bulk(),
        scenario::TransportSpec::tcp(l4span_cc::CcKind::Prague),
        WanLink::local(),
        Instant::ZERO,
    ));
    let r = one_second(cfg);
    delivered_something(&r);
}
