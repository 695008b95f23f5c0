//! The application layer's contract tests:
//!
//! 1. **QoE population** — the application-level metrics (frame OWD,
//!    deadline-miss rate, stall time, request completion times) are
//!    populated. They are part of the fingerprint, so the equivalence
//!    corpus (`tests/golden_fingerprints.rs`) checks them across seeds
//!    and worker counts on its `interactive_apps_mixed_2g` rows.
//! 2. **End-to-end QoE behaviour** — the metrics move the way the paper
//!    says they should (L4Span cuts frame delay misses for video over
//!    a congested cell).

use l4span::cc::{CcKind, WanLink};
use l4span::harness::app::AppProfile;
use l4span::harness::scenario::{
    interactive_apps_mixed, l4span_default, FlowSpec, ScenarioConfig, TransportSpec,
};
use l4span::harness::{self, MarkerKind, UeSpec};
use l4span::ran::ChannelProfile;
use l4span::sim::{Duration, Instant};

#[test]
fn qoe_channels_are_populated() {
    let r = harness::run(interactive_apps_mixed(
        2,
        "prague",
        l4span_default(),
        7,
        Duration::from_secs(2),
    ));
    // The scenario must actually exercise every QoE channel: video flows
    // (0, 3) frames; web flows (1, 4) request completions.
    for f in [0usize, 3] {
        assert!(r.frames_generated[f] > 30, "flow {f} generated frames");
        assert!(!r.frame_owd_ms[f].is_empty(), "flow {f} delivered frames");
        assert!(r.frame_deadline_miss_rate(f).is_some());
    }
    for f in [1usize, 4] {
        assert!(!r.request_ms[f].is_empty(), "flow {f} completed requests");
    }
    // Bulk flows carry no app-level units.
    for f in [2usize, 5] {
        assert_eq!(r.frames_generated[f], 0);
        assert!(r.request_ms[f].is_empty());
    }
}

#[test]
fn l4span_improves_video_qoe_on_a_congested_cell() {
    let mk = |marker: MarkerKind| {
        let mut cfg = ScenarioConfig::new(31, Duration::from_secs(4));
        cfg.marker = marker;
        // Two video calls + two greedy downloads keep the cell loaded.
        for i in 0..4 {
            cfg.ues
                .push(UeSpec::simple(ChannelProfile::Static, 22.0 + i as f64));
            let app = if i < 2 {
                AppProfile::video(30.0, 0.5e6, 2.0e6, 8.0e6)
            } else {
                AppProfile::bulk()
            };
            cfg.flows.push(FlowSpec::new(
                i,
                app,
                TransportSpec::tcp(CcKind::Prague),
                WanLink::east(),
                Instant::from_millis(10 * i as u64),
            ));
        }
        harness::run(cfg)
    };
    let off = mk(MarkerKind::None);
    let on = mk(l4span_default());
    let owd_off = off.frame_owd_stats_pooled(&[0, 1]).median;
    let owd_on = on.frame_owd_stats_pooled(&[0, 1]).median;
    assert!(
        owd_on < owd_off,
        "L4Span must cut frame OWD: {owd_on} vs {owd_off} ms"
    );
    let miss_off = off.frame_deadline_miss_rate(0).unwrap();
    let miss_on = on.frame_deadline_miss_rate(0).unwrap();
    assert!(
        miss_on <= miss_off,
        "deadline misses must not worsen: {miss_on} vs {miss_off}"
    );
    assert!(
        on.stall_time_ms(0) <= off.stall_time_ms(0),
        "stall time must not worsen: {} vs {}",
        on.stall_time_ms(0),
        off.stall_time_ms(0)
    );
}

#[test]
fn request_response_session_completes_and_times_requests() {
    let mut cfg = ScenarioConfig::new(17, Duration::from_secs(3));
    cfg.marker = l4span_default();
    cfg.ues.push(UeSpec::simple(ChannelProfile::Static, 24.0));
    cfg.flows.push(FlowSpec::new(
        0,
        AppProfile::request_response(100_000, Duration::from_millis(100), Some(5)),
        TransportSpec::tcp(CcKind::Cubic),
        WanLink::east(),
        Instant::ZERO,
    ));
    let r = harness::run(cfg);
    assert_eq!(r.request_ms[0].len(), 5, "all five responses completed");
    // Each 100 kB response takes at least the propagation delay and at
    // most a sane bound on an uncongested cell.
    assert!(r.request_ms[0].iter().all(|&ms| ms > 10.0 && ms < 1500.0));
    // The session is finite: the flow finished and recorded its time.
    assert!(r.finish_ms[0].is_some(), "finished_at recorded");
}

#[test]
fn trace_replay_delivers_exactly_the_trace_bytes() {
    let mut cfg = ScenarioConfig::new(19, Duration::from_secs(3));
    cfg.marker = l4span_default();
    cfg.ues.push(UeSpec::simple(ChannelProfile::Static, 24.0));
    let trace = vec![
        (Duration::from_millis(100), 40_000u64),
        (Duration::from_millis(600), 80_000),
        (Duration::from_millis(1_200), 40_000),
    ];
    cfg.flows.push(FlowSpec::new(
        0,
        AppProfile::trace(trace),
        TransportSpec::tcp(CcKind::Prague),
        WanLink::east(),
        Instant::ZERO,
    ));
    let r = harness::run(cfg);
    let delivered: u64 = r.thr_bins[0].iter().sum();
    assert_eq!(delivered, 160_000, "exactly the trace's bytes arrive");
    assert_eq!(r.request_ms[0].len(), 3, "each burst timed");
    assert!(r.finish_ms[0].is_some());
}

#[test]
fn framed_video_over_tcp_adapts_encoder_to_transport() {
    // A narrow cell cannot carry the encoder's 8 Mbit/s cap; the rate
    // hook must pull the target down instead of stalling every frame.
    let mut cfg = ScenarioConfig::new(23, Duration::from_secs(4));
    cfg.marker = l4span_default();
    cfg.cell.n_prbs = 24; // narrow cell
    cfg.ues.push(UeSpec::simple(ChannelProfile::Static, 14.0));
    cfg.flows.push(FlowSpec::new(
        0,
        AppProfile::video(30.0, 0.3e6, 4.0e6, 8.0e6),
        TransportSpec::tcp(CcKind::Prague),
        WanLink::east(),
        Instant::ZERO,
    ));
    let r = harness::run(cfg);
    assert!(r.frames_generated[0] > 100, "{}", r.frames_generated[0]);
    let miss = r.frame_deadline_miss_rate(0).unwrap();
    assert!(
        miss < 0.9,
        "adaptation keeps most frames inside some deadline: {miss}"
    );
    assert!(r.goodput_total_mbps(0) > 0.2, "{}", r.goodput_total_mbps(0));
}
