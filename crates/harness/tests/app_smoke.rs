//! Smoke coverage for the application layer: every built-in
//! `AppProfile` runs a full simulated second over every transport it
//! supports, moves bytes, and populates its QoE channel. Guards the
//! `fig_apps` sweep the same way `scenario_smoke` guards the figure
//! bins.

use l4span_cc::{CcKind, WanLink};
use l4span_harness::app::{AppProfile, FramedVideoCfg};
use l4span_harness::scenario::{l4span_default, FlowSpec, ScenarioConfig, TransportSpec};
use l4span_harness::{run, run_batch, Report, UeSpec};
use l4span_ran::ChannelProfile;
use l4span_sim::{Duration, Instant};

fn one_flow(app: AppProfile, transport: TransportSpec, seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(seed, Duration::from_secs(1));
    cfg.marker = l4span_default();
    cfg.ues.push(UeSpec::simple(ChannelProfile::Static, 24.0));
    cfg.flows.push(FlowSpec::new(
        0,
        app,
        transport,
        WanLink::east(),
        Instant::ZERO,
    ));
    cfg
}

fn delivered_something(r: &Report) {
    let total: u64 = r.thr_bins.iter().flatten().sum();
    assert!(total > 0, "the flow must deliver bytes");
}

#[test]
fn every_app_profile_runs_over_tcp_under_every_cc() {
    let mut cfgs = Vec::new();
    for (i, cc) in CcKind::all().enumerate() {
        for (k, app) in [
            AppProfile::bulk(),
            AppProfile::sized(500_000),
            AppProfile::FramedVideo(
                FramedVideoCfg::new(30.0, 0.5e6, 2.0e6, 8.0e6).with_keyframes(30, 3.0),
            ),
            AppProfile::request_response(100_000, Duration::from_millis(100), None),
            AppProfile::trace(vec![
                (Duration::from_millis(50), 50_000),
                (Duration::from_millis(500), 50_000),
            ]),
        ]
        .into_iter()
        .enumerate()
        {
            cfgs.push(one_flow(
                app,
                TransportSpec::tcp(cc),
                (70 + 10 * i + k) as u64,
            ));
        }
    }
    for r in run_batch(cfgs) {
        delivered_something(&r);
    }
}

#[test]
fn framed_video_over_tcp_populates_frame_qoe() {
    let r = run(one_flow(
        AppProfile::video(30.0, 0.5e6, 2.0e6, 8.0e6),
        TransportSpec::tcp(CcKind::Prague),
        3,
    ));
    delivered_something(&r);
    assert!(r.frames_generated[0] >= 29, "{}", r.frames_generated[0]);
    assert!(r.frames_delivered[0] > 0);
    assert!(!r.frame_owd_ms[0].is_empty());
    assert!(r.frame_owd_stats(0).median > 0.0);
    // Delivered + missed ≥ generated is not an identity (late frames are
    // both delivered and missed), but every generated frame is accounted.
    assert!(r.frames_delivered[0] + r.frames_missed[0] >= r.frames_generated[0]);
}

#[test]
fn framed_video_over_scream_populates_frame_qoe() {
    let r = run(one_flow(
        AppProfile::video(25.0, 0.5e6, 2.0e6, 20.0e6),
        TransportSpec::scream(),
        4,
    ));
    delivered_something(&r);
    assert!(r.frames_generated[0] >= 24, "{}", r.frames_generated[0]);
    assert!(!r.frame_owd_ms[0].is_empty(), "scream frames tracked");
}

#[test]
fn request_response_populates_completions() {
    let r = run(one_flow(
        AppProfile::request_response(50_000, Duration::from_millis(50), None),
        TransportSpec::tcp(CcKind::Cubic),
        5,
    ));
    delivered_something(&r);
    assert!(r.request_ms[0].len() >= 3, "{}", r.request_ms[0].len());
    assert!(r.request_stats(0).median > 0.0);
}

#[test]
fn trace_replay_runs_and_times_bursts() {
    let r = run(one_flow(
        AppProfile::trace(vec![
            (Duration::ZERO, 10_000),
            (Duration::from_millis(200), 20_000),
            (Duration::from_millis(400), 30_000),
        ]),
        TransportSpec::tcp(CcKind::Reno),
        6,
    ));
    delivered_something(&r);
    assert_eq!(r.request_ms[0].len(), 3);
}

#[test]
fn stopped_video_flow_quiesces() {
    let mut cfg = one_flow(
        AppProfile::video(30.0, 0.5e6, 2.0e6, 8.0e6),
        TransportSpec::tcp(CcKind::Prague),
        8,
    );
    cfg.duration = Duration::from_secs(2);
    cfg.flows[0].stop = Some(Instant::from_millis(500));
    let r = run(cfg);
    let early = r.goodput_mbps(0, Instant::from_millis(100), Instant::from_millis(500));
    let late = r.goodput_mbps(0, Instant::from_secs(1), Instant::from_secs(2));
    assert!(early > 0.1, "video ran before stop: {early}");
    assert!(late < 0.05, "encoder stopped offering: {late}");
    // No frames generated after the stop: well under 2 s worth.
    assert!(r.frames_generated[0] <= 16, "{}", r.frames_generated[0]);
}

#[test]
fn flow_stop_quiesces_even_an_app_that_ignores_its_stop_hook() {
    use l4span_harness::app::{AppUnit, Application, UnitKind};
    // A pathological source that never honours `stop()` (the default
    // no-op): the sealed transport must refuse its offers after the
    // scheduled FlowStop, or the stop would be silently violated.
    struct Chatterbox {
        next_at: Instant,
        offered: u64,
    }
    impl Application for Chatterbox {
        fn next_activity(&self) -> Instant {
            self.next_at
        }
        fn on_tick(&mut self, now: Instant, units: &mut Vec<AppUnit>) -> u64 {
            let mut bytes = 0;
            while now >= self.next_at {
                self.offered += 20_000;
                bytes += 20_000;
                units.push(AppUnit {
                    kind: UnitKind::Request,
                    end_byte: self.offered,
                    created: self.next_at,
                    deadline: None,
                });
                self.next_at += Duration::from_millis(20);
            }
            bytes
        }
    }
    let mut cfg = one_flow(
        AppProfile::custom("chatterbox", |start| {
            Box::new(Chatterbox {
                next_at: start,
                offered: 0,
            })
        }),
        TransportSpec::tcp(CcKind::Cubic),
        12,
    );
    cfg.duration = Duration::from_secs(2);
    cfg.flows[0].stop = Some(Instant::from_millis(500));
    let r = run(cfg);
    let early = r.goodput_mbps(0, Instant::from_millis(100), Instant::from_millis(500));
    let late = r.goodput_mbps(0, Instant::from_secs(1), Instant::from_secs(2));
    assert!(early > 0.5, "chatterbox ran before stop: {early}");
    assert!(
        late < 0.05,
        "sealed stream refuses post-stop offers: {late}"
    );
}

#[test]
fn framed_video_and_scream_agree_on_frame_sizes() {
    // FramedVideo-over-TCP (`FramedVideoCfg::frame_bytes`) and the
    // SCReAM encoder size frames by one rule, `gop_frame_bytes`. What
    // each transport makes of it must agree: the bytes SCReAM's encoder
    // queues per frame equal the app's frame sizes, keyframes included,
    // whatever each adds around the rule (the app's 200-byte floor).
    use l4span_cc::scream::ScreamSender;
    for (every, boost) in [(0u32, 1.0f64), (5, 3.0), (30, 3.0), (2, 1.5)] {
        let cfg = FramedVideoCfg::new(25.0, 0.5e6, 2.0e6, 20.0e6).with_keyframes(every, boost);
        let mut sender = ScreamSender::new(1, 2, 5004, 5006, 0.5e6, 2.0e6, 20.0e6, 25.0, true)
            .with_keyframes(every, boost);
        // Poll exactly one frame at a time; no feedback arrives, so the
        // target stays at start_bps on both sides. Sizes are read from
        // the encoder's media-byte counter (generation is independent
        // of the window, which a 3× keyframe can exceed).
        let mut at = Instant::ZERO;
        let mut sent = Vec::new();
        for frame in 0..12u64 {
            let before = sender.media_bytes;
            sender.poll_into(at, &mut sent);
            let scream_bytes = (sender.media_bytes - before) as usize;
            assert_eq!(
                scream_bytes,
                cfg.frame_bytes(frame, 2.0e6),
                "frame {frame} under keyframes ({every}, {boost})"
            );
            at += cfg.frame_interval();
        }
    }
}

#[test]
#[should_panic(expected = "unsupported application/transport combination")]
fn invalid_app_transport_combo_is_rejected() {
    let cfg = one_flow(AppProfile::bulk(), TransportSpec::scream(), 9);
    let _ = run(cfg);
}
