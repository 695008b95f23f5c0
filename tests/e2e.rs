//! Cross-crate integration tests: whole-stack scenarios through the
//! facade crate, checking the end-to-end behaviours the paper claims.

use l4span::cc::WanLink;
use l4span::core::{HandoverPolicy, L4SpanConfig};
use l4span::harness::app::AppProfile;
use l4span::harness::scenario::{
    congested_cell, handover_cell, impaired_path_cell, l4span_default, wired_l4s, ChannelMix,
    FlowSpec, ScenarioConfig, TransportSpec, UeSpec,
};
use l4span::harness::{self, ImpairmentSpec, MarkerKind};
use l4span::ran::config::RlcMode;
use l4span::ran::ChannelProfile;
use l4span::sim::{Duration, Instant};

fn quick(n: usize, cc: &str, marker: MarkerKind, seed: u64) -> harness::Report {
    harness::run(congested_cell(
        n,
        cc,
        ChannelMix::Static,
        16_384,
        WanLink::east(),
        marker,
        seed,
        Duration::from_secs(4),
    ))
}

#[test]
fn prague_l4span_beats_vanilla_on_delay_at_parity_throughput() {
    let off = quick(4, "prague", MarkerKind::None, 5);
    let on = quick(4, "prague", l4span_default(), 5);
    let flows: Vec<usize> = (0..4).collect();
    let owd_off = off.owd_stats_pooled(&flows).median;
    let owd_on = on.owd_stats_pooled(&flows).median;
    assert!(
        owd_on < owd_off / 2.0,
        "L4Span OWD {owd_on} vs vanilla {owd_off}"
    );
    let thr_off: f64 = flows.iter().map(|&f| off.goodput_total_mbps(f)).sum();
    let thr_on: f64 = flows.iter().map(|&f| on.goodput_total_mbps(f)).sum();
    assert!(thr_on > 0.75 * thr_off, "throughput {thr_on} vs {thr_off}");
}

#[test]
fn short_rlc_queue_drops_but_flows_survive() {
    let r = harness::run(congested_cell(
        2,
        "cubic",
        ChannelMix::Static,
        256,
        WanLink::east(),
        MarkerKind::None,
        3,
        Duration::from_secs(5),
    ));
    assert!(r.rlc_drops > 0, "256-SDU queue must tail-drop under CUBIC");
    for f in 0..2 {
        assert!(
            r.goodput_total_mbps(f) > 1.0,
            "flow {f} survived the losses: {}",
            r.goodput_total_mbps(f)
        );
    }
}

/// A tail-dropped SDU already holds a PDCP SN, which the AM receiver
/// waits for forever: in Fig. 9's marker-off, 256-SDU, mobile cell every
/// flow's last delivery falls at 2.9–3.7 s of the 20 s run.
#[test]
#[ignore = "AM tail-drop stall: ROADMAP item 13"]
fn every_flow_still_delivers_after_am_tail_drops() {
    let r = harness::run(congested_cell(
        16,
        "cubic",
        ChannelMix::Mobile,
        256,
        WanLink::east(),
        MarkerKind::None,
        7,
        Duration::from_secs(20),
    ));
    assert!(r.rlc_drops > 0, "the 256-SDU queue tail-drops");
    for f in 0..r.owd_ms.len() {
        let last = r.owd_at_s(f).last().unwrap_or(0.0);
        assert!(
            last >= 10.0,
            "flow {f}: last delivery at {last:.2} s of 20 s"
        );
    }
}

#[test]
fn rlc_um_mode_still_delivers_tcp() {
    let mut cfg = ScenarioConfig::new(17, Duration::from_secs(4));
    cfg.marker = l4span_default();
    // A UM DRB on a fading channel: HARQ exhaustion now loses SDUs for
    // good; TCP must recover via retransmission.
    cfg.ues.push(UeSpec {
        drbs: vec![(0, RlcMode::Um)],
        ..UeSpec::simple(ChannelProfile::Vehicular, 12.0)
    });
    cfg.flows.push(FlowSpec::new(
        0,
        AppProfile::bulk(),
        TransportSpec::tcp(l4span::cc::CcKind::Cubic),
        WanLink::east(),
        Instant::ZERO,
    ));
    let r = harness::run(cfg);
    assert!(
        r.goodput_total_mbps(0) > 0.5,
        "UM flow still makes progress: {}",
        r.goodput_total_mbps(0)
    );
}

#[test]
fn tcran_marker_controls_delay() {
    let off = quick(1, "cubic", MarkerKind::None, 9);
    let tcran = quick(1, "cubic", MarkerKind::TcRan { ecn: true }, 9);
    assert!(
        tcran.owd_stats(0).median < off.owd_stats(0).median / 2.0,
        "ECN-CoDel at the CU bounds the queue: {} vs {}",
        tcran.owd_stats(0).median,
        off.owd_stats(0).median
    );
}

#[test]
fn dualpi2_cu_ablation_underutilises_vs_l4span_on_fading() {
    // §6.3.1: the fixed 1 ms step cannot track a fading egress rate.
    let mk = |marker| {
        harness::run(congested_cell(
            1,
            "prague",
            ChannelMix::Vehicular,
            16_384,
            WanLink::east(),
            marker,
            21,
            Duration::from_secs(5),
        ))
    };
    let dp = mk(MarkerKind::DualPi2Cu {
        threshold: Duration::from_millis(1),
    });
    let l4 = mk(l4span_default());
    let thr_dp = dp.goodput_total_mbps(0);
    let thr_l4 = l4.goodput_total_mbps(0);
    assert!(
        thr_l4 > thr_dp,
        "L4Span must out-utilise the 1 ms step: {thr_l4} vs {thr_dp}"
    );
}

#[test]
fn short_circuit_rewrites_flow_feedback() {
    let sc_off = L4SpanConfig {
        short_circuit: false,
        ..L4SpanConfig::default()
    };
    let on = quick(1, "prague", l4span_default(), 31);
    let off = quick(1, "prague", MarkerKind::L4Span(sc_off), 31);
    // Both configurations keep the queue shallow…
    assert!(on.owd_stats(0).median < 150.0);
    assert!(off.owd_stats(0).median < 150.0);
    // …and both actually mark.
    assert!(on.total_marks > 0 && off.total_marks > 0);
}

#[test]
fn scream_call_adapts_to_the_cell() {
    let mut cfg = ScenarioConfig::new(13, Duration::from_secs(6));
    cfg.marker = l4span_default();
    for i in 0..4 {
        cfg.ues.push(UeSpec::simple(ChannelProfile::Static, 23.0));
        cfg.flows.push(FlowSpec::new(
            i,
            AppProfile::video(25.0, 0.5e6, 2.0e6, 50.0e6),
            TransportSpec::scream(),
            WanLink::east(),
            Instant::from_millis(10 * i as u64),
        ));
    }
    let r = harness::run(cfg);
    let total: f64 = (0..4).map(|f| r.goodput_total_mbps(f)).sum();
    // Four calls must share the ~40 Mbit/s cell without collapse.
    assert!(total > 10.0, "aggregate video rate {total} Mbit/s");
    assert!(total < 45.0, "cannot exceed the cell: {total}");
    for f in 0..4 {
        let rtt = r.rtt_stats(f);
        assert!(rtt.median < 300.0, "flow {f} rtt median {}", rtt.median);
    }
}

#[test]
fn handover_is_lossless_for_tcp_and_interruption_is_bounded() {
    // Every CC the paper evaluates must ride out a 2-cell ping-pong: the
    // TCP byte stream survives the Xn forwarding (goodput keeps flowing
    // after every switch) and the delivery gap around each handover is
    // bounded.
    for cc in ["reno", "cubic", "prague", "bbr", "bbr2"] {
        let cfg = handover_cell(
            2,
            cc,
            Duration::from_secs(1),
            HandoverPolicy::MigrateState,
            l4span_default(),
            41,
            Duration::from_secs(4),
        );
        let r = harness::run(cfg);
        assert!(
            r.handovers.len() >= 4,
            "{cc}: both UEs ping-pong: {}",
            r.handovers.len()
        );
        for f in 0..2 {
            assert!(
                r.goodput_total_mbps(f) > 0.5,
                "{cc}: flow {f} survived handovers: {}",
                r.goodput_total_mbps(f)
            );
            // Goodput after the last handover: the stream is still live.
            let last = r.handovers.iter().map(|h| h.at).max().unwrap();
            let tail = r.goodput_mbps(f, last, Instant::ZERO + r.duration);
            assert!(tail > 0.1, "{cc}: flow {f} moves bytes post-HO: {tail}");
        }
        let gap = r.mean_interruption_ms().expect("gaps resolved");
        assert!(
            gap < 500.0,
            "{cc}: mean interruption {gap} ms must stay bounded"
        );
    }
}

#[test]
fn flow_stop_quiesces_traffic() {
    let mut cfg = ScenarioConfig::new(23, Duration::from_secs(6));
    cfg.marker = l4span_default();
    cfg.ues.push(UeSpec::simple(ChannelProfile::Static, 24.0));
    cfg.flows.push(
        FlowSpec::new(
            0,
            AppProfile::bulk(),
            TransportSpec::tcp(l4span::cc::CcKind::Prague),
            WanLink::east(),
            Instant::ZERO,
        )
        .stop_at(Instant::from_secs(2)),
    );
    let r = harness::run(cfg);
    let early = r.goodput_mbps(0, Instant::from_millis(500), Instant::from_secs(2));
    let late = r.goodput_mbps(0, Instant::from_secs(4), Instant::from_secs(6));
    assert!(early > 5.0, "flow ran before stop: {early}");
    assert!(late < 0.5, "flow quiesced after stop: {late}");
}

#[test]
fn l4s_and_classic_coexist_on_separate_drbs_of_one_ue() {
    let mut cfg = ScenarioConfig::new(37, Duration::from_secs(6));
    cfg.marker = l4span_default();
    cfg.ues.push(UeSpec {
        drbs: vec![(0, RlcMode::Am), (1, RlcMode::Am)],
        ..UeSpec::simple(ChannelProfile::Static, 24.0)
    });
    for (i, cc) in ["prague", "cubic"].iter().enumerate() {
        cfg.flows.push(
            FlowSpec::new(
                0,
                AppProfile::bulk(),
                TransportSpec::tcp_named(cc).expect("known cc"),
                WanLink::east(),
                Instant::from_millis(i as u64 * 20),
            )
            .on_drb(i as u8),
        );
    }
    let r = harness::run(cfg);
    let prague = r.goodput_total_mbps(0);
    let cubic = r.goodput_total_mbps(1);
    assert!(prague > 3.0, "prague share {prague}");
    assert!(cubic > 3.0, "cubic share {cubic}");
    // The Prague DRB keeps a lower delay than the classic one.
    assert!(
        r.owd_stats(0).median <= r.owd_stats(1).median + 1.0,
        "prague {} vs cubic {}",
        r.owd_stats(0).median,
        r.owd_stats(1).median
    );
}

/// A path that bleaches every ECT mark erases the sender's AccECN
/// feedback: fallback-enabled Prague must notice (reason "bleached")
/// and keep delivering, while vanilla Prague records nothing.
#[test]
fn prague_falls_back_on_a_fully_bleached_path() {
    let run = |cc: &str| {
        harness::run(impaired_path_cell(
            1,
            cc,
            ImpairmentSpec::bleaching(1.0),
            l4span_default(),
            21,
            Duration::from_secs(4),
        ))
    };
    let r = run("prague-fallback");
    assert!(
        !r.fallbacks.is_empty(),
        "bleached feedback must trip the detector"
    );
    assert_eq!(r.fallbacks[0].reason, "bleached");
    assert_eq!(r.fallbacks[0].flow, 0);
    let c = r.impairment.expect("pipeline counters in the report");
    assert!(c.bleached > 0, "the stage actually bleached packets");
    assert!(
        r.goodput_total_mbps(0) > 1.0,
        "the fallen-back flow still delivers: {}",
        r.goodput_total_mbps(0)
    );
    let v = run("prague");
    assert!(v.fallbacks.is_empty(), "vanilla prague records no fallback");
}

/// Fig. 2(a): Prague holds the base RTT and CUBIC sits at the PI target
/// behind a 40 Mbit/s DualPi2 router, and the radio plane the world
/// puts behind that router never queues, so the panel shows the router
/// alone.
#[test]
fn wired_l4s_matches_fig2a() {
    let base_rtt_ms = 20.0;
    let seeds = [3, 7, 11];
    let reports = harness::run_batch(
        seeds
            .iter()
            .map(|&seed| wired_l4s(seed, Duration::from_secs(4)))
            .collect(),
    );
    for (seed, r) in seeds.into_iter().zip(&reports) {
        let prague = r.rtt_stats(0).median;
        let cubic = r.rtt_stats(1).median;
        assert!(
            prague <= base_rtt_ms + 2.0,
            "seed {seed}: Prague RTT median {prague} ms, base {base_rtt_ms} ms"
        );
        assert!(
            cubic >= prague + 5.0,
            "seed {seed}: CUBIC median {cubic} ms not above Prague's {prague} ms"
        );
        let total: f64 = (0..2)
            .map(|f| r.goodput_mbps(f, Instant::from_secs(2), Instant::from_secs(4)))
            .sum();
        assert!(
            total >= 36.0,
            "seed {seed}: line utilisation {total} Mbit/s"
        );
        // The radio plane stayed out of the way.
        for (key, series) in &r.queue_series {
            let peak = series.iter().copied().max().unwrap_or(0);
            assert!(
                peak <= 1,
                "seed {seed}: RLC queue {key:?} peaked at {peak} SDUs"
            );
        }
        assert_eq!(
            (r.harq_retx, r.rlc_drops, r.tbs_lost),
            (0, 0, 0),
            "seed {seed}: (harq_retx, rlc_drops, tbs_lost)"
        );
    }
}

/// Limit-case oracle: where nothing ever queues in the RAN, the L4Span
/// marker has nothing to signal, so switching it on leaves Prague's RTT
/// where it was and marks (almost) nothing.
#[test]
fn marker_is_inert_where_the_ran_never_queues() {
    let run = |marker: MarkerKind| {
        let mut cfg = wired_l4s(7, Duration::from_secs(4));
        cfg.marker = marker;
        harness::run(cfg)
    };
    let (off, on) = (run(MarkerKind::None), run(l4span_default()));
    let (rtt_off, rtt_on) = (off.rtt_stats(0).median, on.rtt_stats(0).median);
    assert!(
        (rtt_on - rtt_off).abs() <= 0.5,
        "Prague RTT median {rtt_on} ms with the marker, {rtt_off} ms without"
    );
    let delivered = on.delivered_packets() as u64;
    assert!(
        on.total_marks * 1000 <= delivered,
        "{} marks over {delivered} delivered packets",
        on.total_marks
    );
}

/// Limit-case oracle: one static UE with a paced 2 Mbit/s downlink, far
/// below the cell's capacity, never queues. Its OWD is the configured
/// constants — WAN, core, UE-internal delay and the slot its block
/// decodes in — plus the wait for the next slot that carries downlink
/// data. That wait is under one slot, plus the longest run of uplink
/// slots when the packet reaches the CU just after the last downlink
/// slot before them began. With the marker on it marks nothing.
#[test]
fn a_light_flow_sees_only_the_configured_delays() {
    use l4span::ran::config::SlotRole;
    let wan = WanLink {
        one_way: Duration::from_millis(10),
    };
    let mut cfg = ScenarioConfig::new(7, Duration::from_secs(4));
    cfg.marker = l4span_default();
    cfg.ues.push(UeSpec::simple(ChannelProfile::Static, 30.0));
    let rate = 2.5e5; // bytes/s, pinned: min = start = max
    cfg.flows.push(FlowSpec::new(
        0,
        AppProfile::bulk(),
        TransportSpec::udp_prague(rate, rate, rate),
        wan,
        Instant::ZERO,
    ));
    let cell = cfg.cell.clone();
    let r = harness::run(cfg);

    let slot = cell.slot_duration.as_millis_f64();
    let pattern = &cell.tdd_pattern;
    let uplink_run = (0..pattern.len())
        .map(|i| {
            (0..pattern.len())
                .take_while(|k| pattern[(i + k) % pattern.len()] == SlotRole::Uplink)
                .count()
        })
        .max()
        .unwrap_or(0);
    let lo = (wan.one_way + cell.core_to_cu_delay + cell.ue_internal_delay + cell.slot_duration)
        .as_millis_f64();
    let hi = lo + (1 + uplink_run) as f64 * slot;
    let owd = &r.owd_ms[0];
    assert!(owd.len() > 500, "only {} OWD samples", owd.len());
    for &ms in owd {
        assert!(
            (lo - 1e-6..hi).contains(&ms),
            "OWD {ms} ms outside [{lo}, {hi}) ms"
        );
    }
    assert_eq!((r.total_marks, r.rlc_drops), (0, 0), "(marks, rlc_drops)");
}

/// Prague (flow 0) and CUBIC (flow 1) sharing one RFC 3168 classic
/// single-queue hop — the Briscoe coexistence hazard.
fn classic_hop_coexist(prague: &str, secs: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(1, Duration::from_secs(secs));
    cfg.marker = l4span_default();
    // Below the ~38 Mbit/s the cell carries at this SNR, so the hop —
    // and its classic marking — is the bottleneck.
    cfg.impairment = Some(ImpairmentSpec::classic_hop(20e6));
    for (i, cc) in [prague, "cubic"].into_iter().enumerate() {
        cfg.ues.push(UeSpec::simple(ChannelProfile::Static, 26.0));
        cfg.flows.push(FlowSpec::new(
            i,
            AppProfile::bulk(),
            TransportSpec::tcp_named(cc).expect("known cc"),
            WanLink::east(),
            Instant::from_millis(10 * i as u64),
        ));
    }
    cfg
}

/// The tentpole's coexistence story end-to-end: the classic queue marks
/// ECT(1) like ECT(0), vanilla Prague reads those deep-queue marks as
/// L4S signals and starves CUBIC; fallback-enabled Prague detects the
/// classic pattern (CE paired with classic-scale queueing delay),
/// switches to Reno-friendly dynamics, and gives CUBIC its share back.
#[test]
fn prague_fallback_stops_starving_cubic_in_the_shared_classic_queue() {
    let secs = 10;
    let vanilla = harness::run(classic_hop_coexist("prague", secs));
    let fb = harness::run(classic_hop_coexist("prague-fallback", secs));

    assert!(
        vanilla.fallbacks.is_empty(),
        "vanilla prague cannot fall back"
    );
    assert_eq!(
        fb.fallbacks.len(),
        1,
        "exactly one fallback: {:?}",
        fb.fallbacks
    );
    assert_eq!(fb.fallbacks[0].reason, "classic-ecn");
    assert_eq!(fb.fallbacks[0].flow, 0);
    assert!(
        fb.fallbacks[0].at_ms < (secs * 1000 - 2000) as f64,
        "fallback must fire with run left to repair: {:?}",
        fb.fallbacks[0]
    );
    // Vanilla starves cubic outright; the whole-run share improves.
    let v_ratio = vanilla.goodput_total_mbps(0) / vanilla.goodput_total_mbps(1).max(0.01);
    assert!(
        v_ratio > 2.0,
        "vanilla prague dominates: ratio {v_ratio:.2}"
    );
    assert!(
        fb.goodput_total_mbps(1) > vanilla.goodput_total_mbps(1),
        "cubic's share improves under fallback: {:.2} vs {:.2}",
        fb.goodput_total_mbps(1),
        vanilla.goodput_total_mbps(1)
    );
    // After the fallback fires, the throughput ratio in the same window
    // must be decisively fairer than vanilla's.
    let from = Instant::from_millis(fb.fallbacks[0].at_ms as u64 + 500);
    let to = Instant::from_secs(secs);
    let tail =
        |r: &harness::Report| r.goodput_mbps(0, from, to) / r.goodput_mbps(1, from, to).max(0.01);
    let (v_tail, fb_tail) = (tail(&vanilla), tail(&fb));
    assert!(
        fb_tail < v_tail / 2.0,
        "post-fallback ratio {fb_tail:.2} vs vanilla {v_tail:.2} in the same window"
    );
}

/// The bidirectional acceptance test: `video_call_bidir` across the
/// L4S-capable and classic stacks, marker on and off. Every combination
/// must move call data in **both** directions; for prague (the scalable
/// L4S response the UE-side marker signals to), marker-on must strictly
/// improve the uplink legs' frame-deadline misses and median uplink OWD
/// over marker-off — the uplink mirror of the paper's headline claim.
#[test]
fn video_call_bidir_marker_improves_uplink_qoe() {
    use l4span::harness::scenario::video_call_bidir;

    let secs = Duration::from_secs(4);
    let mut cfgs = Vec::new();
    for cc in ["cubic", "prague", "bbr2"] {
        for marker in [MarkerKind::None, l4span_default()] {
            cfgs.push(video_call_bidir(3, cc, marker, 11, secs));
        }
    }
    let reports = harness::run_batch(cfgs);
    let ul: Vec<usize> = (0..6).filter(|f| f % 2 == 1).collect();
    let dl: Vec<usize> = (0..6).filter(|f| f % 2 == 0).collect();
    let miss = |r: &harness::Report| {
        let generated: u64 = ul.iter().map(|&f| r.frames_generated[f]).sum();
        let missed: u64 = ul.iter().map(|&f| r.frames_missed[f]).sum();
        missed as f64 / generated.max(1) as f64
    };
    for (k, cc) in ["cubic", "prague", "bbr2"].iter().enumerate() {
        for (r, m) in [(&reports[2 * k], "off"), (&reports[2 * k + 1], "on")] {
            // Both directions carried real call traffic in every cell.
            for &f in dl.iter().chain(&ul) {
                assert!(
                    r.frames_delivered[f] > 30,
                    "{cc}/marker-{m} flow {f}: only {} frames delivered",
                    r.frames_delivered[f]
                );
            }
            assert!(
                r.ul_owd_stats_pooled(&ul).n > 100,
                "{cc}/marker-{m}: uplink OWD samples missing"
            );
        }
    }
    // Prague, marker on vs off: strictly better uplink QoE.
    let (off, on) = (&reports[2], &reports[3]);
    let (miss_off, miss_on) = (miss(off), miss(on));
    assert!(
        miss_on < miss_off,
        "prague uplink deadline misses must strictly improve: {miss_on:.3} vs {miss_off:.3}"
    );
    let owd_off = off.ul_owd_stats_pooled(&ul).median;
    let owd_on = on.ul_owd_stats_pooled(&ul).median;
    assert!(
        owd_on < owd_off,
        "prague median uplink OWD must strictly improve: {owd_on:.1} vs {owd_off:.1} ms"
    );
    // And not marginally: the UE-side marker keeps the uplink queue near
    // its sojourn target instead of seconds-deep bufferbloat.
    assert!(
        owd_on < owd_off / 4.0,
        "expected a decisive uplink OWD cut: {owd_on:.1} vs {owd_off:.1} ms"
    );
    assert!(
        on.ul_marks > 0,
        "the UE-side uplink marker must actually mark ({} total marks)",
        on.total_marks
    );
}

#[test]
fn nada_carries_bulk_traffic() {
    // The RFC 8698 controller as a plain TCP congestion controller:
    // a sanity floor on goodput and determinism of the registry entry.
    let r = quick(2, "nada", l4span_default(), 17);
    for f in 0..2 {
        assert!(
            r.goodput_total_mbps(f) > 1.0,
            "NADA flow {f} starved: {} Mbit/s",
            r.goodput_total_mbps(f)
        );
    }
}

#[test]
fn fec_media_ledger_is_conserved_end_to_end() {
    use l4span::harness::scenario::xr_bonding_cell;
    // Unbonded FEC/ARQ media uplink through the full RAN stack.
    let r = harness::run(xr_bonding_cell(
        4,
        "fec-media",
        l4span_default(),
        false,
        11,
        Duration::from_secs(4),
    ));
    assert!(r.bonds.is_empty(), "unbonded run must report no bonds");
    assert_eq!(r.fec.len(), 4);
    for s in &r.fec {
        assert!(
            s.offered > 50,
            "flow {}: only {} offered",
            s.flow,
            s.offered
        );
        assert_eq!(
            s.delivered + s.repaired + s.abandoned,
            s.offered,
            "flow {}: ledger must partition exactly",
            s.flow
        );
        assert!(
            s.delivered * 2 > s.offered,
            "flow {}: most sources must arrive ({}/{})",
            s.flow,
            s.delivered,
            s.offered
        );
    }
    // The media flows adapt: uplink OWD samples and RTTs were recorded.
    let ul: Vec<usize> = (0..4).collect();
    assert!(
        r.ul_owd_stats_pooled(&ul).n > 100,
        "uplink OWD samples missing"
    );
    assert!(
        (0..r.owd_ms.len()).any(|f| r.rtt_ms(f).len() > 0),
        "NADA RTT series missing"
    );
}

#[test]
fn bonded_media_uses_both_legs() {
    use l4span::harness::scenario::bonded_xr_8ue;
    let r = harness::run(bonded_xr_8ue(5, Duration::from_secs(4)));
    assert_eq!(r.fec.len(), 8);
    assert_eq!(r.bonds.len(), 8);
    for (s, b) in r.fec.iter().zip(&r.bonds) {
        assert_eq!(
            s.delivered + s.repaired + s.abandoned,
            s.offered,
            "flow {}: ledger must partition exactly",
            s.flow
        );
        // Dual connectivity is real: both cells carried the flow.
        assert!(
            b.leg_pkts[0] > 20 && b.leg_pkts[1] > 20,
            "flow {}: legs {:?} — both must carry packets",
            b.flow,
            b.leg_pkts
        );
        assert_eq!(b.join_flushed, 0, "FEC media has no join buffer to flush");
    }
}

/// Every bonded media packet that reaches the server yields exactly one
/// uplink OWD sample. FEC media reuses its sequence number as the IP
/// ident (a retransmission, a repair packet's coverage end), so a send
/// time keyed by ident loses samples; the packet's own stamp cannot.
#[test]
fn every_bonded_media_arrival_is_an_owd_sample() {
    use l4span::harness::scenario::xr_bonding_cell;
    let r = harness::run(xr_bonding_cell(
        4,
        "fec-media",
        l4span_default(),
        true,
        11,
        Duration::from_secs(4),
    ));
    let samples: usize = r.ul_owd_ms.iter().map(Vec::len).sum();
    let arrivals: u64 = r.bonds.iter().map(|b| b.leg_pkts[0] + b.leg_pkts[1]).sum();
    assert!(arrivals > 1000, "only {arrivals} arrivals");
    assert_eq!(
        samples as u64, arrivals,
        "uplink OWD samples vs server arrivals"
    );
}

#[test]
fn bonded_tcp_join_restores_stream_order() {
    use l4span::harness::scenario::xr_bonding_cell;
    // Bonded CUBIC: the server-side join buffer must reorder the two
    // legs' interleavings well enough for TCP to make forward progress
    // comparable to a single leg.
    let bonded = harness::run(xr_bonding_cell(
        2,
        "cubic",
        l4span_default(),
        true,
        9,
        Duration::from_secs(4),
    ));
    let single = harness::run(xr_bonding_cell(
        2,
        "cubic",
        l4span_default(),
        false,
        9,
        Duration::from_secs(4),
    ));
    assert_eq!(bonded.bonds.len(), 2);
    for b in &bonded.bonds {
        assert!(
            b.leg_pkts[0] > 20 && b.leg_pkts[1] > 20,
            "flow {}: legs {:?} — both must carry packets",
            b.flow,
            b.leg_pkts
        );
    }
    let thr = |r: &harness::Report| -> f64 { (0..2).map(|f| r.goodput_total_mbps(f)).sum() };
    let (tb, ts) = (thr(&bonded), thr(&single));
    // 50/50 byte striping across legs of unequal quality pays an
    // in-order penalty (the join waits on the slower leg), so bonded
    // TCP lands below a single good leg — the contract here is that the
    // join keeps the stream functional, not that bonding wins.
    assert!(
        tb > 0.5 * ts,
        "bonded TCP must not collapse vs single-leg: {tb:.2} vs {ts:.2} Mbit/s"
    );
}

#[test]
fn event_count_is_proportional_to_simulated_work() {
    // The timer leak PR 12 removed: every ACK that pulled a paced
    // sender's release earlier left an immortal FlowTimer chain behind,
    // so the events popped per delivered packet grew with the run
    // length (91 over 80 simulated seconds on the paper's case). With
    // one queue entry per timer owner and one radio event per (cell,
    // slot) in each direction the count is linear: twice the simulated
    // time is twice the events (the margin covers the start-up ramp),
    // at a single-digit cost per packet — about 5.0 on the TCP cell and
    // 8.0 on the bonded uplink, whose grant-driven media flows pay a
    // slot-bound share per packet.
    use l4span::harness::scenario::bonded_xr_8ue;
    fn check(name: &str, cfg: impl Fn(u64) -> ScenarioConfig, ceiling: f64) {
        let (short, long) = (harness::run(cfg(10)), harness::run(cfg(20)));
        assert!(
            long.events as f64 <= 2.1 * short.events as f64,
            "{name}: 20 s popped {} events, 10 s {}",
            long.events,
            short.events
        );
        for r in [&short, &long] {
            assert!(
                r.events_per_packet() <= ceiling,
                "{name}: {} events for {} delivered packets",
                r.events,
                r.delivered_packets()
            );
        }
    }
    let tcp_cell = |secs| {
        congested_cell(
            16,
            "prague",
            ChannelMix::Mobile,
            16_384,
            WanLink::east(),
            l4span_default(),
            7,
            Duration::from_secs(secs),
        )
    };
    check("tcp cell", tcp_cell, 5.54);
    check(
        "bonded uplink",
        |secs| bonded_xr_8ue(7, Duration::from_secs(secs)),
        9.0,
    );
}

#[test]
fn fading_is_evaluated_once_per_ue_and_grid_point() {
    // The slot loop reads a backlogged UE's channel at `now − cqi_delay`
    // (link adaptation) and a scheduled one's at `now` (block-error
    // draw), every 0.5 ms; the channel holds its 16-path Jakes sum
    // constant on a 2 ms grid. The work proxy says the sum is evaluated
    // at most once per (UE, grid point) — 16 mobile UEs × 1000 points
    // in 2 s, plus at most the one point the final slot at t = 2 s
    // opens — not once per reader. Points where a UE had nothing queued
    // are never read, so this busy cell evaluates 14 812.
    let r = harness::run(congested_cell(
        16,
        "prague",
        ChannelMix::Mobile,
        16_384,
        WanLink::east(),
        l4span_default(),
        7,
        Duration::from_secs(2),
    ));
    assert!(
        (14_000..=16_016).contains(&r.fading_evals),
        "{} Jakes evaluations for 16 000 (UE, grid point) pairs",
        r.fading_evals
    );
}
