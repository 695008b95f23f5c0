//! Fig. 2 — Prague (L4S) and CUBIC in (a) a wired L4S network, (b) a 5G
//! network without L4Span, (c) 5G + L4Span. In (b) and (c) a wired
//! middlebox drops to 20 Mbit/s between 10 s and 20 s, shifting the
//! bottleneck out of the RAN and back, as in the paper.
//!
//! `cargo run --release -p l4span-bench --bin fig02`

use l4span_bench::{row, value_at, Col, Experiment, Table};
use l4span_cc::{CcKind, WanLink};
use l4span_harness::app::AppProfile;
use l4span_harness::scenario::{
    l4span_default, wired_l4s, BottleneckSpec, FlowSpec, ScenarioConfig, TransportSpec, UeSpec,
};
use l4span_harness::{MarkerKind, Report};
use l4span_ran::ChannelProfile;
use l4span_sim::{Duration, Instant};

/// Per-second RTT and throughput of flows 0 (Prague) and 1 (CUBIC), and
/// the deeper of their two RLC queues.
fn print_series(title: &str, r: &Report) {
    println!("\n--- {title} ---");
    let t = Table::start([
        Col::num("t(s)", 6, 0).left(),
        Col::num("rtt0(ms)", 12, 1),
        Col::num("rtt1(ms)", 12, 1),
        Col::num("thr0(Mbps)", 12, 2),
        Col::num("thr1(Mbps)", 12, 2),
        Col::num("rlcQ(SDU)", 10, 0),
    ]);
    let rtt0 = r.rtt_series(0, 1.0);
    let rtt1 = r.rtt_series(1, 1.0);
    let th0 = r.throughput_series_mbps(0, 10);
    let th1 = r.throughput_series_mbps(1, 10);
    let lookup = |s: &[(f64, f64)], t| value_at(s, t, 0.51);
    let max_t = th0.last().map(|&(t, _)| t).unwrap_or(0.0) as u64;
    for t_s in 0..=max_t {
        let tq = t_s as f64;
        // RLC queue: max over the sampled second across both DRBs.
        let q: u32 = [(0, 0), (1, 0)]
            .iter()
            .filter_map(|k| r.queue_series.get(k))
            .flat_map(|v| {
                let lo = (tq * 100.0) as usize;
                v.iter().skip(lo).take(100).copied().collect::<Vec<_>>()
            })
            .max()
            .unwrap_or(0);
        row!(
            t,
            tq,
            lookup(&rtt0, tq),
            lookup(&rtt1, tq),
            lookup(&th0, tq),
            lookup(&th1, tq),
            f64::from(q)
        );
    }
    println!("(flows: 0 = prague, 1 = cubic)");
}

fn ran_scenario(seed: u64, secs: u64, marker: MarkerKind) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(seed, Duration::from_secs(secs));
    cfg.marker = marker;
    // Middlebox: transparent 1 Gbit/s normally (even paced slow-start
    // bursts never queue a millisecond); 20 Mbit/s during 10–20 s.
    cfg.bottleneck = Some(BottleneckSpec {
        rate_bps: 1e9,
        schedule: vec![
            (Instant::from_secs(10), 20e6),
            (Instant::from_secs(20), 1e9),
        ],
        l4s_aqm: true,
    });
    for (i, cc) in [CcKind::Prague, CcKind::Cubic].into_iter().enumerate() {
        cfg.ues.push(UeSpec::simple(ChannelProfile::Static, 24.0));
        cfg.flows.push(FlowSpec::new(
            i,
            AppProfile::bulk(),
            TransportSpec::tcp(cc),
            WanLink::east(),
            Instant::from_millis(10 * i as u64),
        ));
    }
    cfg
}

fn main() {
    let exp = Experiment::new("Fig. 2", "L4S status quo: wired vs 5G vs 5G+L4Span");
    let secs = exp.secs(30);

    // All three panels run concurrently on the scenario runner.
    let mut panels = exp.run(vec![
        (
            "(a) wired network with a DualPi2 router (40 Mbit/s)",
            wired_l4s(exp.seed, Duration::from_secs(secs.min(20))),
        ),
        (
            "(b) 5G network, no L4S signaling; bottleneck shifts at 10/20 s",
            ran_scenario(exp.seed, secs, MarkerKind::None),
        ),
        (
            "(c) 5G + L4Span; bottleneck shifts at 10/20 s",
            ran_scenario(exp.seed, secs, l4span_default()),
        ),
    ]);
    let (title, wired) = panels.remove(0);
    println!("\n--- {title} ---");
    let t = Table::start([
        Col::text("flow", 8),
        Col::num("rtt median ms", 13, 1),
        Col::num("goodput Mbit/s", 14, 2),
    ]);
    for (f, name) in ["prague", "cubic"].into_iter().enumerate() {
        row!(
            t,
            name,
            wired.rtt_stats(f).median,
            wired.goodput_total_mbps(f)
        );
    }

    for (title, r) in &panels {
        print_series(title, r);
    }

    println!("\nPaper shape: (a) Prague ≈ base RTT, CUBIC ≈ +15-20 ms; (b) both");
    println!("suffer RLC bufferbloat (100s-1000s ms); (c) both low again, line rate.");
}
