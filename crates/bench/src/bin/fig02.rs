//! Fig. 2 — Prague (L4S) and CUBIC in (a) a wired L4S network, (b) a 5G
//! network without L4Span, (c) 5G + L4Span. In (b) and (c) a wired
//! middlebox drops to 20 Mbit/s between 10 s and 20 s, shifting the
//! bottleneck out of the RAN and back, as in the paper.
//!
//! `cargo run --release -p l4span-bench --bin fig02`

use l4span_bench::{banner, run_grid, Args};
use l4span_cc::{CcKind, WanLink};
use l4span_harness::app::AppProfile;
use l4span_harness::scenario::{
    l4span_default, wired_l4s, BottleneckSpec, FlowSpec, ScenarioConfig, TransportSpec, UeSpec,
};
use l4span_harness::{MarkerKind, Report};
use l4span_ran::ChannelProfile;
use l4span_sim::{Duration, Instant};

fn print_series(r: &Report, names: &[&str], queue_keys: &[(u16, u8)]) {
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "t(s)", "rtt0(ms)", "rtt1(ms)", "thr0(Mbps)", "thr1(Mbps)", "rlcQ(SDU)"
    );
    let rtt0 = r.rtt_series(0, 1.0);
    let rtt1 = r.rtt_series(1, 1.0);
    let th0 = r.throughput_series_mbps(0, 10);
    let th1 = r.throughput_series_mbps(1, 10);
    let lookup = |s: &Vec<(f64, f64)>, t: f64| -> f64 {
        s.iter()
            .find(|&&(x, _)| (x - t).abs() < 0.51)
            .map(|&(_, v)| v)
            .unwrap_or(0.0)
    };
    let max_t = th0.last().map(|&(t, _)| t).unwrap_or(0.0) as u64;
    for t in 0..=max_t {
        let tq = t as f64;
        // RLC queue: max over the sampled second across the listed DRBs.
        let q: u32 = queue_keys
            .iter()
            .filter_map(|k| r.queue_series.get(k))
            .flat_map(|v| {
                let lo = (tq * 100.0) as usize;
                v.iter().skip(lo).take(100).copied().collect::<Vec<_>>()
            })
            .max()
            .unwrap_or(0);
        println!(
            "{tq:<6.0} {:>12.1} {:>12.1} {:>12.2} {:>12.2} {q:>10}",
            lookup(&rtt0, tq),
            lookup(&rtt1, tq),
            lookup(&th0, tq),
            lookup(&th1, tq),
        );
    }
    println!("(flows: 0 = {}, 1 = {})", names[0], names[1]);
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
    let args = Args::parse();
    let secs = args.secs_or(30);
    banner("Fig. 2", "L4S status quo: wired vs 5G vs 5G+L4Span", &args);

    // All three panels run concurrently on the scenario runner.
    let mut panels = run_grid(vec![
        (
            "(a) wired network with a DualPi2 router (40 Mbit/s)",
            wired_l4s(args.seed, Duration::from_secs(secs.min(20))),
        ),
        (
            "(b) 5G network, no L4S signaling; bottleneck shifts at 10/20 s",
            ran_scenario(args.seed, secs, MarkerKind::None),
        ),
        (
            "(c) 5G + L4Span; bottleneck shifts at 10/20 s",
            ran_scenario(args.seed, secs, l4span_default()),
        ),
    ]);
    let (title, wired) = panels.remove(0);
    println!("\n--- {title} ---");
    for (f, name) in ["prague", "cubic"].iter().enumerate() {
        let rtt = wired.rtt_stats(f);
        println!(
            "{name:<8} rtt median {:>7.1} ms   goodput {:>6.2} Mbit/s",
            rtt.median,
            wired.goodput_total_mbps(f)
        );
    }

    for (title, r) in &panels {
        println!("\n--- {title} ---");
        print_series(r, &["prague", "cubic"], &[(0, 0), (1, 0)]);
    }

    println!("\nPaper shape: (a) Prague ≈ base RTT, CUBIC ≈ +15-20 ms; (b) both");
    println!("suffer RLC bufferbloat (100s-1000s ms); (c) both low again, line rate.");
}
