//! Fig. 14 — throughput fairness among UEs under L4Span: (a) three
//! Prague flows with equal RTT, (b) distinct RTTs, (c) two Prague + one
//! CUBIC, (d) two Prague + one BBRv2. Flows start at 0/10/20 s and stop
//! at 60/50/40 s; prints 1-second throughput series.
//!
//! `cargo run --release -p l4span-bench --bin fig14`

use l4span_bench::{row, Col, Experiment, Table};
use l4span_cc::WanLink;
use l4span_harness::app::AppProfile;
use l4span_harness::scenario::{l4span_default, FlowSpec, ScenarioConfig, TransportSpec, UeSpec};
use l4span_harness::Report;
use l4span_ran::ChannelProfile;
use l4span_sim::{Duration, Instant};

fn staggered(ccs: &[&str], wans: &[WanLink], seed: u64, secs: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(seed, Duration::from_secs(secs));
    cfg.marker = l4span_default();
    for (i, cc) in ccs.iter().enumerate() {
        cfg.ues.push(UeSpec::simple(ChannelProfile::Static, 24.0));
        cfg.flows.push(
            FlowSpec::new(
                i,
                AppProfile::bulk(),
                TransportSpec::tcp_named(cc).expect("known cc"),
                wans[i % wans.len()],
                Instant::from_secs(secs * i as u64 / 6),
            )
            .stop_at(Instant::from_secs(secs - secs * i as u64 / 6)),
        );
    }
    cfg
}

fn show(title: &str, ccs: &[&'static str], r: &Report, secs: u64) {
    println!("\n--- {title} ---");
    let t = Table::start([
        Col::num("t(s)", 7, 0).left(),
        Col::num(ccs[0], 10, 1),
        Col::num(ccs[1], 10, 1),
        Col::num(ccs[2], 10, 1),
    ]);
    let series: Vec<Vec<(f64, f64)>> = (0..3).map(|f| r.throughput_series_mbps(f, 10)).collect();
    let len = series.iter().map(|s| s.len()).max().unwrap_or(0);
    for i in (0..len).step_by(2) {
        let at = |f: usize| series[f].get(i).map(|&(_, m)| m).unwrap_or(0.0);
        row!(t, i, at(0), at(1), at(2));
    }
    // Shares in the fully-overlapped middle window (`-` below 10 s,
    // where the window is empty).
    let from = Instant::from_secs(secs * 2 / 6 + 3);
    let to = Instant::from_secs(secs - secs * 2 / 6);
    let share = |f| (from < to).then(|| r.goodput_mbps(f, from, to));
    row!(t, "overlap", share(0), share(1), share(2));
}

fn main() {
    let exp = Experiment::new("Fig. 14", "fairness among staggered flows under L4Span");
    let secs = exp.secs(60);
    let east = vec![WanLink::east()];
    let distinct = vec![
        WanLink::east(),
        WanLink::west(),
        WanLink {
            one_way: Duration::from_millis(6),
        },
    ];
    let panels: Vec<(&str, Vec<&str>, &Vec<WanLink>)> = vec![
        (
            "(a) three Prague, equal RTT",
            vec!["prague", "prague", "prague"],
            &east,
        ),
        (
            "(b) three Prague, distinct RTTs (38/106/12 ms)",
            vec!["prague", "prague", "prague"],
            &distinct,
        ),
        (
            "(c) two Prague + CUBIC",
            vec!["prague", "cubic", "prague"],
            &east,
        ),
        (
            "(d) two Prague + BBRv2",
            vec!["prague", "bbr2", "prague"],
            &east,
        ),
    ];
    let cells = panels
        .into_iter()
        .map(|(title, ccs, wans)| {
            let cfg = staggered(&ccs, wans, exp.seed, secs);
            ((title, ccs), cfg)
        })
        .collect();
    for ((title, ccs), r) in exp.run(cells) {
        show(title, &ccs, &r, secs);
    }
    println!("\nPaper shape: flows converge to the fair share during overlap;");
    println!("higher-RTT Prague converges slower; CUBIC/BBRv2 coexist without");
    println!("starving the Prague flows (per-UE isolation + MAC scheduler).");
}
