//! The deployment question — what does an *impaired* Internet path do
//! to L4S flows behind a 5G RAN, and does Prague's classic fallback
//! repair coexistence?
//!
//! Two panels:
//!
//! 1. **Per-CC sweep**: impairment policy × {cubic, prague, bbr2} ×
//!    marker {off, L4Span} — one greedy download, goodput and median
//!    RTT per cell of the grid, plus the pipeline's own counters.
//! 2. **Coexistence**: Prague vs CUBIC sharing an RFC 3168 classic
//!    single-queue hop (the Briscoe hazard: the queue marks ECT(1)
//!    like ECT(0), so scalable Prague out-competes classic CUBIC).
//!    Run once with vanilla `prague` and once with `prague-fallback`;
//!    the fallback sender must detect the classic marking pattern,
//!    switch to Reno-friendly dynamics, and stop starving CUBIC.
//!
//! `cargo run --release -p l4span-bench --bin fig_impairment`

use l4span_bench::{row, Col, Experiment, Table};
use l4span_cc::WanLink;
use l4span_harness::app::AppProfile;
use l4span_harness::scenario::{
    impaired_path_cell, l4span_default, FlowSpec, ScenarioConfig, TransportSpec, UeSpec,
};
use l4span_harness::{ImpairmentSpec, MarkerKind};
use l4span_ran::ChannelProfile;
use l4span_sim::{Duration, Instant};

/// The classic-queue hop's service rate: below what the cell can carry
/// (~38 Mbit/s at these SNRs), so the wired hop — not the RAN — is the
/// bottleneck and its RFC 3168 AQM is the congestion signal that
/// matters.
const HOP_BPS: f64 = 20e6;

/// The swept impairment policies, worst habits of real access networks.
fn policies() -> Vec<(&'static str, Option<ImpairmentSpec>)> {
    vec![
        ("clean", None),
        ("bleach", Some(ImpairmentSpec::bleaching(1.0))),
        ("classic-hop", Some(ImpairmentSpec::classic_hop(HOP_BPS))),
        (
            "bleach+hop",
            Some(ImpairmentSpec::bleaching(1.0).then_classic_hop(HOP_BPS)),
        ),
    ]
}

fn sweep_cfg(
    cc: &str,
    imp: &Option<ImpairmentSpec>,
    marker: MarkerKind,
    seed: u64,
    secs: u64,
) -> ScenarioConfig {
    let dur = Duration::from_secs(secs);
    let mut cfg = match imp {
        Some(spec) => impaired_path_cell(1, cc, spec.clone(), marker, seed, dur),
        None => {
            // Same shape as `impaired_path_cell`, pipeline absent.
            let mut c = impaired_path_cell(1, cc, ImpairmentSpec::default(), marker, seed, dur);
            c.impairment = None;
            c
        }
    };
    // One UE on a static good channel: with the hop policies the wired
    // queue is the bottleneck, on clean/bleach runs the RAN is.
    cfg.ues[0] = UeSpec::simple(ChannelProfile::Static, 26.0);
    cfg
}

/// Prague (flow 0) and CUBIC (flow 1) through one shared pipeline.
fn coexist_cfg(prague: &str, imp: ImpairmentSpec, seed: u64, secs: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(seed, Duration::from_secs(secs));
    cfg.marker = l4span_default();
    cfg.impairment = Some(imp);
    for (i, cc) in [prague, "cubic"].into_iter().enumerate() {
        cfg.ues.push(UeSpec::simple(ChannelProfile::Static, 26.0));
        cfg.flows.push(FlowSpec::new(
            i,
            AppProfile::bulk(),
            TransportSpec::tcp(cc.parse().expect("known cc")),
            WanLink::east(),
            Instant::from_millis(10 * i as u64),
        ));
    }
    cfg
}

fn main() {
    let exp = Experiment::new(
        "fig_impairment",
        "Internet-path impairments: bleaching, RFC 3168 hop, Prague fallback",
    );
    let secs = exp.secs(10);

    let mut cells = Vec::new();
    for (pname, imp) in policies() {
        for cc in ["cubic", "prague", "bbr2"] {
            for (mname, marker) in [("off", MarkerKind::None), ("l4span", l4span_default())] {
                cells.push((
                    (pname, cc, mname),
                    sweep_cfg(cc, &imp, marker, exp.seed, secs),
                ));
            }
        }
    }
    println!("\n--- (1) per-CC sweep: policy x cc x marker ---");
    let t = Table::start([
        Col::text("policy", 12),
        Col::text("cc", 8),
        Col::text("marker", 8),
        Col::num("goodput(Mbps)", 14, 2),
        Col::num("rtt p50(ms)", 12, 1),
        Col::num("bleached", 9, 0),
        Col::num("qmarks", 7, 0),
        Col::num("qdrops", 7, 0),
    ]);
    for ((pname, cc, mname), r) in exp.run(cells) {
        // The pipeline's own counters; `-` where it is absent.
        let imp = r.impairment;
        row!(
            t,
            pname,
            cc,
            mname,
            r.goodput_total_mbps(0),
            r.rtt_stats(0).median,
            imp.map(|c| c.bleached),
            imp.map(|c| c.queue_marks),
            imp.map(|c| c.queue_drops)
        );
    }

    let hop = ImpairmentSpec::classic_hop(HOP_BPS);
    let pairs = exp.run(vec![
        ("prague", coexist_cfg("prague", hop.clone(), exp.seed, secs)),
        (
            "prague-fallback",
            coexist_cfg("prague-fallback", hop, exp.seed, secs),
        ),
    ]);
    println!("\n--- (2) coexistence on a shared RFC 3168 classic queue ---");
    let t = Table::start([
        Col::text("l4s sender", 18),
        Col::num("l4s(Mbps)", 14, 2),
        Col::num("cubic(Mbps)", 14, 2),
        Col::num("ratio", 8, 2),
        Col::num("tail-ratio", 10, 2),
        Col::text("fallback", 0),
    ]);
    // The fallback fires mid-run, so the whole-run ratio dilutes the
    // repaired regime; the tail window (last quarter) shows it clean.
    let tail_from = Instant::ZERO + Duration::from_secs(secs * 3 / 4);
    let tail_to = Instant::ZERO + Duration::from_secs(secs);
    for (name, r) in pairs {
        let l4s = r.goodput_total_mbps(0);
        let cubic = r.goodput_total_mbps(1);
        let tail =
            r.goodput_mbps(0, tail_from, tail_to) / r.goodput_mbps(1, tail_from, tail_to).max(0.01);
        let fb: Vec<String> = r
            .fallbacks
            .iter()
            .map(|f| format!("flow{} @{:.0}ms ({})", f.flow, f.at_ms, f.reason))
            .collect();
        let fb = (!fb.is_empty()).then(|| fb.join(", "));
        row!(t, name, l4s, cubic, l4s / cubic.max(0.01), tail, fb);
    }
    println!(
        "\nPaper shape: the classic queue marks ECT(1) like ECT(0), so vanilla\n\
         Prague's shallow per-mark response out-competes CUBIC (ratio >> 1);\n\
         prague-fallback detects the classic pattern, halves on CE like Reno,\n\
         and the ratio returns toward 1."
    );
}
