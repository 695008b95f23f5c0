//! Application-level QoE sweep: the interactive app mix (FramedVideo +
//! RequestResponse + Bulk per group) × {cubic, prague, bbr2} × marker
//! on/off, reporting what the marker buys the *applications* — frame
//! deadline-miss rate, frame one-way delay, playback stall, request
//! completion time — next to the packet-level numbers. This is the
//! 5G-Advanced-style comparison (frame delay and stalls, not just OWD)
//! that the pluggable workload API exists to reproduce.
//!
//! `cargo run --release -p l4span-bench --bin fig_apps`

use l4span_bench::{row, Col, Experiment, Table};
use l4span_harness::scenario::{interactive_apps_mixed, l4span_default};
use l4span_harness::{MarkerKind, Report};
use l4span_sim::Duration;

/// Flows of one kind in the mixed scenario (groups of three: video,
/// web, bulk).
fn flows_of(r: &Report, offset: usize) -> Vec<usize> {
    (0..r.thr_bins.len()).filter(|f| f % 3 == offset).collect()
}

fn main() {
    let exp = Experiment::new(
        "Apps",
        "interactive application mix: frame/request QoE ±L4Span",
    );
    let secs = exp.secs(10);
    let groups = if exp.full { 4 } else { 2 };
    println!("\n{groups} groups × (video 30fps + web 256kB + bulk), {secs} s each");

    let mut cells = Vec::new();
    for cc in ["cubic", "prague", "bbr2"] {
        for (mark, marker) in [(" ", MarkerKind::None), ("+", l4span_default())] {
            cells.push((
                (cc, mark),
                interactive_apps_mixed(groups, cc, marker, exp.seed, Duration::from_secs(secs)),
            ));
        }
    }
    let t = Table::start([
        Col::text("cc", 7),
        Col::text("+", 3),
        Col::num("miss %", 8, 1),
        Col::num("fOWD med", 10, 1),
        Col::num("stall ms", 10, 0),
        Col::num("bulk Mb/s", 11, 2),
        Col::boxed("request ms: med [p25,p75] (p10,p90)"),
    ]);
    for ((cc, mark), r) in exp.run(cells) {
        let video = flows_of(&r, 0);
        let web = flows_of(&r, 1);
        let bulk = flows_of(&r, 2);
        let generated: u64 = video.iter().map(|&f| r.frames_generated[f]).sum();
        let missed: u64 = video.iter().map(|&f| r.frames_missed[f]).sum();
        let miss_pct = 100.0 * missed as f64 / generated.max(1) as f64;
        let fowd = r.frame_owd_stats_pooled(&video);
        let stall: f64 =
            video.iter().map(|&f| r.stall_time_ms(f)).sum::<f64>() / video.len().max(1) as f64;
        let bulk_mbps: f64 =
            bulk.iter().map(|&f| r.goodput_total_mbps(f)).sum::<f64>() / bulk.len().max(1) as f64;
        let mut req = Vec::new();
        for &f in &web {
            req.extend_from_slice(&r.request_ms[f]);
        }
        let req = l4span_sim::stats::BoxStats::from_samples(&req);
        row!(t, cc, mark, miss_pct, fowd.median, stall, bulk_mbps, req);
    }
    println!("\nExpected shape: with the marker on, the L4S-capable stacks");
    println!("(prague, bbr2) cut the frame deadline-miss rate and request");
    println!("completion tails sharply; cubic improves via the coupled");
    println!("classic response; bulk goodput stays within a few percent.");
}
