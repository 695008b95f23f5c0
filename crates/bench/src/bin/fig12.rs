//! Fig. 12 — L4Span vs the TC-RAN baseline (CoDel / ECN-CoDel installed
//! at the CU): Prague and CUBIC, static/mobile channels, east/west
//! servers; reports one-way delay and throughput.
//!
//! `cargo run --release -p l4span-bench --bin fig12`

use l4span_bench::{row, Col, Experiment, Table};
use l4span_cc::WanLink;
use l4span_harness::scenario::{l4span_default, ChannelMix};
use l4span_harness::MarkerKind;
use l4span_sim::Instant;

fn main() {
    let exp = Experiment::new("Fig. 12", "L4Span vs TC-RAN (CoDel at the CU)");
    let secs = exp.secs(30);

    let servers: Vec<(&str, WanLink)> = if exp.full {
        vec![("east", WanLink::east()), ("west", WanLink::west())]
    } else {
        vec![("east", WanLink::east())]
    };
    let mut cells = Vec::new();
    for cc in ["prague", "cubic"] {
        // TC-RAN runs ECN-CoDel for the L4S flow and CoDel for classic,
        // as the paper's §6.2.2 configuration does.
        let tcran = MarkerKind::TcRan { ecn: true };
        for (mname, marker) in [("l4span", l4span_default()), ("tc-ran", tcran)] {
            for (chan, mix) in [("S", ChannelMix::Static), ("M", ChannelMix::Mobile)] {
                for (sname, wan) in &servers {
                    cells.push((
                        (cc, mname, chan, *sname),
                        exp.cell(1, cc, mix, *wan, marker.clone(), secs),
                    ));
                }
            }
        }
    }
    let t = Table::start([
        Col::text("cc", 8),
        Col::text("marker", 8),
        Col::text("chan", 4),
        Col::text("server", 6),
        Col::num("OWD med (ms)", 14, 1),
        Col::num("thr (Mbit/s)", 14, 2),
    ]);
    for ((cc, mname, chan, sname), r) in exp.run(cells) {
        // Steady state: skip the convergence transient.
        let thr = r.goodput_mbps(0, Instant::from_secs(5), Instant::from_secs(secs));
        let owd = r.owd_stats(0).median;
        row!(t, cc, mname, chan, sname, owd, thr);
    }
    println!("\nPaper shape: similar delay for Prague under both, but L4Span");
    println!("utilises the fading channel much better (+148% static Prague");
    println!("throughput in the paper); CUBIC under CoDel under-utilises.");
}
