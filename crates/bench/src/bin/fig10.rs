//! Fig. 10 — average one-way-delay breakdown (propagation / scheduling /
//! queuing / other) for round-robin and proportional-fair scheduling,
//! 16 and 64 UEs, with and without L4Span.
//!
//! `cargo run --release -p l4span-bench --bin fig10`

use l4span_bench::{row, Col, Experiment, Table};
use l4span_cc::WanLink;
use l4span_harness::scenario::{l4span_default, ChannelMix};
use l4span_harness::MarkerKind;
use l4span_ran::config::SchedulerKind;

fn main() {
    let exp = Experiment::new("Fig. 10", "delay breakdown by scheduler and cell load");
    let secs = exp.secs(12);

    let ue_counts: Vec<usize> = if exp.full { vec![16, 64] } else { vec![16] };
    let mut cells = Vec::new();
    for &n in &ue_counts {
        for (sname, sched) in [
            ("RR", SchedulerKind::RoundRobin),
            ("PF", SchedulerKind::ProportionalFair),
        ] {
            for (mark, marker) in [(" ", MarkerKind::None), ("+", l4span_default())] {
                let mut cfg = exp.cell(
                    n,
                    "prague",
                    ChannelMix::Mobile,
                    WanLink::east(),
                    marker,
                    secs,
                );
                cfg.scheduler = sched;
                cells.push(((sname, n, mark), cfg));
            }
        }
    }
    let t = Table::start([
        Col::text("scheduler/UEs", 14),
        Col::text("+", 3),
        Col::num("prop (ms)", 12, 2),
        Col::num("sched (ms)", 12, 2),
        Col::num("queuing (ms)", 12, 2),
        Col::num("other (ms)", 12, 2),
        Col::num("total", 12, 2),
    ]);
    for ((sname, n, mark), r) in exp.run(cells) {
        // Pool the per-flow breakdown means weighted by count.
        let (mut p, mut s, mut q, mut o, mut cnt) = (0.0, 0.0, 0.0, 0.0, 0u64);
        for b in &r.breakdown {
            let m = b.mean();
            let k = b.count();
            p += m.propagation * k as f64;
            s += m.scheduling * k as f64;
            q += m.queuing * k as f64;
            o += m.other * k as f64;
            cnt += k;
        }
        let k = cnt.max(1) as f64;
        let (p, s, q, o) = (p / k, s / k, q / k, o / k);
        row!(t, format!("{sname} {n}ue"), mark, p, s, q, o, p + s + q + o);
    }
    println!("\nPaper shape: queuing dominates without L4Span; with it the");
    println!("queuing bar collapses and propagation dominates, for both schedulers.");
}
