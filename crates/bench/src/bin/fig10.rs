//! Fig. 10 — average one-way-delay breakdown (propagation / scheduling /
//! queuing / other) for round-robin and proportional-fair scheduling,
//! 16 and 64 UEs, with and without L4Span.
//!
//! `cargo run --release -p l4span-bench --bin fig10`

use l4span_bench::{banner, run_grid, Args};
use l4span_cc::WanLink;
use l4span_harness::scenario::{congested_cell, l4span_default, ChannelMix};
use l4span_harness::MarkerKind;
use l4span_ran::config::SchedulerKind;
use l4span_sim::Duration;

fn main() {
    let args = Args::parse();
    let secs = args.secs_or(12);
    banner(
        "Fig. 10",
        "delay breakdown by scheduler and cell load",
        &args,
    );

    println!(
        "\n{:<14} {:<3} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "scheduler/UEs", "+", "prop (ms)", "sched (ms)", "queuing (ms)", "other (ms)", "total"
    );
    let ue_counts: Vec<usize> = if args.full { vec![16, 64] } else { vec![16] };
    let mut cells = Vec::new();
    for &n in &ue_counts {
        for (sname, sched) in [
            ("RR", SchedulerKind::RoundRobin),
            ("PF", SchedulerKind::ProportionalFair),
        ] {
            for (mark, marker) in [(" ", MarkerKind::None), ("+", l4span_default())] {
                let mut cfg = congested_cell(
                    n,
                    "prague",
                    ChannelMix::Mobile,
                    16_384,
                    WanLink::east(),
                    marker,
                    args.seed,
                    Duration::from_secs(secs),
                );
                cfg.scheduler = sched;
                cells.push(((sname, n, mark), cfg));
            }
        }
    }
    for ((sname, n, mark), r) in run_grid(cells) {
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
        println!(
            "{:<14} {mark:<3} {p:>12.2} {s:>12.2} {q:>12.2} {o:>12.2} {:>12.2}",
            format!("{sname} {n}ue"),
            p + s + q + o
        );
    }
    println!("\nPaper shape: queuing dominates without L4Span; with it the");
    println!("queuing bar collapses and propagation dominates, for both schedulers.");
}
