//! Fig. 9 — one-way delay vs per-UE throughput boxes for Prague, BBRv2,
//! and CUBIC under a severely congested RAN: {16, 64} UEs × default/256
//! RLC queue × 38/106 ms server RTT × static/mobile channels × ±L4Span.
//!
//! Quick mode runs the 16-UE / default-queue / 38 ms panel (Fig. 9a);
//! `--full` regenerates all eight panels (a–h).
//!
//! `cargo run --release -p l4span-bench --bin fig09 [--full]`

use l4span_bench::{banner, fmt_box, run_grid, Args};
use l4span_cc::WanLink;
use l4span_harness::scenario::{congested_cell, l4span_default, ChannelMix};
use l4span_harness::MarkerKind;
use l4span_sim::Duration;

fn main() {
    let args = Args::parse();
    let secs = args.secs_or(15);
    banner(
        "Fig. 9",
        "congested-cell OWD vs per-UE throughput grid",
        &args,
    );

    let panels: Vec<(usize, usize, WanLink, &str)> = if args.full {
        vec![
            (
                16,
                16_384,
                WanLink::east(),
                "(a) 16 UE, default queue, 38 ms",
            ),
            (
                64,
                16_384,
                WanLink::east(),
                "(b) 64 UE, default queue, 38 ms",
            ),
            (16, 256, WanLink::east(), "(c) 16 UE, queue 256, 38 ms"),
            (64, 256, WanLink::east(), "(d) 64 UE, queue 256, 38 ms"),
            (
                16,
                16_384,
                WanLink::west(),
                "(e) 16 UE, default queue, 106 ms",
            ),
            (
                64,
                16_384,
                WanLink::west(),
                "(f) 64 UE, default queue, 106 ms",
            ),
            (16, 256, WanLink::west(), "(g) 16 UE, queue 256, 106 ms"),
            (64, 256, WanLink::west(), "(h) 64 UE, queue 256, 106 ms"),
        ]
    } else {
        vec![(
            16,
            16_384,
            WanLink::east(),
            "(a) 16 UE, default queue, 38 ms",
        )]
    };

    // Build the whole grid up front and fan it out over worker threads;
    // results come back in input order, so printing stays grouped.
    let mut cells = Vec::new();
    for &(n, queue, wan, title) in &panels {
        for cc in ["prague", "bbr2", "cubic"] {
            for (chan, mix) in [("S", ChannelMix::Static), ("M", ChannelMix::Mobile)] {
                for (mark, marker) in [(" ", MarkerKind::None), ("+", l4span_default())] {
                    cells.push((
                        (title, n, cc, chan, mark),
                        congested_cell(
                            n,
                            cc,
                            mix,
                            queue,
                            wan,
                            marker,
                            args.seed,
                            Duration::from_secs(secs),
                        ),
                    ));
                }
            }
        }
    }
    let mut last_title = "";
    for ((title, n, cc, chan, mark), r) in run_grid(cells) {
        if title != last_title {
            println!("\n--- {title} ---");
            println!(
                "{:<8} {:<4} {:<3} {:>52} {:>52}",
                "cc",
                "chan",
                "+",
                "one-way delay ms: med [p25,p75] (p10,p90)",
                "per-UE throughput Mbit/s"
            );
            last_title = title;
        }
        let flows: Vec<usize> = (0..n).collect();
        let owd = r.owd_stats_pooled(&flows);
        let thr = r.throughput_stats_pooled(&flows);
        println!(
            "{cc:<8} {chan:<4} {mark:<3} {} {}",
            fmt_box(&owd),
            fmt_box(&thr)
        );
    }
    println!("\nPaper shape: '+' rows cut the OWD median by 1-2 orders of");
    println!("magnitude for Prague and CUBIC (less for BBRv2), with little");
    println!("median throughput change; queue 256 helps but less than L4Span.");
}
