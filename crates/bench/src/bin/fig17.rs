//! Fig. 17 — RLC queue-length CDFs under L4Span: Prague and CUBIC,
//! static and mobile channels, 16-UE (and with `--full` 64-UE) cells.
//! The classic queue should rarely touch zero (no under-utilisation)
//! while the L4S queue stays shallow.
//!
//! `cargo run --release -p l4span-bench --bin fig17`

use l4span_bench::{banner, print_cdf, run_grid, Args};
use l4span_cc::WanLink;
use l4span_harness::scenario::{congested_cell, l4span_default, ChannelMix};
use l4span_sim::Duration;

fn main() {
    let args = Args::parse();
    let secs = args.secs_or(15);
    banner("Fig. 17", "RLC queue-length CDFs under L4Span", &args);

    let ue_counts: Vec<usize> = if args.full { vec![16, 64] } else { vec![16] };
    let mut cells = Vec::new();
    for &n in &ue_counts {
        for cc in ["prague", "cubic"] {
            for (chan, mix) in [("S", ChannelMix::Static), ("M", ChannelMix::Mobile)] {
                cells.push((
                    (n, cc, chan),
                    congested_cell(
                        n,
                        cc,
                        mix,
                        16_384,
                        WanLink::east(),
                        l4span_default(),
                        args.seed,
                        Duration::from_secs(secs),
                    ),
                ));
            }
        }
    }
    let mut last_n = 0;
    for ((n, cc, chan), r) in run_grid(cells) {
        if n != last_n {
            println!("\n--- {n} UE cell ---");
            last_n = n;
        }
        let mut samples = Vec::new();
        for q in r.queue_series.values() {
            samples.extend(q.iter().map(|&v| v as f64));
        }
        let zero_frac =
            samples.iter().filter(|&&v| v == 0.0).count() as f64 / samples.len().max(1) as f64;
        println!(
            "\n{cc} {chan}: zero-queue fraction {:.1}%",
            zero_frac * 100.0
        );
        print_cdf(&format!("{cc} {chan} RLC queue (SDUs)"), &samples, 11);
    }
    println!("\nPaper shape: CUBIC's queue never collapses to zero; Prague's");
    println!("stays an order of magnitude shallower than CUBIC's.");
}
