//! Fig. 17 — RLC queue-length CDFs under L4Span: Prague and CUBIC,
//! static and mobile channels, 16-UE (and with `--full` 64-UE) cells.
//! The classic queue should rarely touch zero (no under-utilisation)
//! while the L4S queue stays shallow.
//!
//! `cargo run --release -p l4span-bench --bin fig17`

use l4span_bench::{print_cdf, Experiment};
use l4span_cc::WanLink;
use l4span_harness::scenario::{l4span_default, ChannelMix};

fn main() {
    let exp = Experiment::new("Fig. 17", "RLC queue-length CDFs under L4Span");
    let secs = exp.secs(15);

    let ue_counts: Vec<usize> = if exp.full { vec![16, 64] } else { vec![16] };
    let mut cells = Vec::new();
    for &n in &ue_counts {
        for cc in ["prague", "cubic"] {
            for (chan, mix) in [("S", ChannelMix::Static), ("M", ChannelMix::Mobile)] {
                cells.push((
                    (n, cc, chan),
                    exp.cell(n, cc, mix, WanLink::east(), l4span_default(), secs),
                ));
            }
        }
    }
    let mut last_n = 0;
    for ((n, cc, chan), r) in exp.run(cells) {
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
