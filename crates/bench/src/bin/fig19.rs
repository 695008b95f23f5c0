//! Fig. 19 — impact of the sojourn-time threshold τ_s on Prague RTT and
//! cell rate-sum, swept over {1,2,5,10,20,50,100} ms for several cell
//! loads; plus the §6.3.1 DualPi2-at-CU ablation (1 ms and 10 ms step
//! thresholds), which under-utilises the fading channel.
//!
//! `cargo run --release -p l4span-bench --bin fig19`

use l4span_bench::{row, Col, Experiment, Table};
use l4span_cc::WanLink;
use l4span_core::L4SpanConfig;
use l4span_harness::scenario::ChannelMix;
use l4span_harness::MarkerKind;
use l4span_sim::Duration;

fn main() {
    let exp = Experiment::new("Fig. 19", "τ_s sweep and the DualPi2-in-RAN ablation");
    let secs = exp.secs(12);

    let ue_counts: Vec<usize> = if exp.full {
        vec![1, 4, 8, 16, 32, 64]
    } else {
        vec![1, 4, 16]
    };
    // Every run: `n` Prague UEs on mobile channels behind the 38 ms server.
    let cell = |n, marker| {
        exp.cell(
            n,
            "prague",
            ChannelMix::Mobile,
            WanLink::east(),
            marker,
            secs,
        )
    };
    let mut cells = Vec::new();
    for &n in &ue_counts {
        for tau_ms in [1u64, 2, 5, 10, 20, 50, 100] {
            let l4 = L4SpanConfig {
                tau_s: Duration::from_millis(tau_ms),
                ..L4SpanConfig::default()
            };
            cells.push(((tau_ms, n), cell(n, MarkerKind::L4Span(l4))));
        }
    }
    let t = Table::start([
        Col::num("tau_s(ms)", 10, 0).left(),
        Col::num("UEs", 6, 0).left(),
        Col::num("RTT mean(ms)", 12, 1),
        Col::num("rate sum Mb/s", 14, 2),
    ]);
    for ((tau_ms, n), r) in exp.run(cells) {
        let flows: Vec<usize> = (0..n).collect();
        let mut rtts = Vec::new();
        for &f in &flows {
            rtts.extend(r.rtt_ms(f));
        }
        let rtt_mean = l4span_sim::stats::mean(&rtts);
        let sum: f64 = flows.iter().map(|&f| r.goodput_total_mbps(f)).sum();
        row!(t, tau_ms, n, rtt_mean, sum);
    }

    let dualpi2 = |ms| MarkerKind::DualPi2Cu {
        threshold: Duration::from_millis(ms),
    };
    let ablation = vec![
        ("dualpi2@cu 1ms", cell(1, dualpi2(1))),
        ("dualpi2@cu 10ms", cell(1, dualpi2(10))),
        (
            "l4span 10ms",
            cell(1, MarkerKind::L4Span(L4SpanConfig::default())),
        ),
    ];
    println!("\n--- §6.3.1 ablation: DualPi2 transplanted to the CU (1 UE, mobile) ---");
    let t = Table::start([
        Col::text("marker", 22),
        Col::num("RTT mean(ms)", 12, 1),
        Col::num("rate Mb/s", 14, 2),
    ]);
    for (name, r) in exp.run(ablation) {
        let rtt_mean = l4span_sim::stats::mean(&r.rtt_ms(0).collect::<Vec<_>>());
        row!(t, name, rtt_mean, r.goodput_total_mbps(0));
    }
    println!("\nPaper shape: throughput reaches its plateau at τ_s = 10 ms with");
    println!("still-low RTT (the knee); DualPi2's fixed step loses 73%/28% of");
    println!("throughput at 1/10 ms because it can't track the fading egress.");
}
