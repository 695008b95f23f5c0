//! Table 1 — CPU and memory overhead of L4Span relative to the bare
//! RAN, in idle (no traffic) and busy (many concurrent downloads)
//! states. On the paper's testbed this is `top` output; here we measure
//! the same delta as (i) wall-clock simulation cost per simulated
//! second, (ii) the share of wall time spent inside L4Span's handlers,
//! and (iii) the resident size of L4Span's tables.
//!
//! `cargo run --release -p l4span-bench --bin table1`

use l4span_bench::{row, Col, Experiment, Table};
use l4span_cc::WanLink;
use l4span_harness::scenario::{l4span_default, ChannelMix};
use l4span_harness::{run, MarkerKind, ScenarioConfig};

fn measure(cfg: ScenarioConfig) -> (f64, u64, usize) {
    let t0 = std::time::Instant::now();
    let r = run(cfg);
    let wall = t0.elapsed().as_secs_f64();
    let marker_ns: u64 = r.marker_time_ns.0.iter().sum::<u64>()
        + r.marker_time_ns.1.iter().sum::<u64>()
        + r.marker_time_ns.2.iter().sum::<u64>();
    (wall, marker_ns, r.marker_memory)
}

fn main() {
    let exp = Experiment::new("Table 1", "CPU and memory overhead of L4Span");
    let secs = exp.secs(10);
    let n_busy = if exp.full { 64 } else { 16 };
    let t = Table::start([
        Col::text("configuration", 28),
        Col::num("wall s/sim s", 14, 3),
        Col::pct("L4Span CPU %", 16, 2),
        Col::num("tables (kB)", 14, 1),
    ]);
    for (state, n) in [("idle", 0usize), ("busy", n_busy)] {
        for (label, marker) in [
            ("srsRAN-sim", MarkerKind::None),
            ("srsRAN-sim+L4Span", l4span_default()),
        ] {
            let mut cfg = exp.cell(
                n.max(1),
                "prague",
                ChannelMix::Static,
                WanLink::east(),
                marker,
                secs,
            );
            if n == 0 {
                cfg.flows.clear(); // idle: cell up, no traffic
            }
            cfg.measure_marker_time = true;
            let (wall, marker_ns, mem) = measure(cfg);
            let cpu_pct = 100.0 * marker_ns as f64 / 1e9 / wall;
            row!(
                t,
                format!("{label} ({state})"),
                wall / secs as f64,
                cpu_pct,
                mem as f64 / 1024.0
            );
        }
    }
    println!("\nPaper shape: L4Span adds <2% CPU and <0.02% memory over the");
    println!("bare srsRAN in both states; the analogue here is a single-digit");
    println!("percent wall-time delta and kilobyte-scale tables.");
}
