//! Fig. 9 — one-way delay vs per-UE throughput boxes for Prague, BBRv2,
//! and CUBIC under a severely congested RAN: {16, 64} UEs × default/256
//! RLC queue × 38/106 ms server RTT × static/mobile channels × ±L4Span.
//!
//! Quick mode runs the 16-UE / default-queue / 38 ms panel (Fig. 9a);
//! `--full` regenerates all eight panels (a–h).
//!
//! `cargo run --release -p l4span-bench --bin fig09 [--full]`

use l4span_bench::{congested_grid, Experiment};

fn main() {
    let exp = Experiment::new("Fig. 9", "congested-cell OWD vs per-UE throughput grid");
    congested_grid(&exp, &["prague", "bbr2", "cubic"]);
    println!("\nPaper shape: '+' rows cut the OWD median by 1-2 orders of");
    println!("magnitude for Prague and CUBIC (less for BBRv2), with little");
    println!("median throughput change; queue 256 helps but less than L4Span.");
}
