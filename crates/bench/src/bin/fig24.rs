//! Fig. 24 (Appendix B) — the Fig. 9 grid for BBR (v1) and Reno. BBR
//! ignores ECN entirely, so its medians barely move under L4Span; Reno
//! behaves like a sharper CUBIC.
//!
//! `cargo run --release -p l4span-bench --bin fig24 [--full]`

use l4span_bench::{congested_grid, Experiment};

fn main() {
    let exp = Experiment::new("Fig. 24", "BBR and Reno under the congested cell");
    congested_grid(&exp, &["bbr", "reno"]);
    println!("\nPaper shape: Reno's OWD falls >97% under L4Span; BBR's medians");
    println!("barely move (it ignores marks) but variance grows.");
}
