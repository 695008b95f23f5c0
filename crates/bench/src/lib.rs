//! Shared plumbing for the figure/table runner binaries.
//!
//! Every runner accepts:
//!
//! * `--seed N`    — RNG seed (default 1);
//! * `--secs N`    — per-run simulated seconds (default per figure);
//! * `--full`      — run the complete parameter grid of the paper
//!   instead of the quick subset.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use l4span_sim::stats::{BoxStats, Cdf};

/// Command-line arguments shared by all runners.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// RNG seed.
    pub seed: u64,
    /// Simulated seconds per run (0 = use the figure's default).
    pub secs: u64,
    /// Run the full paper grid.
    pub full: bool,
}

impl Args {
    /// Parse from `std::env::args`.
    pub fn parse() -> Args {
        let mut out = Args {
            seed: 1,
            secs: 0,
            full: false,
        };
        let argv: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < argv.len() {
            match argv[i].as_str() {
                "--seed" => {
                    out.seed = argv
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .expect("--seed N");
                    i += 2;
                }
                "--secs" => {
                    out.secs = argv
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .expect("--secs N");
                    i += 2;
                }
                "--full" => {
                    out.full = true;
                    i += 1;
                }
                other => panic!("unknown argument {other:?} (try --seed/--secs/--full)"),
            }
        }
        out
    }

    /// Seconds to simulate, with a per-figure default.
    pub fn secs_or(&self, default: u64) -> u64 {
        if self.secs == 0 {
            default
        } else {
            self.secs
        }
    }
}

/// Format a box-stat as `median [p25,p75] (p10,p90)`.
pub fn fmt_box(b: &BoxStats) -> String {
    format!(
        "{:9.2} [{:9.2},{:9.2}] ({:9.2},{:9.2})",
        b.median, b.p25, b.p75, b.p10, b.p90
    )
}

/// Print an n-point CDF as `value fraction` rows under a header.
pub fn print_cdf(label: &str, samples: &[f64], points: usize) {
    let cdf = Cdf::from_samples(samples);
    println!("# CDF: {label}  (n={})", cdf.len());
    if cdf.is_empty() {
        println!("  (no samples)");
        return;
    }
    for (v, q) in cdf.points(points) {
        println!("  {v:12.3} {q:6.3}");
    }
}

/// Print the standard figure banner.
pub fn banner(id: &str, what: &str, args: &Args) {
    println!("==================================================================");
    println!("{id}: {what}");
    println!(
        "seed={} {}  (pass --full for the complete paper grid)",
        args.seed,
        if args.full { "FULL GRID" } else { "quick subset" }
    );
    println!("==================================================================");
}

/// Run a labelled grid of scenarios on the parallel runner
/// ([`l4span_harness::runner`]), preserving input order: returns each
/// label paired with its report. Fig-bin grids are independent seeded
/// simulations, so they parallelise perfectly; determinism is unaffected
/// (per-scenario seeds, ordered collection).
pub fn run_grid<L>(
    cells: Vec<(L, l4span_harness::ScenarioConfig)>,
) -> Vec<(L, l4span_harness::Report)> {
    let (labels, cfgs): (Vec<L>, Vec<l4span_harness::ScenarioConfig>) =
        cells.into_iter().unzip();
    labels.into_iter().zip(l4span_harness::run_batch(cfgs)).collect()
}
