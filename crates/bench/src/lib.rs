//! The experiment layer under the figure/table runner binaries.
//!
//! Each runner opens one [`Experiment`], which parses the flags every
//! runner accepts and prints the figure banner:
//!
//! * `--seed N`    — RNG seed (default 1);
//! * `--secs N`    — per-run simulated seconds, N ≥ 1 (default per figure);
//! * `--full`      — run the complete parameter grid of the paper
//!   instead of the quick subset.
//!
//! [`Experiment::run`] runs a labelled grid of scenarios. Every table
//! and CDF is printed by one formatter, [`Table`], whose [`Col`] specs
//! carry each column's header, width and precision; [`row!`] prints a
//! row of values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use l4span_cc::WanLink;
use l4span_harness::scenario::{congested_cell, l4span_default, ChannelMix};
use l4span_harness::{MarkerKind, Report, ScenarioConfig};
use l4span_sim::stats::{BoxStats, Cdf};
use l4span_sim::Duration;

/// One runner's command line, banner and grid runner.
#[derive(Debug)]
pub struct Experiment {
    /// RNG seed.
    pub seed: u64,
    /// Run the full paper grid.
    pub full: bool,
    /// Simulated seconds per run, when given.
    secs: Option<u64>,
}

impl Experiment {
    /// Parse the command line and print the banner of figure `id`.
    pub fn new(id: &str, what: &str) -> Experiment {
        let exp = Experiment::parse(std::env::args().skip(1));
        let rule = "=".repeat(66);
        let grid = if exp.full {
            "FULL GRID"
        } else {
            "quick subset"
        };
        println!("{rule}\n{id}: {what}");
        println!(
            "seed={} {grid}  (pass --full for the complete paper grid)\n{rule}",
            exp.seed
        );
        exp
    }

    /// Parse `--seed N`, `--secs N` and `--full`. An unknown flag, a
    /// malformed number or `--secs 0` panics with a usage hint.
    fn parse(argv: impl IntoIterator<Item = String>) -> Experiment {
        let mut out = Experiment {
            seed: 1,
            full: false,
            secs: None,
        };
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            let mut value = || argv.next().and_then(|v| v.parse().ok());
            match arg.as_str() {
                "--seed" => out.seed = value().expect("--seed N"),
                "--secs" => out.secs = Some(value().filter(|&s| s > 0).expect("--secs N, N ≥ 1")),
                "--full" => out.full = true,
                other => panic!("unknown argument {other:?} (try --seed/--secs/--full)"),
            }
        }
        out
    }

    /// Seconds to simulate: `--secs`, else the figure's `default`.
    pub fn secs(&self, default: u64) -> u64 {
        self.secs.unwrap_or(default)
    }

    /// The paper's congested cell ([`congested_cell`]) at this seed, with
    /// the default 16 384-SDU RLC queue: `n` UEs on `mix` channels, each
    /// with one `cc` download over `wan`, for `secs` simulated seconds.
    pub fn cell(
        &self,
        n: usize,
        cc: &str,
        mix: ChannelMix,
        wan: WanLink,
        marker: MarkerKind,
        secs: u64,
    ) -> ScenarioConfig {
        let dur = Duration::from_secs(secs);
        congested_cell(n, cc, mix, 16_384, wan, marker, self.seed, dur)
    }

    /// Run a labelled grid of scenarios on the parallel runner
    /// ([`l4span_harness::runner`]), preserving input order: returns each
    /// label paired with its report. Fig-bin grids are independent seeded
    /// simulations, so they parallelise perfectly; determinism is unaffected
    /// (per-scenario seeds, ordered collection).
    pub fn run<L>(&self, cells: Vec<(L, ScenarioConfig)>) -> Vec<(L, Report)> {
        let (labels, cfgs): (Vec<L>, Vec<ScenarioConfig>) = cells.into_iter().unzip();
        labels
            .into_iter()
            .zip(l4span_harness::run_batch(cfgs))
            .collect()
    }
}

/// Fig. 9's congested-cell grid for senders `ccs`: per panel, each sender
/// × static/mobile channels × marker off/on, printed as one-way delay and
/// per-UE throughput boxes. Quick mode runs panel (a); `--full` all eight,
/// {16, 64} UEs × default/256 RLC queue × 38/106 ms server RTT.
pub fn congested_grid(exp: &Experiment, ccs: &[&str]) {
    let dur = Duration::from_secs(exp.secs(15));
    let mut panels = Vec::new();
    for (rtt, wan) in [("38 ms", WanLink::east()), ("106 ms", WanLink::west())] {
        for (queue, qname) in [(16_384, "default queue"), (256, "queue 256")] {
            for n in [16, 64] {
                let letter = char::from(b'a' + panels.len() as u8);
                panels.push((format!("({letter}) {n} UE, {qname}, {rtt}"), n, queue, wan));
            }
        }
    }
    panels.truncate(if exp.full { 8 } else { 1 });

    // Build the whole grid up front and fan it out over worker threads;
    // results come back in input order, one chunk per panel.
    let mut cells = Vec::new();
    for &(_, n, queue, wan) in &panels {
        for &cc in ccs {
            for (chan, mix) in [("S", ChannelMix::Static), ("M", ChannelMix::Mobile)] {
                for (mark, marker) in [(" ", MarkerKind::None), ("+", l4span_default())] {
                    let cfg = congested_cell(n, cc, mix, queue, wan, marker, exp.seed, dur);
                    cells.push(((cc, chan, mark), cfg));
                }
            }
        }
    }
    let results = exp.run(cells);
    for ((title, n, ..), rows) in panels.iter().zip(results.chunks(ccs.len() * 4)) {
        println!("\n--- {title} ---");
        let t = Table::start([
            Col::text("cc", 8),
            Col::text("chan", 4),
            Col::text("+", 3),
            Col::boxed("one-way delay ms: med [p25,p75] (p10,p90)"),
            Col::boxed("per-UE throughput Mbit/s"),
        ]);
        let flows: Vec<usize> = (0..*n).collect();
        for &((cc, chan, mark), ref r) in rows {
            let owd = r.owd_stats_pooled(&flows);
            row!(t, cc, chan, mark, owd, r.throughput_stats_pooled(&flows));
        }
    }
}

/// One column of a [`Table`]: its header, width, and how it renders a
/// number.
#[derive(Debug, Clone, Copy)]
pub struct Col {
    head: &'static str,
    width: usize,
    prec: usize,
    pct: bool,
    left: bool,
}

impl Col {
    /// A right-aligned number, `{:>width.prec}`.
    pub const fn num(head: &'static str, width: usize, prec: usize) -> Col {
        Col {
            head,
            width,
            prec,
            pct: false,
            left: false,
        }
    }

    /// Left-aligned text, padded to `width`.
    pub const fn text(head: &'static str, width: usize) -> Col {
        Col::num(head, width, 0).left()
    }

    /// A right-aligned percentage, `{:>(width - 1).prec}%`.
    pub const fn pct(head: &'static str, width: usize, prec: usize) -> Col {
        Col {
            pct: true,
            ..Col::num(head, width, prec)
        }
    }

    /// A box, `median [p25,p75] (p10,p90)`: five `{:9.2}` numbers and
    /// their brackets, 53 wide.
    pub const fn boxed(head: &'static str) -> Col {
        Col::num(head, 53, 2)
    }

    /// The same column, left-aligned.
    pub const fn left(self) -> Col {
        Col { left: true, ..self }
    }

    fn pad(&self, s: &str) -> String {
        let w = self.width;
        if self.left {
            format!("{s:<w$}")
        } else {
            format!("{s:>w$}")
        }
    }

    fn render(&self, cell: &Cell) -> String {
        self.pad(&match cell {
            Cell::Text(t) => t.clone(),
            Cell::Num(v) => format!("{v:.p$}{}", if self.pct { "%" } else { "" }, p = self.prec),
            Cell::Box(b) => format!(
                "{:9.2} [{:9.2},{:9.2}] ({:9.2},{:9.2})",
                b.median, b.p25, b.p75, b.p10, b.p90
            ),
            Cell::Empty => "-".into(),
        })
    }
}

/// One value in a table row, rendered by its column's [`Col`] spec.
#[derive(Debug)]
pub enum Cell {
    /// Text, as given.
    Text(String),
    /// A number, at the column's precision.
    Num(f64),
    /// A box-stat, `median [p25,p75] (p10,p90)`; one of no samples
    /// converts to [`Cell::Empty`].
    Box(BoxStats),
    /// No value: `-`.
    Empty,
}

/// The `From` conversions [`row!`] applies to the values the bins print.
macro_rules! cell_from {
    ($($t:ty => |$v:ident| $cell:expr),+ $(,)?) => {
        $(impl From<$t> for Cell {
            fn from($v: $t) -> Cell {
                $cell
            }
        })+
    };
}

cell_from! {
    &str => |s| Cell::Text(s.to_string()),
    String => |s| Cell::Text(s),
    f64 => |v| Cell::Num(v),
    u64 => |v| Cell::Num(v as f64),
    usize => |v| Cell::Num(v as f64),
    BoxStats => |b| if b.n == 0 { Cell::Empty } else { Cell::Box(b) },
}

impl<T: Into<Cell>> From<Option<T>> for Cell {
    fn from(v: Option<T>) -> Cell {
        v.map_or(Cell::Empty, Into::into)
    }
}

/// A table printed to stdout: a header line, then one line per row,
/// each cell rendered by its column and the cells joined by a space. A
/// row may stop short of the last columns.
#[derive(Debug)]
pub struct Table {
    cols: Vec<Col>,
}

impl Table {
    /// Print a blank line and the column headers, and return the table
    /// for its rows.
    pub fn start(cols: impl Into<Vec<Col>>) -> Table {
        let t = Table { cols: cols.into() };
        let heads: Vec<Cell> = t.cols.iter().map(|c| c.head.into()).collect();
        println!("\n{}", t.line(&heads));
        t
    }

    /// Print one row; [`row!`] converts the values.
    pub fn row(&self, cells: &[Cell]) {
        println!("{}", self.line(cells));
    }

    fn line(&self, cells: &[Cell]) -> String {
        let cells: Vec<String> = self
            .cols
            .iter()
            .zip(cells)
            .map(|(c, v)| c.render(v))
            .collect();
        cells.join(" ").trim_end().to_string()
    }
}

/// Print a row of `table`, each value converted into a [`Cell`]:
/// `row!(t, "prague", 12.5, owd_box)`.
#[macro_export]
macro_rules! row {
    ($table:expr, $($cell:expr),+ $(,)?) => {
        $table.row(&[$($crate::Cell::from($cell)),+])
    };
}

/// The value of the `series` point within `tol` of time `t`, or 0 where
/// the series has none (an empty bin).
pub fn value_at(series: &[(f64, f64)], t: f64, tol: f64) -> f64 {
    let point = series.iter().find(|&&(x, _)| (x - t).abs() < tol);
    point.map_or(0.0, |&(_, v)| v)
}

/// A CDF row: the value `{:12.3}` and the fraction at or below it `{:6.3}`.
const CDF_COLS: [Col; 2] = [Col::num("", 12, 3), Col::num("", 6, 3)];

/// Print an n-point CDF as `value fraction` rows under a `# CDF:` line.
pub fn print_cdf(label: &str, samples: &[f64], points: usize) {
    let cdf = Cdf::from_samples(samples);
    println!("# CDF: {label}  (n={})", cdf.len());
    if cdf.is_empty() {
        println!("(no samples)");
        return;
    }
    let t = Table {
        cols: CDF_COLS.to_vec(),
    };
    for (v, q) in cdf.points(points) {
        row!(t, v, q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Experiment {
        Experiment::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn each_column_kind_renders_the_width_and_precision_it_replaced() {
        let b = BoxStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 1234.5678]);
        let five = [b.median, b.p25, b.p75, b.p10, b.p90];
        let cases = [
            (Col::boxed(""), Cell::from(b), {
                let [m, p25, p75, p10, p90] = five;
                format!("{m:9.2} [{p25:9.2},{p75:9.2}] ({p10:9.2},{p90:9.2})")
            }),
            (
                CDF_COLS[0],
                (-12345.6789).into(),
                format!("{:12.3}", -12345.6789),
            ),
            (CDF_COLS[1], 0.1.into(), format!("{:6.3}", 0.1)),
            (
                Col::num("", 12, 2),
                1.23456.into(),
                format!("{:>12.2}", 1.23456),
            ),
            (
                Col::num("", 6, 0).left(),
                3.0.into(),
                format!("{:<6.0}", 3.0),
            ),
            (Col::num("", 8, 0), 1234u64.into(), format!("{:>8}", 1234)),
            (
                Col::pct("", 12, 1),
                49.96.into(),
                format!("{:>11.1}%", 49.96),
            ),
            (
                Col::text("", 8),
                "prague".into(),
                format!("{:<8}", "prague"),
            ),
            (Col::pct("", 9, 3), Cell::Empty, format!("{:>9}", "-")),
            // A box of no samples is empty, not a box of zeros.
            (
                Col::boxed(""),
                BoxStats::from_samples(&[]).into(),
                format!("{:>53}", "-"),
            ),
            (
                Col::num("", 8, 1),
                None::<f64>.into(),
                format!("{:>8}", "-"),
            ),
        ];
        for (col, cell, want) in cases {
            assert_eq!(col.render(&cell), want, "{col:?} {cell:?}");
        }
    }

    #[test]
    fn a_line_joins_its_cells_under_the_headers_and_may_stop_short() {
        let t = Table {
            cols: vec![Col::text("cc", 8), Col::boxed("owd"), Col::text("note", 0)],
        };
        let heads = t.line(&["cc".into(), "owd".into(), "note".into()]);
        assert_eq!(heads, format!("cc       {:>53} note", "owd"));
        let b = BoxStats::from_samples(&[5.0]);
        assert_eq!(
            t.line(&["x".into(), b.into()]),
            format!("x        {}", Col::boxed("").render(&b.into()))
        );
    }

    #[test]
    fn flags_parse_with_per_figure_defaults() {
        let e = parse(&[]);
        assert_eq!((e.seed, e.full, e.secs(15)), (1, false, 15));
        let e = parse(&["--full", "--secs", "3", "--seed", "7"]);
        assert_eq!((e.seed, e.full, e.secs(15)), (7, true, 3));
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn an_unknown_flag_panics() {
        parse(&["--out", "csv"]);
    }

    #[test]
    #[should_panic(expected = "--secs N, N ≥ 1")]
    fn zero_secs_is_rejected_not_read_as_the_default() {
        parse(&["--secs", "0"]);
    }

    #[test]
    #[should_panic(expected = "--seed N")]
    fn a_malformed_seed_panics() {
        parse(&["--seed", "x"]);
    }
}
