//! The parent side: spawn one child per sample, check the outputs,
//! aggregate samples into the catalogue's metrics, print and store them.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use crate::drivers::{self, Budget};
use crate::json::Value;
use crate::metrics::{self, Better, Kind, Metric};
use crate::stats::median;
use crate::trace::{self, Span, Tracer};
use crate::workloads::{Workload, WORKLOADS};

/// Named values in catalogue order.
pub type Values = Vec<(String, f64)>;

fn median_of(samples: &[Value], key: &str) -> f64 {
    let v: Vec<f64> = samples.iter().map(|s| s.num(key)).collect();
    median(&v).unwrap_or(0.0)
}

/// Output checks over every sample of one workload and seed. Each entry
/// is one failed operation.
pub fn check_samples(samples: &[&Value]) -> Vec<String> {
    let mut errs = Vec::new();
    let first = samples
        .first()
        .and_then(|s| s.get("digest"))
        .and_then(Value::as_str);
    for (i, s) in samples.iter().enumerate() {
        let digest = s.get("digest").and_then(Value::as_str);
        if digest.is_none() || digest != first {
            errs.push(format!(
                "sample {i}: fingerprint {digest:?} differs from {first:?}"
            ));
        }
        if s.num("packets") < 1.0 {
            errs.push(format!("sample {i}: empty delay pool"));
        }
        let g = s.num("goodput_mbps");
        if !(g.is_finite() && g > 0.0) {
            errs.push(format!("sample {i}: goodput {g}"));
        }
        if s.get("fec_closed").and_then(Value::as_bool) != Some(true) {
            errs.push(format!("sample {i}: a FEC ledger does not close"));
        }
        // Every one-world sample reads its own `VmHWM`; 0 means it could not.
        if s.get("peak_rss_kb").is_some() && s.num("peak_rss_kb") < 1.0 {
            errs.push(format!("sample {i}: VmHWM unreadable"));
        }
    }
    errs
}

/// The traced sample's cycle labels must be exactly the catalogue's. A
/// label the harness renamed or added would otherwise read 0 or vanish
/// from the tables, and later PRs, which may not edit the benchmark,
/// would see a cost disappear.
pub fn check_cycle_labels(traced: &Value) -> Vec<String> {
    let mut got: Vec<&str> = (traced.arr("cycles").iter())
        .filter_map(|c| c.get("label")?.as_str())
        .collect();
    let mut want = metrics::CYCLE_LABELS.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    if got == want {
        Vec::new()
    } else {
        vec![format!(
            "traced run has cycle labels {got:?}, the catalogue {want:?}"
        )]
    }
}

/// The end-to-end metrics of one workload from its untraced samples.
pub fn end_to_end(samples: &[Value]) -> Values {
    let s0 = &samples[0];
    let allocs_per_kpkt = median_of(samples, "allocs") * 1000.0 / s0.num("packets").max(1.0);
    let values = [
        median_of(samples, "run_s") * 1000.0 / s0.num("sim_s"),
        median_of(samples, "setup_s"),
        median_of(samples, "peak_rss_kb") / 1024.0,
        allocs_per_kpkt,
        s0.num("owd_p90_ms"),
        s0.num("goodput_mbps"),
    ];
    metrics::end_to_end()
        .into_iter()
        .map(|m| m.name)
        .zip(values)
        .collect()
}

/// The per-layer metrics of one workload: `untraced` rounds for the
/// baseline, the `traced` sample, the 2-shard sample where there is one,
/// and the driver values. Every catalogue name is present; what does not
/// apply to the workload (or was not measured) reads 0.
pub fn per_layer(
    untraced: &[Value],
    traced: &Value,
    sharded: Option<&Value>,
    driver_values: &[(&'static str, f64)],
) -> Values {
    let mut got: BTreeMap<String, f64> = BTreeMap::new();
    let run_s = median_of(untraced, "run_s");
    let traced_ns = traced.num("run_s") * 1e9;
    let packets = traced.num("packets").max(1.0);
    let div = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    for c in traced.arr("cycles") {
        let label = c.get("label").and_then(Value::as_str).unwrap_or("");
        let (ns, calls) = (c.num("nanos"), c.num("calls"));
        got.insert(
            format!("harness.{label}.share_pct"),
            div(ns * 100.0, traced_ns),
        );
        got.insert(format!("harness.{label}.ns_per_call"), div(ns, calls));
        got.insert(format!("harness.{label}.calls_per_pkt"), calls / packets);
    }
    let spans = trace::spans_of(traced);
    if let Some(run) = trace::find(&spans, "run") {
        let own = trace::self_ns(&spans, run.id) as f64;
        got.insert(
            "harness.untracked.share_pct".into(),
            div(own * 100.0, run.dur_ns() as f64),
        );
    }

    let events = traced.num("events");
    got.insert("harness.world.events".into(), events);
    got.insert("harness.world.events_per_pkt".into(), events / packets);
    got.insert(
        "harness.world.ns_per_event".into(),
        div(run_s * 1e9, events),
    );
    got.insert("harness.world.events_per_s".into(), div(events, run_s));
    got.insert("harness.world.new_ms".into(), traced.num("new_ms"));
    got.insert(
        "harness.trace.overhead_pct".into(),
        div((traced.num("run_s") - run_s) * 100.0, run_s),
    );
    got.insert(
        "harness.report.fingerprint_ms".into(),
        traced.num("fingerprint_ms"),
    );

    if let Some(Value::Obj(layer)) = traced.get("layer") {
        for (k, v) in layer {
            got.insert(k.clone(), v.as_f64().unwrap_or(0.0));
        }
    }

    if let Some(s) = sharded {
        let shards = s.arr("shards");
        let busy: Vec<f64> = shards.iter().map(|x| x.num("busy_ns") / 1e9).collect();
        let busy_max = busy.iter().copied().fold(0.0, f64::max);
        let idle = 1.0 - div(busy.iter().sum::<f64>(), busy_max * busy.len() as f64);
        got.insert("harness.shard.speedup_2".into(), div(run_s, s.num("run_s")));
        got.insert("harness.shard.busy_max_s".into(), busy_max);
        got.insert("harness.shard.idle_pct".into(), idle * 100.0);
        got.insert(
            "harness.shard.mailed".into(),
            shards.iter().map(|x| x.num("mailed")).sum(),
        );
        got.insert(
            "harness.shard.drain_ms".into(),
            shards.iter().map(|x| x.num("drain_ns")).sum::<f64>() / 1e6,
        );
        got.insert(
            "harness.shard.nonbusy_s".into(),
            (s.num("run_s") - busy_max).max(0.0),
        );
    }

    for &(name, v) in driver_values {
        got.insert(name.to_string(), v);
    }
    metrics::per_layer()
        .into_iter()
        .map(|m| {
            let v = got.get(&m.name).copied().unwrap_or(0.0);
            (m.name, v)
        })
        .collect()
}

/// The contract's result object: `correct`, `attempted`, `failed`, and
/// `metrics` keyed by name with value and unit. A failed operation
/// leaves `metrics` empty rather than partial.
pub fn result_line(catalogue: &[Metric], values: &Values, attempted: u64, failed: u64) -> Value {
    let all_numbers = values.iter().all(|(_, v)| v.is_finite());
    let correct = failed == 0 && all_numbers && values.len() == catalogue.len();
    let metrics = if correct {
        Value::Obj(
            catalogue
                .iter()
                .zip(values)
                .map(|(m, (name, v))| {
                    debug_assert_eq!(&m.name, name);
                    let entry =
                        Value::obj([("value", Value::from(*v)), ("unit", Value::from(m.unit))]);
                    (name.clone(), entry)
                })
                .collect(),
        )
    } else {
        Value::Obj(Vec::new())
    };
    Value::obj([
        ("correct", Value::from(correct)),
        ("attempted", Value::from(attempted.max(1))),
        ("failed", Value::from(failed)),
        ("metrics", metrics),
    ])
}

/// Everything measured for one workload in one set of runs.
#[derive(Default)]
struct Measured {
    warmup: Vec<Value>,
    untraced: Vec<Value>,
    traced: Option<Value>,
    sharded: Option<Value>,
}

pub struct Suite {
    exe: PathBuf,
    out_dir: PathBuf,
    seed: u64,
    tracer: Tracer,
    attempted: u64,
    failed: u64,
    started: Instant,
}

impl Suite {
    pub fn new(exe: PathBuf, out_dir: PathBuf, seed: u64) -> Suite {
        Suite {
            exe,
            out_dir,
            seed,
            tracer: Tracer::new(),
            attempted: 0,
            failed: 0,
            started: Instant::now(),
        }
    }

    fn fail(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("FAILED operation: {what}");
    }

    /// One child run = one operation. `None` (and a failed operation)
    /// when the child panics, exits non-zero or prints no record.
    fn sample(&mut self, w: &Workload, trace: bool, shards: usize) -> Option<Value> {
        self.attempted += 1;
        self.tracer.enter(&format!("sample:{}", w.name));
        let output = Command::new(&self.exe)
            .args(["--child", w.name])
            .args(["--seed", &self.seed.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .args(["--shards", &shards.to_string()])
            // One busy thread per sample unless a shard count asks for more.
            .env_remove("L4SPAN_THREADS")
            .output();
        let parsed = match output {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout)
                .lines()
                .last()
                .ok_or_else(|| "no output".to_string())
                .and_then(Value::parse),
            Ok(o) => Err(format!(
                "{}: {}",
                o.status,
                String::from_utf8_lossy(&o.stderr).trim()
            )),
            Err(e) => Err(format!("spawn: {e}")),
        };
        let sample = match parsed {
            Ok(v) => {
                self.tracer.adopt(&trace::spans_of(&v));
                Some(v)
            }
            Err(e) => {
                self.fail(&format!("{} child: {e}", w.name));
                None
            }
        };
        self.tracer.exit();
        sample
    }

    /// The traced pass of one workload: the `measure_cycles` run, and
    /// for the metro world the same scenario through two shards.
    fn traced_pass(&mut self, w: &Workload, m: &mut Measured) {
        m.traced = self.sample(w, true, 1);
        if w.name == "metro_1000ue_50cell" {
            m.sharded = self.sample(w, false, 2);
        }
    }

    /// Run the output checks of one workload; every breach is a failed
    /// operation. Returns whether the workload is clean.
    fn check(&mut self, w: &Workload, m: &Measured) -> bool {
        let all: Vec<&Value> = (m.warmup.iter().chain(&m.untraced))
            .chain(&m.traced) // traced = untraced fingerprint
            .chain(&m.sharded) // 2-shard = 1-shard fingerprint
            .collect();
        let mut errs = check_samples(&all);
        errs.extend(m.traced.iter().flat_map(check_cycle_labels));
        for e in &errs {
            self.fail(&format!("{}: {e}", w.name));
        }
        errs.is_empty() && !m.untraced.is_empty()
    }

    fn run_drivers(&mut self) -> Vec<(&'static str, f64)> {
        self.tracer.enter("drivers");
        let out = drivers::run_all(Budget::FULL, self.seed);
        self.tracer.exit();
        self.attempted += out.attempted;
        self.failed += out.failed;
        if out.failed > 0 {
            eprintln!("FAILED operation: {} driver batches", out.failed);
        }
        out.values
    }

    fn write_out(&self, file: &str, doc: &Value) -> Result<(), String> {
        std::fs::create_dir_all(&self.out_dir)
            .and_then(|()| std::fs::write(self.out_dir.join(file), doc.to_json_pretty()))
            .map_err(|e| format!("writing {}: {e}", self.out_dir.join(file).display()))
    }

    fn write_trace(&self) -> Result<(), String> {
        let spans = Value::Arr(self.tracer.spans().iter().map(Span::to_value).collect());
        self.write_out("trace.json", &Value::obj([("spans", spans)]))
    }

    /// One contract run: measure `w` for about `seconds`, print the
    /// result object as the last line.
    pub fn contract_run(
        &mut self,
        w: &Workload,
        seconds: u64,
        trace: bool,
    ) -> Result<bool, String> {
        let mut m = Measured::default();
        let (catalogue, values) = if trace {
            m.untraced.extend(self.sample(w, false, 1));
            self.traced_pass(w, &mut m);
            let driver_values = self.run_drivers();
            let ok = self.check(w, &m) && m.traced.is_some();
            let values = if ok {
                per_layer(
                    &m.untraced,
                    m.traced.as_ref().expect("checked"),
                    m.sharded.as_ref(),
                    &driver_values,
                )
            } else {
                Values::new()
            };
            (metrics::per_layer(), values)
        } else {
            // Whole rounds while one more still fits: cut rounds, never durations.
            let mut longest = 0.0f64;
            loop {
                let t0 = self.started.elapsed().as_secs_f64();
                m.untraced.extend(self.sample(w, false, 1));
                let now = self.started.elapsed().as_secs_f64();
                longest = longest.max(now - t0);
                if self.failed > 0 || now + longest > seconds as f64 {
                    break;
                }
            }
            let values = if self.check(w, &m) {
                end_to_end(&m.untraced)
            } else {
                Values::new()
            };
            (metrics::end_to_end(), values)
        };
        self.write_trace()?;
        print_table(&catalogue, &values, m.untraced.len());
        println!(
            "{}",
            result_line(&catalogue, &values, self.attempted, self.failed).to_json()
        );
        Ok(self.failed == 0)
    }

    /// Rounds of every selected workload, visited round-robin so slow
    /// drift of the machine spreads over all of them.
    fn rounds(&mut self, ws: &[&'static Workload], n: usize) -> Vec<Vec<Value>> {
        let mut per: Vec<Vec<Value>> = vec![Vec::new(); ws.len()];
        for r in 0..n {
            for (i, w) in ws.iter().enumerate() {
                eprintln!(
                    "[{:6.1}s] round {}/{n} {}",
                    self.started.elapsed().as_secs_f64(),
                    r + 1,
                    w.name
                );
                per[i].extend(self.sample(w, false, 1));
            }
        }
        per
    }

    fn selected(only: Option<&'static Workload>) -> Vec<&'static Workload> {
        match only {
            Some(w) => vec![w],
            None => WORKLOADS.iter().collect(),
        }
    }

    fn environment(&self) -> Value {
        let cmd = |prog: &str, args: &[&str]| {
            Command::new(prog)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .unwrap_or_else(|| "unknown".into())
        };
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        Value::obj([
            ("nproc", Value::from(nproc as u64)),
            ("rustc", cmd("rustc", &["--version"]).into()),
            ("commit", cmd("git", &["rev-parse", "HEAD"]).into()),
            ("seed", self.seed.into()),
        ])
    }

    /// The whole suite.
    pub fn full(&mut self, only: Option<&'static Workload>, rounds: usize) -> Result<bool, String> {
        let ws = Suite::selected(only);
        let mut measured: Vec<Measured> = Vec::new();
        let warmups = self.rounds(&ws, 1);
        let timed = self.rounds(&ws, rounds);
        for (warmup, untraced) in warmups.into_iter().zip(timed) {
            measured.push(Measured {
                warmup,
                untraced,
                ..Measured::default()
            });
        }
        for (w, m) in ws.iter().zip(&mut measured) {
            eprintln!(
                "[{:6.1}s] traced pass {}",
                self.started.elapsed().as_secs_f64(),
                w.name
            );
            self.traced_pass(w, m);
        }
        eprintln!(
            "[{:6.1}s] layer drivers",
            self.started.elapsed().as_secs_f64()
        );
        let driver_values = self.run_drivers();

        let e2e_cat = metrics::end_to_end();
        let layer_cat = metrics::per_layer();
        let mut results = Vec::new();
        let mut p50_goodput: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
        for (w, m) in ws.iter().zip(&measured) {
            println!(
                "\n== {} ({} simulated s, seed {}) ==",
                w.name, w.sim_s, self.seed
            );
            if !(self.check(w, m) && m.traced.is_some()) {
                println!("failed operations: no numbers reported for this workload");
                results.push(Value::obj([
                    ("workload", Value::from(w.name)),
                    ("failed", true.into()),
                ]));
                continue;
            }
            let traced = m.traced.as_ref().expect("checked");
            let e2e = end_to_end(&m.untraced);
            let layer = per_layer(&m.untraced, traced, m.sharded.as_ref(), &driver_values);
            print_table(&e2e_cat, &e2e, m.untraced.len());
            print_table(&layer_cat, &layer, 1);
            println!(
                "delay tail: p{} = {:.3} ms over {} samples (highest percentile with >= 10 samples beyond it)",
                traced.num("owd_tail_pct"),
                traced.num("owd_tail_ms"),
                traced.num("packets"),
            );
            let named = |vals: &Values, name: &str| {
                vals.iter().find(|(n, _)| n == name).map_or(0.0, |x| x.1)
            };
            p50_goodput.insert(
                w.name,
                (named(&layer, "owd_p50_ms"), named(&e2e, "goodput_mbps")),
            );
            let as_obj =
                |vals: &Values| Value::obj(vals.iter().map(|(n, v)| (n.as_str(), Value::from(*v))));
            results.push(Value::obj([
                ("workload", Value::from(w.name)),
                ("rounds", Value::from(m.untraced.len() as u64)),
                (
                    "digest",
                    traced.get("digest").cloned().unwrap_or(Value::Null),
                ),
                ("end_to_end", as_obj(&e2e)),
                ("per_layer", as_obj(&layer)),
            ]));
        }

        // The only accuracy figure: the model is unvalidated against
        // hardware, so this is printed beside the paper's claim, no more.
        if let (Some(l4s), Some(bare)) = (
            p50_goodput.get("cell_l4s_16ue"),
            p50_goodput.get("cell_bare_16ue"),
        ) {
            println!(
                "\ninformational: owd_cut_pct = {:.2} % (paper: \"up to 98 %\"); goodput {:.2} vs {:.2} Mbit/s with/without L4Span",
                (1.0 - l4s.0 / bare.0) * 100.0,
                l4s.1,
                bare.1
            );
        }
        let wall = self.started.elapsed().as_secs_f64();
        println!(
            "\noperations attempted {} failed {}; total wall {wall:.1} s",
            self.attempted, self.failed
        );
        self.write_out(
            "results.json",
            &Value::obj([
                ("environment", self.environment()),
                ("attempted", self.attempted.into()),
                ("failed", self.failed.into()),
                ("total_wall_s", wall.into()),
                ("workloads", Value::Arr(results)),
            ]),
        )?;
        self.write_trace()?;
        Ok(self.failed == 0)
    }

    /// Two complete end-to-end sets of the same build, back to back;
    /// every metric's relative difference against its bound.
    pub fn aa(&mut self, only: Option<&'static Workload>, rounds: usize) -> Result<bool, String> {
        let ws = Suite::selected(only);
        self.rounds(&ws, 1); // warm-up, discarded
        let sets = [self.rounds(&ws, rounds), self.rounds(&ws, rounds)];
        // The end-to-end metrics, then the issue's other two delay
        // quantiles: exact at a fixed seed, so compared here although
        // the descriptor cannot bound them across seeds.
        const EXTRA: [&str; 2] = ["owd_p50_ms", "owd_p99_ms"];
        let extra = |m: &Metric| EXTRA.contains(&m.name.as_str());
        let cat: Vec<Metric> = (metrics::end_to_end().into_iter())
            .chain(metrics::per_layer().into_iter().filter(extra))
            .collect();
        let values = |set: &[Value]| {
            let layer = |n: &str| set[0].get("layer").map_or(0.0, |l| l.num(n));
            let mut v = end_to_end(set);
            v.extend(EXTRA.map(|n| (n.to_string(), layer(n))));
            v
        };
        let mut rows = Vec::new();
        let mut breaches = 0u64;
        println!(
            "{:<22} {:<20} {:>14} {:>14} {:>9} {:>7}",
            "workload", "metric", "A", "B", "diff", "bound"
        );
        for (i, w) in ws.iter().enumerate() {
            let both: Vec<&Value> = sets[0][i].iter().chain(&sets[1][i]).collect();
            let errs = check_samples(&both);
            for e in &errs {
                self.fail(&format!("{}: {e}", w.name));
            }
            if !errs.is_empty() || sets[0][i].is_empty() || sets[1][i].is_empty() {
                continue;
            }
            let (a, b) = (values(&sets[0][i]), values(&sets[1][i]));
            for ((m, (_, a)), (_, b)) in cat.iter().zip(&a).zip(&b) {
                let worse = match m.better {
                    Better::Lower => b - a,
                    Better::Higher => a - b,
                };
                let rel = if *a != 0.0 { worse / a.abs() } else { 0.0 };
                let bound = match (m.kind, m.name.as_str()) {
                    (Kind::Host, "setup_s") => m.bound.expect("setup_s has a bound"),
                    (Kind::Host, _) => metrics::AA_HOST_BOUND,
                    (Kind::Simulated | Kind::Exact, _) => 0.0,
                };
                // Set-up below the clock's comfort zone: 2 ms of slack.
                let breach = rel.abs() > bound && !(m.name == "setup_s" && (b - a).abs() <= 0.002);
                breaches += u64::from(breach);
                println!(
                    "{:<22} {:<20} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%{}",
                    w.name,
                    m.name,
                    a,
                    b,
                    rel * 100.0,
                    bound * 100.0,
                    if breach { "  BREACH" } else { "" }
                );
                rows.push(Value::obj([
                    ("workload", Value::from(w.name)),
                    ("metric", m.name.as_str().into()),
                    ("a", (*a).into()),
                    ("b", (*b).into()),
                    ("rel_diff", rel.into()),
                    ("bound", bound.into()),
                    ("breach", breach.into()),
                ]));
            }
        }
        let wall = self.started.elapsed().as_secs_f64();
        println!(
            "\nbreaches {breaches}; operations attempted {} failed {}; total wall {wall:.1} s",
            self.attempted, self.failed
        );
        self.write_out(
            "aa.json",
            &Value::obj([
                ("environment", self.environment()),
                ("rounds_per_set", Value::from(rounds as u64)),
                ("breaches", breaches.into()),
                ("failed", self.failed.into()),
                ("rows", Value::Arr(rows)),
            ]),
        )?;
        Ok(breaches == 0 && self.failed == 0)
    }
}

/// A value for the tables: whole numbers as such, everything else to
/// six significant digits (set-up times are tens of microseconds).
fn show(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        let digits = 5 - v.abs().log10().floor().clamp(-12.0, 5.0) as i32;
        format!("{v:.prec$}", prec = digits.max(0) as usize)
    }
}

/// One line per metric: name, value, unit, kind, and for end-to-end
/// metrics the bound and the number of timed rounds behind the median.
fn print_table(catalogue: &[Metric], values: &Values, n: usize) {
    for (m, (_, v)) in catalogue.iter().zip(values) {
        let bound = m.bound.map_or(String::new(), |b| {
            format!("  bound {:.0} %  n={n}", b * 100.0)
        });
        println!(
            "{:<36} {:>16} {:<7} {:<9}{bound}",
            m.name,
            show(*v),
            m.unit,
            m.kind.as_str()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::child::{run_sample, Job};

    /// Every workload at one simulated second and every driver for one
    /// short batch, through the same aggregation the measured runs use;
    /// the emitted result objects must carry exactly the catalogue.
    #[test]
    fn smoke_every_workload_and_driver_emits_a_valid_document() {
        let sorted = |labels: &[&'static str]| {
            let mut v = labels.to_vec();
            v.sort_unstable();
            v
        };
        assert_eq!(
            sorted(&metrics::CYCLE_LABELS),
            sorted(l4span_harness::world::CYCLE_LABELS),
            "the catalogue's copy of the harness labels is stale"
        );
        let allocs = || crate::ALLOC.count();
        let driver_out = drivers::run_all(Budget::SMOKE, 7);
        assert_eq!(driver_out.failed, 0);
        for w in &WORKLOADS {
            let job = |trace, shards| Job {
                seed: 7,
                sim_s: 1,
                trace,
                shards,
            };
            // Through text, as the parent would read them.
            let reparse = |v: Value| Value::parse(&v.to_json()).unwrap();
            let untraced = vec![
                reparse(run_sample(w, job(false, 1), &allocs)),
                reparse(run_sample(w, job(false, 1), &allocs)),
            ];
            let traced = reparse(run_sample(w, job(true, 1), &allocs));
            let sharded = (w.name == "metro_1000ue_50cell")
                .then(|| reparse(run_sample(w, job(false, 2), &allocs)));
            let all: Vec<&Value> = (untraced.iter().chain([&traced])).chain(&sharded).collect();
            assert_eq!(check_samples(&all), Vec::<String>::new(), "{}", w.name);
            assert_eq!(check_cycle_labels(&traced), Vec::<String>::new());

            let e2e = end_to_end(&untraced);
            let line =
                Value::parse(&result_line(&metrics::end_to_end(), &e2e, 3, 0).to_json()).unwrap();
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)), "{}", w.name);
            for m in metrics::end_to_end() {
                let v = line
                    .get("metrics")
                    .unwrap()
                    .get(&m.name)
                    .unwrap_or_else(|| panic!("{} missing", m.name));
                assert!(
                    v.num("value") > 0.0,
                    "{} {} must never be 0",
                    w.name,
                    m.name
                );
                assert_eq!(v.get("unit").unwrap().as_str(), Some(m.unit));
            }

            let layer = per_layer(&untraced, &traced, sharded.as_ref(), &driver_out.values);
            let line = result_line(&metrics::per_layer(), &layer, 4, 0);
            let Some(Value::Obj(got)) = line.get("metrics") else {
                panic!()
            };
            let names: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
            let want: Vec<String> = metrics::per_layer().into_iter().map(|m| m.name).collect();
            assert_eq!(names, want);
            let get = |n: &str| layer.iter().find(|(k, _)| k == n).unwrap().1;
            assert!(get("harness.world.events") > 0.0);
            assert!(get("harness.gnb.share_pct") > 0.0 && get("harness.untracked.share_pct") > 0.0);
            assert!(get("sim.queue.hold_ns_d4k") > 0.0 && get("ran.ue.on_tb_ns") > 0.0);
            assert_eq!(
                get("harness.shard.mailed") > 0.0,
                sharded.is_some(),
                "{}",
                w.name
            );
            // The child's own spans arrive with parent links.
            let spans = trace::spans_of(&traced);
            let root = trace::find(&spans, "child").unwrap();
            for name in ["scenario", "world_new", "run", "summarise"] {
                assert_eq!(trace::find(&spans, name).unwrap().parent, root.id, "{name}");
            }
            assert_eq!(
                trace::find(&spans, "harness.gnb").unwrap().parent,
                trace::find(&spans, "run").unwrap().id
            );
        }
    }

    #[test]
    fn a_failed_operation_reports_no_numbers() {
        let values: Values = metrics::end_to_end()
            .into_iter()
            .map(|m| (m.name, 1.0))
            .collect();
        let ok = result_line(&metrics::end_to_end(), &values, 5, 0);
        assert_eq!(ok.get("correct"), Some(&Value::Bool(true)));
        let bad = result_line(&metrics::end_to_end(), &values, 5, 1);
        assert_eq!(bad.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(bad.get("metrics"), Some(&Value::Obj(vec![])));
        assert_eq!(bad.num("failed"), 1.0);

        let sample = |digest: &str, packets: f64| {
            Value::obj([
                ("digest", Value::from(digest)),
                ("packets", packets.into()),
                ("goodput_mbps", 1.0.into()),
                ("fec_closed", true.into()),
            ])
        };
        let (a, b, empty) = (sample("a", 1.0), sample("b", 1.0), sample("a", 0.0));
        assert!(check_samples(&[&a, &a]).is_empty());
        assert_eq!(check_samples(&[&a, &b]).len(), 1);
        assert_eq!(check_samples(&[&empty]).len(), 1);

        let rss = |kb: u64| Value::obj([("peak_rss_kb", Value::from(kb))]);
        let errs = |s: &Value| check_samples(&[s]).len();
        assert_eq!(errs(&rss(0)), errs(&rss(4096)) + 1, "VmHWM unreadable");

        let traced = |labels: &[&str]| {
            let cycle = |l: &&str| Value::obj([("label", Value::from(*l))]);
            Value::obj([("cycles", Value::Arr(labels.iter().map(cycle).collect()))])
        };
        assert!(check_cycle_labels(&traced(&metrics::CYCLE_LABELS)).is_empty());
        let renamed: Vec<&str> = (metrics::CYCLE_LABELS.iter())
            .map(|&l| if l == "gnb" { "gnb_slot" } else { l })
            .collect();
        assert_eq!(check_cycle_labels(&traced(&renamed)).len(), 1);
        assert_eq!(
            check_cycle_labels(&traced(&metrics::CYCLE_LABELS[1..])).len(),
            1
        );
        assert_eq!(
            check_cycle_labels(&traced(&[])).len(),
            1,
            "untraced by mistake"
        );
    }
}
