//! The metric catalogue: every name the benchmark prints, with unit,
//! kind, direction and (end to end) regression bound. `BENCHMARK.json`
//! is generated from here, and later issues refer to these names.

use crate::json::Value;
use crate::workloads::WORKLOADS;

/// Where a number comes from: what the simulator costs, what the
/// modelled RAN does, or a count that repeats exactly for a fixed seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time or memory — noisy, reported as a median.
    Host,
    /// Simulated statistic — exact for a fixed seed.
    Simulated,
    /// Count made by the program — exact for a fixed seed.
    Exact,
}

impl Kind {
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Simulated => "simulated",
            Kind::Exact => "exact",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue. `bound` is `Some` for end-to-end
/// metrics only: the share of the parent's median by which the metric
/// may worsen before a change counts as a regression.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub kind: Kind,
    pub better: Better,
    pub bound: Option<f64>,
}

fn m(name: impl Into<String>, unit: &'static str, kind: Kind, better: Better) -> Metric {
    Metric {
        name: name.into(),
        unit,
        kind,
        better,
        bound: None,
    }
}

/// `--aa` compares two sets of one build at one seed, interleaved in
/// one session, so it holds host metrics to this tighter bound (the
/// exact and simulated metrics must not differ at all).
pub const AA_HOST_BOUND: f64 = 0.10;

/// Seconds one contract run measures (`run_seconds` in `BENCHMARK.json`):
/// room for three whole rounds of the slowest workload.
pub const RUN_SECONDS: u64 = 20;

/// The end-to-end metrics, per workload.
///
/// The bounds are not the issue's fixed-seed ones (wall and RSS 10 %,
/// allocations 1 %, delay 5 %, goodput 2 %); `--aa` holds those. The
/// builder's contract has the acceptance driver run every workload ten
/// times, *each time with another `--seed`*, take each metric's
/// inter-quartile distance as a share of its median, and refuse the
/// benchmark if that spread exceeds the metric's bound (it asks for a
/// third of the bound); every metric is reported on every workload under
/// one bound of at most 25 %. So a bound is three times the widest
/// cross-seed spread measured on any workload, rounded up to a step of
/// 5 % and cut at the cap: host time drifts 5-14 % over the minutes ten
/// runs take on the shared box (the seed moves the event count by only
/// 1 %), and on the uplink-XR workload the seed moves `VmHWM` by 14 %,
/// the allocation ratio by 1.4 %, goodput by 1.6 % and the delay's 90th
/// percentile by 5.9 %. README.md has the measurements.
pub fn end_to_end() -> Vec<Metric> {
    use Better::*;
    use Kind::*;
    let e = |name, unit, kind, better, bound| Metric {
        bound: Some(bound),
        ..m(name, unit, kind, better)
    };
    vec![
        e("wall_ms_per_sim_s", "ms", Host, Lower, 0.25),
        e("setup_s", "s", Host, Lower, 0.25),
        e("peak_rss_mb", "MB", Host, Lower, 0.25),
        e("allocs_per_kpkt", "count", Exact, Lower, 0.05),
        e("owd_p90_ms", "ms", Simulated, Lower, 0.20),
        e("goodput_mbps", "Mbit/s", Simulated, Higher, 0.05),
    ]
}

/// The harness's `CycleScope` labels, in the order the tables print
/// them. The metric names below are fixed by this list, so it is a copy
/// of `l4span_harness::world::CYCLE_LABELS`; a traced run whose labels
/// differ from it is a failed operation (`suite::check_cycle_labels`).
pub const CYCLE_LABELS: [&str; 8] = [
    "event_queue",
    "gnb",
    "marker",
    "ue_stack",
    "ul_control",
    "wired_core",
    "transport",
    "metrics",
];

/// The per-layer metrics. Layers are the crates; the prefix names one.
pub fn per_layer() -> Vec<Metric> {
    use Better::*;
    use Kind::*;
    let mut v = Vec::new();
    // Traced run: the harness's own attribution, read as it is.
    for label in CYCLE_LABELS {
        v.push(m(format!("harness.{label}.share_pct"), "%", Host, Lower));
        v.push(m(format!("harness.{label}.ns_per_call"), "ns", Host, Lower));
        v.push(m(
            format!("harness.{label}.calls_per_pkt"),
            "count",
            Exact,
            Lower,
        ));
    }
    v.push(m("harness.untracked.share_pct", "%", Host, Lower));
    // Untraced rounds.
    v.push(m("harness.world.events", "count", Exact, Lower));
    v.push(m("harness.world.events_per_pkt", "count", Exact, Lower));
    v.push(m("harness.world.ns_per_event", "ns", Host, Lower));
    v.push(m("harness.world.events_per_s", "1/s", Host, Higher));
    // Benchmark-owned spans of the traced run.
    v.push(m("harness.world.new_ms", "ms", Host, Lower));
    v.push(m("harness.trace.overhead_pct", "%", Host, Lower));
    v.push(m("harness.report.fingerprint_ms", "ms", Host, Lower));
    // Simulated statistics out of the `Report`. The two delay quantiles
    // are layer metrics, not end-to-end ones, because across seeds the
    // median sits on a cliff of the bimodal uplink-XR delay distribution
    // and the 99th on BBRv2's probe episodes: no bound <= 25 % holds.
    v.push(m("owd_p50_ms", "ms", Simulated, Lower));
    v.push(m("owd_p99_ms", "ms", Simulated, Lower));
    v.push(m("harness.delay.queuing_ms", "ms", Simulated, Lower));
    v.push(m("harness.delay.scheduling_ms", "ms", Simulated, Lower));
    v.push(m("harness.app.frame_miss_pct", "%", Simulated, Lower));
    v.push(m("harness.bond.join_flushed", "count", Exact, Lower));
    v.push(m("cc.fec.repaired_pct", "%", Simulated, Lower));
    v.push(m("cc.fec.abandoned_pct", "%", Simulated, Lower));
    // Metro again through `run_sharded(cfg, 2)`; diagnostic only.
    v.push(m("harness.shard.speedup_2", "x", Host, Higher));
    v.push(m("harness.shard.busy_max_s", "s", Host, Lower));
    v.push(m("harness.shard.idle_pct", "%", Host, Lower));
    v.push(m("harness.shard.mailed", "count", Exact, Lower));
    v.push(m("harness.shard.drain_ms", "ms", Host, Lower));
    v.push(m("harness.shard.nonbusy_s", "s", Host, Lower));
    // `marks_per_kpkt` is the congestion *signal*: it has no better or
    // worse direction (the contract wants one; read "lower" as "fewer").
    v.push(m("core.marker.marks_per_kpkt", "count", Exact, Lower));
    v.push(m("core.marker.memory_bytes", "B", Exact, Lower));
    v.push(m("ran.rlc.drops", "count", Exact, Lower));
    v.push(m("ran.rlc.queue_sdus_p50", "count", Simulated, Lower));
    v.push(m("ran.rlc.queue_sdus_p99", "count", Simulated, Lower));
    v.push(m("ran.harq.retx_per_kpkt", "count", Exact, Lower));
    v.push(m("ran.phy.tbs_lost", "count", Exact, Lower));
    // Layer drivers: host ns per operation unless the name says otherwise.
    for name in crate::drivers::NAMES {
        let (unit, kind) = match *name {
            n if !crate::drivers::is_exact(n) => ("ns", Host),
            n if n.ends_with("_pct") => ("%", Exact),
            _ => ("count", Exact),
        };
        v.push(m(*name, unit, kind, Lower));
    }
    v
}

/// `BENCHMARK.json`, in the shape the builder's contract prescribes.
pub fn descriptor() -> Value {
    let metric = |x: &Metric| {
        let mut pairs = vec![
            ("name", Value::from(x.name.as_str())),
            ("unit", Value::from(x.unit)),
            ("better", Value::from(x.better.as_str())),
        ];
        if let Some(b) = x.bound {
            pairs.push(("bound", b.into()));
        }
        Value::obj(pairs)
    };
    Value::obj([
        (
            "command",
            Value::Arr(vec!["bash".into(), "benchmark/run.sh".into()]),
        ),
        ("paths", Value::Arr(vec!["benchmark".into()])),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::obj([("name", Value::from(w.name)), ("why", Value::from(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Arr(per_layer().iter().map(metric).collect()),
        ),
    ])
}

/// The contract's limits on `BENCHMARK.json`, checked on a parsed
/// document (the tests run it on the generated one and on the file at
/// the repo root). Returns every violation found.
pub fn check_descriptor(doc: &Value) -> Vec<String> {
    let mut errs = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let mut name_ok = |kind: &str, v: &Value, errs: &mut Vec<String>| {
        let name = v.get("name").and_then(Value::as_str).unwrap_or("");
        if !valid_name(name) {
            errs.push(format!("{kind}: bad name {name:?}"));
        }
        if !seen.insert(name.to_string()) {
            errs.push(format!("{kind}: name {name:?} used twice"));
        }
    };
    fn keys(v: &Value) -> Vec<&str> {
        match v {
            Value::Obj(m) => m.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }
    if keys(doc)
        != [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ]
    {
        errs.push(format!("top-level keys are {:?}", keys(doc)));
    }
    let list = |k: &str| doc.arr(k);
    let range = |what: &str, n: usize, lo: usize, hi: usize, errs: &mut Vec<String>| {
        if !(lo..=hi).contains(&n) {
            errs.push(format!("{n} {what}, want {lo}..={hi}"));
        }
    };
    range("workloads", list("workloads").len(), 2, 8, &mut errs);
    range(
        "end_to_end metrics",
        list("end_to_end").len(),
        1,
        16,
        &mut errs,
    );
    range(
        "per_layer metrics",
        list("per_layer").len(),
        1,
        128,
        &mut errs,
    );
    range("paths", list("paths").len(), 1, 16, &mut errs);
    range("command words", list("command").len(), 1, 32, &mut errs);
    let secs = doc.num("run_seconds");
    if secs.fract() != 0.0 || !(1.0..=60.0).contains(&secs) {
        errs.push(format!("run_seconds {secs}"));
    }
    for w in list("workloads") {
        name_ok("workload", w, &mut errs);
        let why = w.get("why").and_then(Value::as_str).unwrap_or("");
        if keys(w) != ["name", "why"] || why.is_empty() || why.len() > 200 || why.contains('\n') {
            errs.push(format!("workload entry {}", w.to_json()));
        }
    }
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut has_setup = false;
    for (section, want) in [
        ("end_to_end", &["name", "unit", "better", "bound"][..]),
        ("per_layer", &["name", "unit", "better"][..]),
    ] {
        for x in list(section) {
            name_ok(section, x, &mut errs);
            let unit = x.get("unit").and_then(Value::as_str).unwrap_or("");
            let better = x.get("better").and_then(Value::as_str).unwrap_or("");
            if keys(x) != want || !unit_ok(unit) || !matches!(better, "lower" | "higher") {
                errs.push(format!("{section} entry {}", x.to_json()));
            }
            if section == "end_to_end" {
                let b = x.num("bound");
                if !(b > 0.0 && b <= 0.25) {
                    errs.push(format!("bound {b} of {}", x.to_json()));
                }
                has_setup |= x.get("name").and_then(Value::as_str) == Some("setup_s")
                    && unit == "s"
                    && better == "lower";
            }
        }
    }
    if !has_setup {
        errs.push("no setup_s [s, lower] end-to-end metric".into());
    }
    errs
}

/// The contract's name rule: starts with a letter or digit, then
/// `[A-Za-z0-9_.-]`, at most 64 characters.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_rule() {
        for ok in [
            "a",
            "9lives",
            "harness.event_queue.share_pct",
            "sim.queue.hold_ns_d4k",
            "a-b_c.d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            ".a",
            "_a",
            "-a",
            "a b",
            "a/b",
            "a%",
            "é",
            too_long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn catalogue_counts_and_generated_descriptor_pass_the_contract() {
        assert_eq!(WORKLOADS.len(), 5);
        assert_eq!(end_to_end().len(), 6);
        assert_eq!(per_layer().len(), 87);
        assert_eq!(crate::drivers::NAMES.len(), 34);
        let doc = descriptor();
        assert_eq!(check_descriptor(&doc), Vec::<String>::new());
        assert!(doc.to_json_pretty().len() <= 64 * 1024);
    }

    #[test]
    fn limits_are_enforced() {
        let with = |key: &str, n: usize| {
            let mut doc = descriptor();
            if let Value::Obj(m) = &mut doc {
                let slot = &mut m.iter_mut().find(|(k, _)| k == key).unwrap().1;
                let proto = slot.as_arr()[0].clone();
                *slot = Value::Arr(
                    (0..n)
                        .map(|i| {
                            let mut p = proto.clone();
                            if let Value::Obj(pm) = &mut p {
                                pm[0].1 = Value::from(format!("n{i}"));
                            }
                            p
                        })
                        .collect(),
                );
            }
            check_descriptor(&doc)
        };
        assert!(with("workloads", 8).is_empty());
        assert!(with("workloads", 9)
            .iter()
            .any(|e| e.contains("9 workloads")));
        assert!(with("workloads", 1)
            .iter()
            .any(|e| e.contains("1 workloads")));
        assert!(with("per_layer", 128).is_empty());
        assert!(with("per_layer", 129)
            .iter()
            .any(|e| e.contains("129 per_layer")));
        // 16 copies of the first end-to-end metric lose `setup_s`, nothing else.
        assert_eq!(
            with("end_to_end", 16),
            ["no setup_s [s, lower] end-to-end metric"]
        );
        assert!(with("end_to_end", 17)
            .iter()
            .any(|e| e.contains("17 end_to_end")));
    }

    #[test]
    fn committed_descriptor_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Value::parse(&text).expect("valid JSON");
        assert_eq!(check_descriptor(&doc), Vec::<String>::new());
        assert_eq!(
            doc,
            descriptor(),
            "regenerate with `benchmark/run.sh --describe > BENCHMARK.json`"
        );
    }
}
