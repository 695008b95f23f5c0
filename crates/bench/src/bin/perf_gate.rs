//! Simulator performance gate: runs the canonical scenarios, reports
//! wall-ms per simulated second and events per delivered packet, writes
//! `BENCH_PR12.json` at the repo root, and (with `--check`) fails when
//! the wall per simulated second of any scenario rises more than 10 %
//! above the **best prior baseline** — the minimum of the committed
//! constants and the *second-lowest* earlier-PR `BENCH_PR*.json` value
//! tracked at the repo root, so a regression can never hide behind a
//! single stale artifact and one lucky recording window can never
//! ratchet the bar below what a clean run reproduces (see
//! `gate::fold_best`). Scenarios with no prior baseline (their first
//! appearance) are explicitly skipped, not silently passed. `--check`
//! never rewrites the artifact: the recording run and the gate run are
//! separate concerns.
//!
//! `cargo run --release -p l4span-bench --bin perf_gate [--check]`
//!
//! The gate used to compare events per second. That number rises when
//! cheap stale events are added and falls when they are removed: PR 12
//! cut the event count 2–7× on every row while every wall improved, so
//! events/sec is not comparable across it and is no longer printed. The
//! wall per simulated second is the number to quote; events per
//! delivered packet says how much event-loop work a unit of simulated
//! traffic costs, independent of the machine.
//!
//! The committed `BASELINES` constants are the numbers this gate
//! produced on the reference machine. Both the table and the artifact
//! also carry each scenario's delta vs the previous PR's
//! `BENCH_PR*.json`, so the per-PR trajectory is visible at a glance.
//!
//! Sharded scenarios (the PR 8 metro world) are gated on their
//! **critical path** — the *longest* single shard's busy time per
//! simulated second, i.e. the wall the shard set takes when every shard
//! has its own core. It derives from per-shard busy clocks, so it is
//! meaningful on a single-core runner too, where the epochs execute
//! sequentially (their wall would conflate machine core count with
//! simulator speed); an epoch never runs more worker threads than the
//! machine has cores, so a busy clock does not count time its thread
//! sat descheduled. `--check` also enforces the absolute
//! `MAX_METRO_BUSY_MS_PER_SIM_S` ceiling on the metro row.

use std::time::Instant as WallInstant;

use l4span_bench::gate::{
    baseline_for, canonical_scenarios, check_scenario, delta_pct, fold_best, parse_bench_json,
    parse_bench_pr, BenchEntry, GateVerdict, CANONICAL_SECS, METRO_SECS,
};
use l4span_harness::{run_sharded, ScenarioConfig, ShardReject};

/// The PR this gate's artifact belongs to.
const PR: u32 = 12;

/// Allowed rise in wall per simulated second over the best prior
/// baseline before `--check` fails (fraction). Tightened from 30 %
/// (PR 2–5) to 10 %: the wide band let three PRs of ~5 % erosion each
/// land unchallenged.
const MAX_REGRESSION: f64 = 0.10;

/// Committed baselines: (scenario name, ms per simulated second)
/// measured on the reference machine (two-core container; a clean run
/// — the box is shared, so these sit slightly above the best observed
/// so the 10 % `--check` band absorbs scheduler noise rather than real
/// regressions). `--check` compares against the min of these and the
/// second-lowest per-scenario value across the `BENCH_PR*.json`
/// artifacts at the repo root (see `gate::fold_best`).
const BASELINES: &[(&str, f64)] = &[
    ("congested_cubic_16ue", 21.0),
    ("prague_l4span_16ue", 21.5),
    ("bbr2_mobile_8ue", 16.5),
    ("handover_2cell_cubic_4ue", 23.5),
    // The mixed interactive-apps workload (FramedVideo +
    // RequestResponse + Bulk over TCP, with per-unit QoE tracking).
    ("interactive_apps_mixed", 18.0),
    // The bidirectional-call workload (paired DL+UL video legs with
    // BSR/grant-driven uplink data and a UE-side marker).
    ("video_call_bidir", 13.0),
    // The sharded metro world. Its gated cost is the *critical path*
    // across 25 shards (see module docs), so the baseline sits in a
    // different regime than the wall-based rows.
    ("metro_1000ue_50cell", 64.0),
    // The impaired Internet path; shards are requested and refused, so
    // this row gates on the classic wall.
    ("impaired_path_prague_16ue", 22.0),
    // The bonded XR world (8 devices × 2 legs of FEC/ARQ media under
    // NADA across two cells). The gate requests 2 shards and the
    // planner must refuse — bonded legs couple the cells — so this row
    // gates on the classic wall too.
    ("bonded_xr_8ue", 18.0),
];

/// Absolute ceiling on the metro world's critical path, in busy
/// milliseconds of the longest shard per simulated second — the PR 8
/// acceptance bar (">10M aggregate events/sec on 4+ cores", on the 3.43 M
/// events the two simulated seconds took then) as a wall bound.
/// Enforced under `--check` in addition to the relative regression
/// band.
const MAX_METRO_BUSY_MS_PER_SIM_S: f64 = 170.0;

/// Committed-artifact values are one clean run's *raw* numbers, whereas
/// the `BASELINES` constants are deliberately set slightly above the
/// best observed so the `--check` band absorbs scheduler noise. Folding
/// raw artifact numbers in undiscounted would ratchet the bar tighter
/// every time a lucky fast run lands; this haircut (artifact ms ÷ 0.90)
/// restores the same headroom convention for JSON-derived baselines.
const ARTIFACT_HEADROOM: f64 = 0.90;

/// Shard-derived figures for a multi-shard row. Absent on classic rows.
struct ShardCost {
    shards: usize,
    /// Longest single shard's busy time — the critical path when every
    /// shard has its own core.
    busy_max_s: f64,
    /// `busy_max_s` in milliseconds per simulated second.
    busy_max_ms_per_sim_s: f64,
}

struct Row {
    name: &'static str,
    events: u64,
    events_per_pkt: f64,
    wall_s: f64,
    wall_ms_per_sim_s: f64,
    shard_cost: Option<ShardCost>,
    /// Why the run was time-major (`Report::shard_reject`) — printed so
    /// a scenario silently falling off the cell-major path, or losing
    /// its parallel speedup, is visible in the gate table.
    shard_reject: Option<ShardReject>,
}

impl Row {
    /// The cost the regression band gates on: the critical path for
    /// sharded rows (machine-core-count independent), the wall
    /// otherwise. `parse_bench_json` reads the same figure back.
    fn gate_ms(&self) -> f64 {
        self.shard_cost
            .as_ref()
            .map_or(self.wall_ms_per_sim_s, |s| s.busy_max_ms_per_sim_s)
    }
}

fn measure(name: &'static str, cfg: ScenarioConfig, shards: usize) -> Row {
    let sim_secs = cfg.duration.as_secs_f64();
    let t0 = WallInstant::now();
    let report = run_sharded(cfg, shards);
    let wall_s = t0.elapsed().as_secs_f64();
    let shard_cost = (report.shards.len() > 1).then(|| {
        let busy_max_ns = report.shards.iter().map(|s| s.busy_ns).max().unwrap_or(0);
        let busy_max_s = busy_max_ns as f64 / 1e9;
        ShardCost {
            shards: report.shards.len(),
            busy_max_s,
            busy_max_ms_per_sim_s: busy_max_s * 1e3 / sim_secs,
        }
    });
    Row {
        name,
        events: report.events,
        events_per_pkt: report.events_per_packet(),
        wall_s,
        wall_ms_per_sim_s: wall_s * 1e3 / sim_secs,
        shard_cost,
        shard_reject: report.shard_reject,
    }
}

/// Read every `BENCH_PR*.json` at the repo root as `(pr, entries)`.
fn read_bench_artifacts(root: &std::path::Path) -> Vec<(Option<u32>, Vec<BenchEntry>)> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root) {
        for e in entries.flatten() {
            let fname = e.file_name();
            let fname = fname.to_string_lossy();
            if !(fname.starts_with("BENCH_PR") && fname.ends_with(".json")) {
                continue;
            }
            if let Ok(text) = std::fs::read_to_string(e.path()) {
                out.push((parse_bench_pr(&text), parse_bench_json(&text)));
            }
        }
    }
    out
}

fn write_json(
    rows: &[Row],
    prev: &[(String, f64)],
    prev_pr: Option<u32>,
    path: &std::path::Path,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = write!(s, "{{\n  \"pr\": {PR},\n  \"sim_secs_per_scenario\": {CANONICAL_SECS}");
    if let Some(p) = prev_pr {
        let _ = write!(s, ",\n  \"delta_vs_pr\": {p}");
    }
    s.push_str(",\n  \"scenarios\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"events\": {}, \"events_per_pkt\": {:.2}, \
             \"wall_s\": {:.3}, \"wall_ms_per_sim_s\": {:.1}",
            r.name, r.events, r.events_per_pkt, r.wall_s, r.wall_ms_per_sim_s,
        );
        // Sharded rows append their critical path; `parse_bench_json`
        // folds `wall_ms_per_sim_s × busy_max_s / wall_s` as this row's
        // baseline.
        if let Some(sc) = &r.shard_cost {
            let _ = write!(
                s,
                ", \"shards\": {}, \"busy_max_s\": {:.3}, \"busy_max_ms_per_sim_s\": {:.1}",
                sc.shards, sc.busy_max_s, sc.busy_max_ms_per_sim_s,
            );
        }
        if let Some(d) = delta_pct(baseline_for(prev, r.name), r.gate_ms()) {
            let _ = write!(s, ", \"delta_vs_prev_pct\": {d:.1}");
        }
        s.push('}');
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s)
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    // BENCH_PR*.json live at the repo root regardless of the cwd the
    // gate was launched from.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    // This PR's own artifact (a previous local run) must not enter the
    // baseline fold: checking a run against its own predecessor would
    // ratchet the bar tighter on every lucky fast run.
    let artifacts: Vec<_> = read_bench_artifacts(&root)
        .into_iter()
        .filter(|(pr, _)| pr.is_none_or(|p| p < PR))
        .collect();
    let best = fold_best(
        BASELINES,
        &artifacts.iter().map(|(_, e)| e.clone()).collect::<Vec<_>>(),
        ARTIFACT_HEADROOM,
    );
    // The previous PR's artifact (highest PR number below this one)
    // anchors the per-scenario delta column.
    let prev_pr = artifacts
        .iter()
        .filter_map(|(pr, _)| *pr)
        .filter(|&p| p < PR)
        .max();
    let prev: Vec<(String, f64)> = prev_pr
        .and_then(|p| {
            artifacts
                .iter()
                .find(|(pr, _)| *pr == Some(p))
                .map(|(_, e)| e.iter().map(|b| (b.name.clone(), b.ms_per_sim_s)).collect())
        })
        .unwrap_or_default();

    println!(
        "perf_gate: {CANONICAL_SECS} simulated seconds per scenario \
         ({METRO_SECS} for the metro world)\n"
    );
    println!(
        "{:<26} {:>12} {:>9} {:>9} {:>12} {:>10}",
        "scenario", "events", "ev/pkt", "wall s", "ms/sim-s", "vs prev PR"
    );

    // In `--check` mode a scenario that lands over the bar is re-run
    // (best of 3) before being declared a regression: shared CI runners
    // see noisy-neighbor slowdowns that a real code regression survives
    // but a scheduling hiccup does not.
    let mut rows: Vec<Row> = Vec::new();
    for c in canonical_scenarios(CANONICAL_SECS) {
        let mut best_row = measure(c.name, c.cfg.clone(), c.shards);
        if check {
            if let Some(base) = baseline_for(&best, c.name) {
                let bar = base * (1.0 + MAX_REGRESSION);
                for _ in 0..2 {
                    if best_row.gate_ms() <= bar {
                        break;
                    }
                    let retry = measure(c.name, c.cfg.clone(), c.shards);
                    if retry.gate_ms() < best_row.gate_ms() {
                        best_row = retry;
                    }
                }
            }
        }
        rows.push(best_row);
    }

    let mut failed = Vec::new();
    for r in &rows {
        let delta = delta_pct(baseline_for(&prev, r.name), r.gate_ms())
            .map(|d| format!("{d:+.1}%"))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<26} {:>12} {:>9.2} {:>9.2} {:>12.1} {:>10}",
            r.name, r.events, r.events_per_pkt, r.wall_s, r.wall_ms_per_sim_s, delta
        );
        if let Some(sc) = &r.shard_cost {
            println!(
                "  └ {} shards: critical path {:.1} ms/sim-s \
                 (longest shard busy {:.2} s) — the gated figure",
                sc.shards, sc.busy_max_ms_per_sim_s, sc.busy_max_s,
            );
        }
        if let Some(why) = r.shard_reject {
            println!("  └ time-major, one queue ({why})");
        }
        if check {
            match check_scenario(&best, r.name, r.gate_ms(), MAX_REGRESSION) {
                GateVerdict::Pass => {}
                GateVerdict::NoBaseline => {
                    println!(
                        "  (no prior baseline for {} — first appearance, check skipped)",
                        r.name
                    );
                }
                GateVerdict::Fail { bar, baseline } => {
                    failed.push(format!(
                        "{}: {:.1} ms per simulated second is above the {:.0}% bar {:.1} \
                         (best prior baseline {:.1}, best of 3)",
                        r.name,
                        r.gate_ms(),
                        MAX_REGRESSION * 100.0,
                        bar,
                        baseline
                    ));
                }
            }
            if let Some(sc) = &r.shard_cost {
                if r.name == "metro_1000ue_50cell"
                    && sc.busy_max_ms_per_sim_s > MAX_METRO_BUSY_MS_PER_SIM_S
                {
                    failed.push(format!(
                        "{}: critical path {:.1} ms per simulated second is above \
                         the absolute {:.0} ceiling",
                        r.name, sc.busy_max_ms_per_sim_s, MAX_METRO_BUSY_MS_PER_SIM_S
                    ));
                }
            }
        }
    }

    if check {
        // A gate check must not overwrite the recorded artifact with
        // whatever (possibly retried-under-noise) numbers it measured.
        println!("\ncheck mode: BENCH_PR{PR}.json left untouched");
    } else {
        let path = root.join(format!("BENCH_PR{PR}.json"));
        write_json(&rows, &prev, prev_pr, &path).expect("write BENCH_PR json");
        println!("\nwrote {}", path.display());
    }

    if !failed.is_empty() {
        for f in &failed {
            eprintln!("PERF REGRESSION: {f}");
        }
        std::process::exit(1);
    }
}
