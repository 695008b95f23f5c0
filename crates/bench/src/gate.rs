//! Shared machinery behind the perf tooling (`perf_gate`,
//! `fig_breakdown`): the canonical scenario set, `BENCH_PR*.json`
//! parsing, baseline folding, and the regression-check math.
//!
//! Everything that decides pass/fail lives here as pure functions over
//! plain data so the unit tests can exercise the threshold math,
//! best-prior-baseline selection, and missing-scenario handling without
//! running a single simulation.

use l4span_cc::WanLink;
use l4span_core::HandoverPolicy;
use l4span_harness::scenario::{
    bonded_xr_8ue, congested_cell, handover_cell, impaired_path_cell, interactive_apps_mixed,
    l4span_default, metro_1000ue_50cell, video_call_bidir, ChannelMix,
};
use l4span_harness::{ImpairmentSpec, ScenarioConfig};
use l4span_sim::Duration;

/// Simulated seconds per canonical scenario (long enough to reach
/// steady state, short enough for CI).
pub const CANONICAL_SECS: u64 = 8;

/// Shards the perf tooling runs the metro world on. The metro's UEs
/// are uniform across cells, so round-robin assignment at 25 shards
/// gives every shard exactly two cells — zero imbalance, and the
/// shortest critical path (longest single-shard busy time) the
/// aggregate rate divides by.
pub const METRO_SHARDS: usize = 25;

/// Simulated seconds for the metro canonical scenario — shorter than
/// [`CANONICAL_SECS`] because the world is two orders of magnitude
/// bigger (1000 UEs / 50 cells); two seconds covers the flow-start
/// ramp, the first mobility wave, and plenty of steady state.
pub const METRO_SECS: u64 = 2;

/// One canonical perf scenario: the config plus how many per-cell
/// shards the perf tooling runs it on (1 = the classic whole-world
/// path; `perf_gate` keeps those rows byte-compatible with PR 6).
pub struct Canonical {
    /// Stable scenario name (keys `BENCH_PR*.json` rows and baselines).
    pub name: &'static str,
    /// The scenario.
    pub cfg: ScenarioConfig,
    /// Shard count for `run_sharded` (1 = classic `World::run`).
    pub shards: usize,
}

fn classic(name: &'static str, cfg: ScenarioConfig) -> Canonical {
    Canonical {
        name,
        cfg,
        shards: 1,
    }
}

/// The canonical perf-tracking scenario set, shared by `perf_gate`
/// (wall per simulated second) and `fig_breakdown` (per-subsystem
/// attribution) so the two always measure the same workloads.
pub fn canonical_scenarios(secs: u64) -> Vec<Canonical> {
    let dur = Duration::from_secs(secs);
    vec![
        classic(
            "congested_cubic_16ue",
            congested_cell(
                16,
                "cubic",
                ChannelMix::Mobile,
                16_384,
                WanLink::east(),
                l4span_default(),
                7,
                dur,
            ),
        ),
        classic(
            "prague_l4span_16ue",
            congested_cell(
                16,
                "prague",
                ChannelMix::Mobile,
                16_384,
                WanLink::east(),
                l4span_default(),
                7,
                dur,
            ),
        ),
        classic(
            "bbr2_mobile_8ue",
            congested_cell(
                8,
                "bbr2",
                ChannelMix::Mobile,
                16_384,
                WanLink::east(),
                l4span_default(),
                7,
                dur,
            ),
        ),
        classic(
            "handover_2cell_cubic_4ue",
            handover_cell(
                4,
                "cubic",
                Duration::from_secs(1),
                HandoverPolicy::MigrateState,
                l4span_default(),
                7,
                dur,
            ),
        ),
        classic(
            "interactive_apps_mixed",
            interactive_apps_mixed(4, "prague", l4span_default(), 7, dur),
        ),
        classic(
            "video_call_bidir",
            video_call_bidir(3, "prague", l4span_default(), 7, dur),
        ),
        // New in PR 8: the sharded metro world. Its simulated duration
        // is fixed at METRO_SECS (not `secs`) so `perf_gate` and
        // `fig_breakdown --secs N` stay comparable on it.
        Canonical {
            name: "metro_1000ue_50cell",
            cfg: metro_1000ue_50cell("prague", 11, Duration::from_secs(METRO_SECS)),
            shards: METRO_SHARDS,
        },
        // New in PR 9: the impaired Internet path — a 25% ECT-bleaching
        // middlebox feeding a 30 Mbit RFC 3168 single-queue hop (below
        // the cell's capacity, so the hop is the bottleneck and its RED
        // law actually runs), with fallback-armed Prague senders. Tracks
        // the impairment pipeline and classic-queue hot paths: RED
        // marking, pipeline RNG, the fallback detector on every ACK.
        // Shards are *requested* so the row also exercises — and prints
        // — the planner's rejection: an impairment pipeline serializes
        // all flows, so the run lands on the classic whole-world path.
        Canonical {
            name: "impaired_path_prague_16ue",
            cfg: impaired_path_cell(
                16,
                "prague-fallback",
                ImpairmentSpec::bleaching(0.25).then_classic_hop(30e6),
                l4span_default(),
                7,
                dur,
            ),
            shards: 4,
        },
        // New in PR 10: bonded dual-connectivity XR — 8 FEC/ARQ media
        // uplinks, each striped across two cells' grants, with the
        // server-side join and shared-bottleneck detector on the hot
        // path. Shards are *requested* so the row also prints the
        // planner's rejection: a bonded flow spans both cells, so the
        // run lands on the classic whole-world path.
        Canonical {
            name: "bonded_xr_8ue",
            cfg: bonded_xr_8ue(7, dur),
            shards: 2,
        },
    ]
}

/// One scenario's gated cost as read from a `BENCH_PR*.json` artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Scenario name.
    pub name: String,
    /// The cost the gate compares, lower is better: wall-clock
    /// milliseconds per simulated second — for sharded rows (which
    /// carry `busy_max_s`) the *longest shard's busy* milliseconds per
    /// simulated second, i.e. the wall the run takes when every shard
    /// has its own core.
    pub ms_per_sim_s: f64,
}

/// Extract `(name, gated cost)` pairs from one of our own
/// `BENCH_PR*.json` artifacts. The files are written by `perf_gate` in
/// a fixed shape (one scenario object per line), so a line-oriented
/// scan is exact — no JSON dependency in the offline workspace. Every
/// row of every artifact since PR 2 carries `wall_ms_per_sim_s`; events
/// per second, which older rows also carry, is deliberately not read:
/// it rises when cheap stale events are added and fell 2–7× when PR 12
/// removed them, while the wall improved. A sharded row is scaled by
/// `busy_max_s / wall_s`: its wall depends on how many cores the
/// recording machine had, its critical path does not.
pub fn parse_bench_json(text: &str) -> Vec<BenchEntry> {
    fn number_after(line: &str, key: &str) -> Option<f64> {
        let pos = line.find(key)?;
        let tail = &line[pos + key.len()..];
        let num: String = tail
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        num.parse().ok()
    }
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(npos) = line.find("\"name\": \"") else {
            continue;
        };
        let rest = &line[npos + 9..];
        let Some(nend) = rest.find('"') else { continue };
        let name = rest[..nend].to_string();
        let Some(wall_ms) = number_after(line, "\"wall_ms_per_sim_s\": ") else {
            continue;
        };
        let busy_share = number_after(line, "\"busy_max_s\": ")
            .zip(number_after(line, "\"wall_s\": "))
            .filter(|&(_, wall)| wall > 0.0)
            .map_or(1.0, |(busy, wall)| busy / wall);
        out.push(BenchEntry {
            name,
            ms_per_sim_s: wall_ms * busy_share,
        });
    }
    out
}

/// Extract the `"pr": N` header from a `BENCH_PR*.json` artifact.
pub fn parse_bench_pr(text: &str) -> Option<u32> {
    for line in text.lines() {
        let Some(pos) = line.find("\"pr\": ") else {
            continue;
        };
        let tail = &line[pos + 6..];
        let num: String = tail.chars().take_while(|c| c.is_ascii_digit()).collect();
        return num.parse().ok();
    }
    None
}

/// Fold a set of artifact measurements into the committed baseline
/// constants, keeping per-scenario *minima* (the tightest bar).
/// Artifact values are loosened by `headroom` first (divided by it; see
/// `perf_gate` for why), committed constants are taken as-is, and
/// scenarios that only exist in artifacts are added.
///
/// A scenario recorded by two or more artifacts contributes its
/// **second-lowest** value, not its minimum: a baseline must be
/// *reproducible*. One lucky recording window would otherwise ratchet
/// the bar permanently below what a clean run on the same machine can
/// reach (the PR 4 handover artifact sat ~23 % ahead of every other
/// PR's recording of the same scenario — more than the `headroom`
/// haircut absorbs — and its fold made PR 9's own raw recording fail
/// the band). The anti-stale property survives: a regression can only
/// hide if the *two* best artifacts are both stale. A scenario seen
/// in exactly one artifact still binds with that value — there is
/// nothing to corroborate a first appearance against.
pub fn fold_best(
    baselines: &[(&str, f64)],
    artifacts: &[Vec<BenchEntry>],
    headroom: f64,
) -> Vec<(String, f64)> {
    // Per scenario, the two lowest loosened artifact values seen.
    let mut low2: Vec<(String, f64, Option<f64>)> = Vec::new();
    for art in artifacts {
        for e in art {
            let v = e.ms_per_sim_s / headroom;
            match low2.iter_mut().find(|(n, _, _)| *n == e.name) {
                Some((_, lo, second)) => {
                    if v < *lo {
                        *second = Some(*lo);
                        *lo = v;
                    } else {
                        *second = Some(second.map_or(v, |s| s.min(v)));
                    }
                }
                None => low2.push((e.name.clone(), v, None)),
            }
        }
    }
    let mut best: Vec<(String, f64)> = baselines
        .iter()
        .map(|&(n, v)| (n.to_string(), v))
        .collect();
    for (name, lo, second) in low2 {
        let v = second.unwrap_or(lo);
        match best.iter_mut().find(|(n, _)| *n == name) {
            Some((_, b)) => *b = b.min(v),
            None => best.push((name, v)),
        }
    }
    best
}

/// Look up one scenario in a baseline table.
pub fn baseline_for(table: &[(String, f64)], name: &str) -> Option<f64> {
    table.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

/// The verdict for one measured scenario against the baseline table.
#[derive(Debug, Clone, PartialEq)]
pub enum GateVerdict {
    /// Wall per simulated second is within `max_regression` of the best
    /// prior baseline.
    Pass,
    /// Wall per simulated second rose more than `max_regression` above
    /// the baseline.
    Fail {
        /// The bar that was missed (baseline × (1 + max_regression)).
        bar: f64,
        /// The best prior baseline itself.
        baseline: f64,
    },
    /// The scenario has no prior baseline (first appearance): there is
    /// nothing to regress against, so the check explicitly skips it.
    NoBaseline,
}

/// Check one scenario's wall ms per simulated second against the
/// best-prior table.
pub fn check_scenario(
    best: &[(String, f64)],
    name: &str,
    ms_per_sim_s: f64,
    max_regression: f64,
) -> GateVerdict {
    match baseline_for(best, name) {
        None => GateVerdict::NoBaseline,
        Some(baseline) => {
            let bar = baseline * (1.0 + max_regression);
            if ms_per_sim_s > bar {
                GateVerdict::Fail { bar, baseline }
            } else {
                GateVerdict::Pass
            }
        }
    }
}

/// Percent delta of `now` vs `prev` (`−` = faster: less wall per
/// simulated second). `None` when the scenario has no previous
/// measurement.
pub fn delta_pct(prev: Option<f64>, now: f64) -> Option<f64> {
    match prev {
        Some(p) if p > 0.0 => Some((now / p - 1.0) * 100.0),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(pairs: &[(&str, f64)]) -> Vec<BenchEntry> {
        pairs
            .iter()
            .map(|&(n, v)| BenchEntry {
                name: n.to_string(),
                ms_per_sim_s: v,
            })
            .collect()
    }

    #[test]
    fn parse_bench_json_reads_rows_and_ignores_pre_pr2_fields() {
        let text = "{\n  \"pr\": 6,\n  \"sim_secs_per_scenario\": 8,\n  \"scenarios\": [\n    \
                    {\"name\": \"a\", \"events\": 10, \"wall_s\": 1.000, \"events_per_sec\": 1500000, \"wall_ms_per_sim_s\": 125.0},\n    \
                    {\"name\": \"b\", \"events\": 20, \"wall_s\": 2.000, \"events_per_sec\": 2000000.5, \"wall_ms_per_sim_s\": 250.5, \"pre_pr2_events_per_sec\": 955942, \"speedup_vs_pre_pr2\": 2.09}\n  ]\n}\n";
        let got = parse_bench_json(text);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].name, "a");
        assert_eq!(got[0].ms_per_sim_s, 125.0);
        assert_eq!(got[1].name, "b");
        assert_eq!(got[1].ms_per_sim_s, 250.5);
        assert_eq!(parse_bench_pr(text), Some(6));
    }

    #[test]
    fn parse_bench_json_gates_sharded_rows_on_their_critical_path() {
        let text = "{\n  \"pr\": 8,\n  \"scenarios\": [\n    \
                    {\"name\": \"metro\", \"events\": 9, \"wall_s\": 4.000, \"events_per_sec\": 3000000, \"wall_ms_per_sim_s\": 2000.0, \"shards\": 8, \"busy_max_s\": 0.500, \"aggregate_events_per_sec\": 12000000, \"per_core_events_per_sec\": 1500000}\n  ]\n}\n";
        let got = parse_bench_json(text);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].name, "metro");
        // The 2000 ms wall must lose to the 250 ms critical path (the
        // longest shard was busy for an eighth of the wall): the former
        // depends on the recording machine's core count.
        assert_eq!(got[0].ms_per_sim_s, 250.0);
    }

    #[test]
    fn fold_best_takes_min_with_haircut_and_adds_new_scenarios() {
        let committed = [("a", 30.0), ("b", 20.0)];
        // Artifact 1: `a` faster even after the 10% haircut; `b` slower.
        // Artifact 2: a brand-new scenario `c`.
        let art1 = entries(&[("a", 18.0), ("b", 27.0)]);
        let art2 = entries(&[("c", 9.0)]);
        let best = fold_best(&committed, &[art1, art2], 0.9);
        assert_eq!(baseline_for(&best, "a"), Some(20.0));
        assert_eq!(baseline_for(&best, "b"), Some(20.0));
        assert_eq!(baseline_for(&best, "c"), Some(10.0));
        assert_eq!(baseline_for(&best, "missing"), None);
    }

    #[test]
    fn fold_best_discards_a_single_outlier_artifact() {
        // Four artifacts record `a` near 27 ms; one lucky window
        // recorded 18. The fold must bind on the second-lowest
        // (reproducible) value, not the outlier — otherwise one lucky
        // run ratchets the bar below every honest recording.
        let committed = [("a", 36.0)];
        let arts: Vec<_> = [27.9, 18.0, 28.8, 27.0]
            .iter()
            .map(|&v| entries(&[("a", v)]))
            .collect();
        let best = fold_best(&committed, &arts, 0.9);
        // second-lowest = 27, / 0.9 = 30 (< committed 36).
        assert_eq!(baseline_for(&best, "a"), Some(30.0));
        // A scenario seen in exactly one artifact still binds with it.
        let one = fold_best(&committed, &[entries(&[("b", 9.0)])], 0.9);
        assert_eq!(baseline_for(&one, "b"), Some(10.0));
    }

    #[test]
    fn check_scenario_threshold_math_at_ten_percent() {
        let best = vec![("a".to_string(), 20.0)];
        // Exactly at the bar passes; a hair over fails.
        assert_eq!(check_scenario(&best, "a", 22.0, 0.10), GateVerdict::Pass);
        match check_scenario(&best, "a", 22.001, 0.10) {
            GateVerdict::Fail { bar, baseline } => {
                assert!((bar - 22.0).abs() < 1e-9);
                assert_eq!(baseline, 20.0);
            }
            v => panic!("expected Fail, got {v:?}"),
        }
    }

    #[test]
    fn check_scenario_skips_unknown_scenarios_explicitly() {
        let best = vec![("a".to_string(), 20.0)];
        assert_eq!(
            check_scenario(&best, "brand_new", 1.0, 0.10),
            GateVerdict::NoBaseline
        );
    }

    #[test]
    fn best_prior_selection_across_multiple_bench_files() {
        // Three PR artifacts measuring the same scenario: the bar
        // comes from the second-lowest — not the most recent (a
        // regression must not hide behind one stale artifact) and not
        // the single best (one lucky window must not ratchet the bar;
        // see `fold_best_discards_a_single_outlier_artifact`).
        let committed = [("a", 90.0)];
        let pr3 = entries(&[("a", 36.0)]);
        let pr4 = entries(&[("a", 18.0)]); // the best
        let pr5 = entries(&[("a", 27.0)]); // most recent, slower
        let best = fold_best(&committed, &[pr3, pr4, pr5], 0.9);
        assert_eq!(baseline_for(&best, "a"), Some(30.0));
    }

    #[test]
    fn delta_pct_handles_missing_and_zero_previous() {
        assert_eq!(delta_pct(None, 1.0), None);
        assert_eq!(delta_pct(Some(0.0), 1.0), None);
        let d = delta_pct(Some(2_000_000.0), 2_200_000.0).unwrap();
        assert!((d - 10.0).abs() < 1e-9);
        let d = delta_pct(Some(2_000_000.0), 1_900_000.0).unwrap();
        assert!((d + 5.0).abs() < 1e-9);
    }

    #[test]
    fn canonical_scenarios_cover_the_tracked_set() {
        let set = canonical_scenarios(1);
        let names: Vec<&str> = set.iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            [
                "congested_cubic_16ue",
                "prague_l4span_16ue",
                "bbr2_mobile_8ue",
                "handover_2cell_cubic_4ue",
                "interactive_apps_mixed",
                "video_call_bidir",
                "metro_1000ue_50cell",
                "impaired_path_prague_16ue",
                "bonded_xr_8ue",
            ]
        );
        // Only the metro world actually runs sharded. The impaired path
        // *requests* shards but its pipeline serializes all flows, so
        // the planner must reject it down to the classic whole-world
        // path — with the reason surfaced for the gate table.
        for c in &set {
            let want = match c.name {
                "metro_1000ue_50cell" => METRO_SHARDS,
                "impaired_path_prague_16ue" => 4,
                "bonded_xr_8ue" => 2,
                _ => 1,
            };
            assert_eq!(c.shards, want, "{}", c.name);
        }
        let impaired = &set[7];
        assert_eq!(
            l4span_harness::plan_shards_reason(&impaired.cfg, impaired.shards),
            (1, Some(l4span_harness::ShardReject::ImpairmentPipeline)),
            "the planner rejects the impaired path with its reason"
        );
        let bonded = &set[8];
        assert_eq!(
            l4span_harness::plan_shards_reason(&bonded.cfg, bonded.shards),
            (1, Some(l4span_harness::ShardReject::BondedFlow)),
            "the planner rejects the bonded world with its reason"
        );
    }
}
