//! The equivalence corpus: one list of scenarios, and on every one of
//! them each property that makes a run a pure function of
//! (config, seed).
//!
//! A row is `(section, key, seed, fn(key, seed) -> ScenarioConfig)`:
//! every canonical scenario family × every congestion controller the
//! paper evaluates, the proportional-fair MAC on both links, each
//! non-TCP endpoint family, the bonded uplink, the impaired path, the
//! wired bottleneck and the per-cell worlds that shard, at base seed 7
//! (11 for the metro rows).
//! `tests/golden_fingerprints.toml` pins each row's 64-bit digest of
//! [`Report::fingerprint`]. One test checks four properties on every
//! row and lists every violation:
//!
//! - **P1, golden:** the digest at the base seed, run through
//!   `run_batch`, is the blessed one. This tells an intentional change
//!   (re-bless and review the diff) from silent drift (an RNG stream
//!   reassigned, an event reordered, a float path refactored).
//! - **P2, cycles and workers:** with `measure_cycles` on, through
//!   `run_batch_on(_, 1)`, the digest, `events` and `queue_depth_peak`
//!   are P1's: instrumentation never feeds back into the run, and a run
//!   does not depend on its batch's worker count (CI runs the corpus at
//!   `L4SPAN_THREADS=1` and at `4`).
//! - **P3, seed:** the base seed + 1 gives a different digest.
//! - **P4, shard count:** `run_sharded` at 2 and at 4 replicas gives
//!   P1's digest, `events`, `event_counts` and `fading_evals`, and a
//!   `shard_reject` exactly when `plan_shards_reason(cfg, 2)` refuses
//!   the row (a refused row runs as the one world).
//!
//! Plain asserts on named rows then keep a property from passing
//! vacuously. Regenerate after an intentional change with
//!
//! ```sh
//! L4SPAN_BLESS=1 cargo test -q --test golden_fingerprints
//! ```
//!
//! and commit the rewritten TOML: the diff shows which rows moved.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use l4span::cc::{CcKind, WanLink};
use l4span::core::HandoverPolicy;
use l4span::harness::app::AppProfile;
use l4span::harness::scenario::{
    l4span_default, BottleneckSpec, FlowSpec, ScenarioConfig, TransportSpec,
};
use l4span::harness::{
    self, plan_shards_reason, run_sharded, scenario, scenario::ChannelMix, ImpairmentSpec,
    MarkerKind, Report, UeSpec,
};
use l4span::ran::config::{RlcMode, SchedulerKind};
use l4span::ran::ChannelProfile;
use l4span::sim::{Duration, Instant};

/// Every congestion controller in the paper's evaluation.
const CCS: [&str; 5] = ["reno", "cubic", "prague", "bbr", "bbr2"];

/// The length of a row unless it says otherwise.
const SEC: Duration = Duration::from_secs(1);

/// Sections whose rows must shard, so that P4 compares replicas there
/// and not the one-world fallback.
const SHARDED: [&str; 3] = [
    "handover_percell_4ue",
    "metro_city_8cell_3ue",
    "metro_1000ue_50cell",
];

/// Section → key → digest, as the TOML holds it.
type Table = BTreeMap<String, BTreeMap<String, String>>;

/// A row's scenario as a function of its key and its seed.
type Build = fn(&str, u64) -> ScenarioConfig;

/// One corpus row: its TOML section and key, its base seed and its
/// scenario.
struct Row {
    section: &'static str,
    key: &'static str,
    seed: u64,
    cfg: Build,
}

impl Row {
    fn config(&self, seed: u64) -> ScenarioConfig {
        (self.cfg)(self.key, seed)
    }
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.section, self.key)
    }
}

fn video() -> AppProfile {
    AppProfile::video(25.0, 0.5e6, 2.0e6, 20.0e6)
}

/// Two mobile-channel UEs, one downlink flow of `app` over `tx`
/// each, on bearers in RLC `mode`.
fn media_cell(app: AppProfile, tx: TransportSpec, mode: RlcMode, seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(seed, SEC);
    cfg.marker = l4span_default();
    for i in 0..2 {
        let mut ue = UeSpec::simple(ChannelMix::Mobile.profile(i), 20.0 + 3.0 * i as f64);
        ue.drbs = vec![(0, mode)];
        cfg.ues.push(ue);
        cfg.flows.push(FlowSpec::new(
            i,
            app.clone(),
            tx.clone(),
            WanLink::east(),
            Instant::from_millis(20 * i as u64),
        ));
    }
    cfg
}

/// Fig. 2 (b)/(c)'s world at 1 s: a Prague and a CUBIC download on two
/// static UEs behind a DualPi2 middlebox whose rate steps 1 Gbit/s →
/// 20 Mbit/s → 1 Gbit/s inside the run, so the bottleneck moves out of
/// the RAN and back.
fn wired_bottleneck(marker: MarkerKind, seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(seed, SEC);
    cfg.marker = marker;
    cfg.bottleneck = Some(BottleneckSpec {
        rate_bps: 1e9,
        schedule: vec![
            (Instant::from_millis(300), 20e6),
            (Instant::from_millis(700), 1e9),
        ],
        l4s_aqm: true,
    });
    for (i, cc) in [CcKind::Prague, CcKind::Cubic].into_iter().enumerate() {
        cfg.ues.push(UeSpec::simple(ChannelProfile::Static, 24.0));
        cfg.flows.push(FlowSpec::new(
            i,
            AppProfile::bulk(),
            TransportSpec::tcp(cc),
            WanLink::east(),
            Instant::from_millis(10 * i as u64),
        ));
    }
    cfg
}

/// Two UEs behind a quarter-bleaching hop and then a classic hop at
/// `classic_bps`.
fn impaired_path(cc: &str, classic_bps: f64, seed: u64) -> ScenarioConfig {
    scenario::impaired_path_cell(
        2,
        cc,
        ImpairmentSpec::bleaching(0.25).then_classic_hop(classic_bps),
        l4span_default(),
        seed,
        SEC,
    )
}

/// The 2-cell world with one mid-run handover per UE, on the central CU.
fn handover_2cell(cc: &str, policy: HandoverPolicy, seed: u64) -> ScenarioConfig {
    scenario::handover_cell(
        2,
        cc,
        Duration::from_millis(400),
        policy,
        l4span_default(),
        seed,
        SEC,
    )
}

/// The 2-cell handover world with 4 UEs and the per-cell CU deployment
/// that makes it shard.
fn handover_percell(cc: &str, seed: u64, secs: u64) -> ScenarioConfig {
    let mut cfg = scenario::handover_cell(
        4,
        cc,
        Duration::from_secs(1),
        HandoverPolicy::MigrateState,
        l4span_default(),
        seed,
        Duration::from_secs(secs),
    );
    cfg.cu_per_cell = true;
    cfg
}

/// The same world carrying downlink SCReAM video instead of TCP, on
/// bearers in RLC `mode`: frame QoE and the handover log both cross the
/// replicas. (An uplink SCReAM leg would make it ineligible:
/// `StepUnderTickPacedUplink`.)
fn handover_scream(mode: RlcMode, seed: u64) -> ScenarioConfig {
    let mut cfg = handover_percell("prague", seed, 3);
    for ue in &mut cfg.ues {
        ue.drbs = vec![(0, mode)];
    }
    for (i, f) in cfg.flows.iter_mut().enumerate() {
        *f = FlowSpec::new(
            i,
            video(),
            TransportSpec::scream(),
            WanLink::east(),
            f.start,
        );
    }
    cfg
}

/// Every row, in a fixed order: 1 simulated second unless it says
/// otherwise.
fn rows() -> Vec<Row> {
    const TRIO: [&str; 3] = ["prague", "cubic", "bbr2"];
    let mut rows = Vec::new();
    let mut add = |section, keys: &[&'static str], seed, cfg: Build| {
        rows.extend(keys.iter().map(|&key| Row {
            section,
            key,
            seed,
            cfg,
        }));
    };
    // The worlds whose cells shard come first, so a batch starts on its
    // longest jobs: the 2-cell per-cell-CU handover world (4 UEs; TCP
    // for 2 s, SCReAM for 3 s), a small metro that reaches every
    // cross-shard mechanism (8 cells × 3 UEs, one mover; 2.6 s) and the
    // canonical metro for the first four staggered handovers and the
    // whole flow-start ramp (400 ms).
    add("handover_percell_4ue", &TRIO, 7, |cc, seed| {
        handover_percell(cc, seed, 2)
    });
    add("handover_percell_4ue", &["scream"], 7, |_, seed| {
        handover_scream(RlcMode::Am, seed)
    });
    add("handover_percell_4ue", &["scream-um"], 7, |_, seed| {
        handover_scream(RlcMode::Um, seed)
    });
    add("metro_city_8cell_3ue", &TRIO, 11, |cc, seed| {
        let dur = Duration::from_millis(2_600);
        scenario::metro_city(8, 3, cc, l4span_default(), seed, dur)
    });
    add("metro_1000ue_50cell", &["prague"], 11, |cc, seed| {
        scenario::metro_1000ue_50cell(cc, seed, Duration::from_millis(400))
    });
    // Every canonical scenario family under every CC; the bidirectional
    // call carries uplink data too (SR/BSR, grants, UL HARQ, gNB-side
    // reassembly and the UE-side marker).
    add("congested_cell_2ue", &CCS, 7, |cc, seed| {
        let (mix, wan, marker) = (ChannelMix::Mobile, WanLink::east(), l4span_default());
        scenario::congested_cell(2, cc, mix, 16_384, wan, marker, seed, SEC)
    });
    add("handover_2cell_2ue", &CCS, 7, |cc, seed| {
        handover_2cell(cc, HandoverPolicy::MigrateState, seed)
    });
    add("interactive_apps_mixed_2g", &CCS, 7, |cc, seed| {
        scenario::interactive_apps_mixed(2, cc, l4span_default(), seed, SEC)
    });
    add("video_call_bidir_2", &CCS, 7, |cc, seed| {
        scenario::video_call_bidir(2, cc, l4span_default(), seed, SEC)
    });
    // The proportional-fair MAC, on the downlink and on uplink grants.
    add("congested_cell_2ue", &["prague-pf"], 7, |_, seed| {
        let (mix, wan, marker) = (ChannelMix::Mobile, WanLink::east(), l4span_default());
        let mut cfg = scenario::congested_cell(2, "prague", mix, 16_384, wan, marker, seed, SEC);
        cfg.scheduler = SchedulerKind::ProportionalFair;
        cfg
    });
    add("video_call_bidir_2", &["prague-pf"], 7, |_, seed| {
        let mut cfg = scenario::video_call_bidir(2, "prague", l4span_default(), seed, SEC);
        cfg.scheduler = SchedulerKind::ProportionalFair;
        cfg
    });
    // The ColdStart marker policy is its own path through the handover.
    let cold = ["prague-cold-start"];
    add("handover_2cell_2ue", &cold, 7, |_, seed| {
        handover_2cell("prague", HandoverPolicy::ColdStart, seed)
    });
    // The rows the TCP grid cannot reach: the three UDP endpoint
    // families (SCReAM, UDP Prague, FEC media), a UM bearer (the
    // `UePoll` reassembly poll and feedback flush), an impaired path
    // under Prague's classic fallback and under CUBIC, and the wired
    // bottleneck: alone, stepping its rate, as Fig. 2(a)'s only queue
    // (on a fast TDD cell with short slots), and behind impairment
    // stages whose last one feeds it directly.
    add("media_cell_2ue", &["scream"], 7, |_, seed| {
        media_cell(video(), TransportSpec::scream(), RlcMode::Am, seed)
    });
    add("media_cell_2ue", &["scream-um"], 7, |_, seed| {
        media_cell(video(), TransportSpec::scream(), RlcMode::Um, seed)
    });
    add("media_cell_2ue", &["udp-prague"], 7, |_, seed| {
        let udp = TransportSpec::udp_prague(6.25e4, 2.5e5, 2.5e6);
        media_cell(AppProfile::bulk(), udp, RlcMode::Am, seed)
    });
    let impaired = ["prague-fallback", "cubic"];
    add("impaired_path_cell_2ue", &impaired, 7, |cc, seed| {
        impaired_path(cc, 30e6, seed)
    });
    add("wired_bottleneck_2ue", &["marker-off"], 7, |_, seed| {
        wired_bottleneck(MarkerKind::None, seed)
    });
    add("wired_bottleneck_2ue", &["l4span"], 7, |_, seed| {
        wired_bottleneck(l4span_default(), seed)
    });
    add("wired_l4s_2ue", &["marker-off"], 7, |_, seed| {
        scenario::wired_l4s(seed, SEC)
    });
    add("impaired_bottleneck_2ue", &["prague"], 7, |cc, seed| {
        let mut cfg = impaired_path(cc, 60e6, seed);
        cfg.bottleneck = Some(BottleneckSpec {
            rate_bps: 30e6,
            schedule: Vec::new(),
            l4s_aqm: true,
        });
        cfg
    });
    // The two-cell XR world: NADA and the FEC endpoint on one leg (those
    // rows shard); leg striping, the server-side join, the
    // shared-bottleneck detector and the FEC/ARQ ledgers when bonded;
    // and the benchmark's `xr_bonded_ul_8dev` world itself (8 devices ×
    // 2 legs).
    let single = ["fec-media", "nada", "prague"];
    add("xr_bonding_4dev_single", &single, 7, |cc, seed| {
        scenario::xr_bonding_cell(4, cc, l4span_default(), false, seed, SEC)
    });
    let bonded = ["fec-media", "nada", "prague", "cubic"];
    add("xr_bonding_4dev_bonded", &bonded, 7, |cc, seed| {
        scenario::xr_bonding_cell(4, cc, l4span_default(), true, seed, SEC)
    });
    add("bonded_xr_8ue", &["fec-media"], 7, |_, seed| {
        scenario::bonded_xr_8ue(seed, SEC)
    });
    rows
}

fn toml_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_fingerprints.toml")
}

fn render(table: &Table) -> String {
    let mut s = String::from(
        "# Golden fingerprint digests (FNV-1a of Report::fingerprint()).\n\
         # One section per canonical scenario, one key per congestion\n\
         # controller. Regenerate intentionally with:\n\
         #   L4SPAN_BLESS=1 cargo test -q --test golden_fingerprints\n",
    );
    for (name, ccs) in table {
        let _ = write!(s, "\n[{name}]\n");
        // Emit in the paper's CC order, not alphabetical; keys outside
        // the TCP grid follow in sorted order.
        for cc in CCS {
            if let Some(d) = ccs.get(cc) {
                let _ = writeln!(s, "{cc} = \"{d}\"");
            }
        }
        for (key, d) in ccs.iter().filter(|(k, _)| !CCS.contains(&k.as_str())) {
            let _ = writeln!(s, "{key} = \"{d}\"");
        }
    }
    s
}

/// Minimal parser for the exact file `render` writes (section headers
/// plus `key = "value"` lines; `#` comments ignored).
fn parse(text: &str) -> Table {
    let mut out = Table::new();
    let mut section = String::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.to_string();
            out.entry(section.clone()).or_default();
            continue;
        }
        if let Some((k, v)) = line.split_once('=') {
            let key = k.trim().to_string();
            let val = v.trim().trim_matches('"').to_string();
            out.entry(section.clone()).or_default().insert(key, val);
        }
    }
    out
}

/// P1: every row's digest against the blessed one, and every blessed
/// entry still produced.
fn drift(expected: &Table, actual: &Table) -> Vec<String> {
    let mut out = Vec::new();
    for (name, ccs) in actual {
        for (cc, digest) in ccs {
            match expected.get(name).and_then(|m| m.get(cc)) {
                Some(want) if want == digest => {}
                Some(want) => out.push(format!(
                    "{name}/{cc}: P1 fingerprint drifted ({want} → {digest})"
                )),
                None => out.push(format!("{name}/{cc}: P1 missing from the corpus")),
            }
        }
    }
    // Stale entries are drift too: a renamed row must be re-blessed.
    for (name, ccs) in expected {
        for cc in ccs.keys() {
            if actual.get(name).and_then(|m| m.get(cc)).is_none() {
                out.push(format!(
                    "{name}/{cc}: P1 in the corpus but no longer produced"
                ));
            }
        }
    }
    out
}

/// What must not depend on the replica count (P4): digest, events
/// popped, events popped per class, fading evaluations.
type Outcome = (String, u64, Vec<(&'static str, u64)>, u64);

fn outcome(r: &Report) -> Outcome {
    (
        r.fingerprint_digest(),
        r.events,
        r.event_counts.clone(),
        r.fading_evals,
    )
}

/// P4 on one row: `run_sharded` at 2 and at 4 against the one-world
/// run's `want`, and its `shard_reject` against the planner's.
fn shard_violations(row: &Row, want: &Outcome) -> Vec<String> {
    let mut out = Vec::new();
    let cfg = row.config(row.seed);
    let reject = plan_shards_reason(&cfg, 2).1;
    // `run_sharded(cfg, n)` runs the replica count the planner grants
    // for `n`: a refused row runs as the one world, a 2-cell row on two
    // replicas, at either request, so those run once.
    let granted = [2, 4].map(|n| plan_shards_reason(&cfg, n).0);
    for n in [2, 4] {
        if n == 4 && granted[1] == granted[0] {
            continue;
        }
        let r = run_sharded(row.config(row.seed), n);
        let got = outcome(&r);
        if got != *want {
            let counts = if got.2 == want.2 {
                String::new()
            } else {
                format!("; event_counts {:?} → {:?}", want.2, got.2)
            };
            out.push(format!(
                "{row}: P4 run_sharded(_, {n}): (digest, events, fading_evals) \
                 ({}, {}, {}) → ({}, {}, {}){counts}",
                want.0, want.1, want.3, got.0, got.1, got.3
            ));
        }
        if r.shard_reject != reject {
            out.push(format!(
                "{row}: P4 run_sharded(_, {n}) reports shard_reject {:?}, the planner {reject:?}",
                r.shard_reject
            ));
        }
    }
    out
}

#[test]
fn golden_fingerprints_match_the_blessed_corpus() {
    let rows = rows();
    let at = |shift: u64| -> Vec<ScenarioConfig> {
        rows.iter().map(|r| r.config(r.seed + shift)).collect()
    };
    // P1 and P3 share one batch: every base seed, then every seed + 1.
    let mut base = harness::run_batch([at(0), at(1)].concat());
    let next: Vec<String> = base
        .split_off(rows.len())
        .iter()
        .map(Report::fingerprint_digest)
        .collect();
    let base_out: Vec<Outcome> = base.iter().map(outcome).collect();
    let mut actual = Table::new();
    for (row, out) in rows.iter().zip(&base_out) {
        let section = actual.entry(row.section.to_string()).or_default();
        assert!(
            section.insert(row.key.to_string(), out.0.clone()).is_none(),
            "{row} twice"
        );
    }

    let path = toml_path();
    if std::env::var("L4SPAN_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, render(&actual)).expect("write corpus");
        eprintln!("blessed {}: review the diff", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).expect("bless it: L4SPAN_BLESS=1");
    let mut violations = drift(&parse(&text), &actual);
    let mut cycles_on = at(0);
    for cfg in &mut cycles_on {
        cfg.measure_cycles = true;
    }
    let cycles = harness::run_batch_on(cycles_on, 1);
    for (i, (row, want)) in rows.iter().zip(&base_out).enumerate() {
        let b = (&want.0, want.1, base[i].queue_depth_peak);
        let c = &cycles[i];
        let c = (&c.fingerprint_digest(), c.events, c.queue_depth_peak);
        if b != c {
            violations.push(format!(
                "{row}: P2 measure_cycles on, one worker: \
                 (digest, events, queue_depth_peak) {b:?} → {c:?}"
            ));
        }
        if next[i] == want.0 {
            violations.push(format!(
                "{row}: P3 seed {} gives the digest of seed {} ({} → {})",
                row.seed + 1,
                row.seed,
                want.0,
                next[i]
            ));
        }
    }
    for (row, want) in rows.iter().zip(&base_out) {
        violations.extend(shard_violations(row, want));
    }
    assert!(
        violations.is_empty(),
        "equivalence corpus violated — if a P1 drift is intentional, \
         re-bless with L4SPAN_BLESS=1 and review the diff:\n  {}",
        violations.join("\n  ")
    );

    // Each property above could pass on a row that never reached what
    // it is there to check.
    let report: BTreeMap<String, &Report> = rows.iter().map(Row::to_string).zip(&base).collect();
    for (row, r) in &report {
        assert!(
            r.events > 0 && r.queue_depth_peak > 0,
            "{row}: no events queued"
        );
    }
    for row in ["video_call_bidir_2/prague", "video_call_bidir_2/prague-pf"] {
        let bidir = report[row];
        assert!(
            bidir.ul_owd_ms.iter().any(|v| !v.is_empty()),
            "{row}: uplink OWD"
        );
        assert!(
            !bidir.ul_queue_series.is_empty(),
            "{row}: uplink queue series"
        );
    }
    let pf = SchedulerKind::ProportionalFair;
    assert!(
        rows.iter().any(|r| r.config(r.seed).scheduler == pf),
        "a row runs the proportional-fair MAC"
    );
    for section in ["congested_cell_2ue", "video_call_bidir_2"] {
        let keys = &actual[section];
        assert_ne!(
            keys["prague-pf"], keys["prague"],
            "{section}: the MAC alters the run"
        );
    }
    for row in [
        "impaired_path_cell_2ue/prague-fallback",
        "impaired_bottleneck_2ue/prague",
    ] {
        assert!(report[row].impairment.is_some(), "{row}: pipeline counters");
    }
    for row in [
        "handover_percell_4ue/scream",
        "handover_percell_4ue/scream-um",
    ] {
        let frames: u64 = report[row].frames_delivered.iter().sum();
        assert!(frames > 0, "{row}: frames complete");
        assert!(!report[row].handovers.is_empty(), "{row}: UEs hand over");
    }
    for row in rows.iter().filter(|r| SHARDED.contains(&r.section)) {
        let cfg = row.config(row.seed);
        assert_eq!(plan_shards_reason(&cfg, 2).1, None, "{row} must shard");
    }
    let handover = &actual["handover_2cell_2ue"];
    assert_ne!(
        handover["prague-cold-start"], handover["prague"],
        "policies alter the run"
    );
}

#[test]
fn corpus_round_trips_through_the_parser() {
    let mut keys: BTreeMap<String, String> = CCS
        .iter()
        .enumerate()
        .map(|(i, cc)| (cc.to_string(), format!("{i:016x}")))
        .collect();
    keys.insert("fec-media".into(), "00000000000000ff".into());
    let table = Table::from([("scenario_x".to_string(), keys)]);
    assert_eq!(parse(&render(&table)), table);
}
