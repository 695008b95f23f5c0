//! Golden-fingerprint regression corpus.
//!
//! `tests/golden_fingerprints.toml` pins a 64-bit digest of
//! [`Report::fingerprint`] for every canonical scenario × every
//! congestion controller the paper evaluates, plus one row per non-TCP
//! endpoint family, bonded uplink and impaired path. The determinism matrix
//! (`tests/determinism.rs`) proves a run reproduces *within* a build;
//! this corpus additionally distinguishes **intentional** fingerprint
//! changes (new metrics, behaviour changes — re-bless and review the
//! diff) from **silent drift** (an RNG stream reassigned, an event
//! reordered, a float path refactored) across PRs.
//!
//! Regenerate after an intentional change with:
//!
//! ```sh
//! L4SPAN_BLESS=1 cargo test -q --test golden_fingerprints
//! ```
//!
//! and commit the rewritten TOML — the diff shows exactly which
//! scenario × CC combinations moved.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use l4span::cc::{CcKind, WanLink};
use l4span::core::HandoverPolicy;
use l4span::harness::app::AppProfile;
use l4span::harness::scenario::{BottleneckSpec, FlowSpec, ScenarioConfig, TransportSpec};
use l4span::harness::{self, scenario, scenario::ChannelMix, ImpairmentSpec, MarkerKind, UeSpec};
use l4span::ran::config::RlcMode;
use l4span::ran::ChannelProfile;
use l4span::sim::{Duration, Instant};

/// Every congestion controller in the paper's evaluation.
const CCS: [&str; 5] = ["reno", "cubic", "prague", "bbr", "bbr2"];

/// The canonical corpus: short (1 simulated second) variants of every
/// canonical scenario family, in a fixed order. The last entry is the
/// bidirectional one; the rest are downlink-only.
fn corpus(cc: &str) -> Vec<(&'static str, scenario::ScenarioConfig)> {
    vec![
        (
            "congested_cell_2ue",
            scenario::congested_cell(
                2,
                cc,
                ChannelMix::Mobile,
                16_384,
                WanLink::east(),
                scenario::l4span_default(),
                7,
                Duration::from_secs(1),
            ),
        ),
        (
            "handover_2cell_2ue",
            scenario::handover_cell(
                2,
                cc,
                Duration::from_millis(400),
                HandoverPolicy::MigrateState,
                scenario::l4span_default(),
                7,
                Duration::from_secs(1),
            ),
        ),
        (
            "interactive_apps_mixed_2g",
            scenario::interactive_apps_mixed(
                2,
                cc,
                scenario::l4span_default(),
                7,
                Duration::from_secs(1),
            ),
        ),
        (
            "video_call_bidir_2",
            scenario::video_call_bidir(
                2,
                cc,
                scenario::l4span_default(),
                7,
                Duration::from_secs(1),
            ),
        ),
    ]
}

/// Two mobile-channel UEs, one downlink flow of `app` over `transport`
/// each, on bearers in RLC `mode`.
fn media_cell(app: AppProfile, transport: TransportSpec, mode: RlcMode) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(7, Duration::from_secs(1));
    cfg.marker = scenario::l4span_default();
    for i in 0..2 {
        let mut ue = UeSpec::simple(ChannelMix::Mobile.profile(i), 20.0 + 3.0 * i as f64);
        ue.drbs = vec![(0, mode)];
        cfg.ues.push(ue);
        cfg.flows.push(FlowSpec::new(
            i,
            app.clone(),
            transport.clone(),
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
fn wired_bottleneck(marker: MarkerKind) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(7, Duration::from_secs(1));
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

/// The rows the TCP grid above cannot reach, as (section, key, config):
/// the three UDP endpoint families (SCReAM, UDP Prague, FEC media), a
/// UM bearer (the `UePoll` reassembly poll and feedback flush), the
/// bonded uplink's FEC self-join and TCP join buffer, an impaired path
/// under Prague's classic fallback, and the wired bottleneck: alone,
/// stepping its rate, as Fig. 2(a)'s only queue (on a fast TDD cell
/// with short slots), and behind impairment stages whose last one
/// feeds it directly.
fn endpoint_corpus() -> Vec<(&'static str, &'static str, ScenarioConfig)> {
    let video = || AppProfile::video(25.0, 0.5e6, 2.0e6, 20.0e6);
    let mut rows = vec![
        (
            "media_cell_2ue",
            "scream",
            media_cell(video(), TransportSpec::scream(), RlcMode::Am),
        ),
        (
            "media_cell_2ue",
            "scream-um",
            media_cell(video(), TransportSpec::scream(), RlcMode::Um),
        ),
        (
            "media_cell_2ue",
            "udp-prague",
            media_cell(
                AppProfile::bulk(),
                TransportSpec::udp_prague(6.25e4, 2.5e5, 2.5e6),
                RlcMode::Am,
            ),
        ),
        (
            "impaired_path_cell_2ue",
            "prague-fallback",
            scenario::impaired_path_cell(
                2,
                "prague-fallback",
                ImpairmentSpec::bleaching(0.25).then_classic_hop(30e6),
                scenario::l4span_default(),
                7,
                Duration::from_secs(1),
            ),
        ),
        (
            "wired_bottleneck_2ue",
            "marker-off",
            wired_bottleneck(MarkerKind::None),
        ),
        (
            "wired_bottleneck_2ue",
            "l4span",
            wired_bottleneck(scenario::l4span_default()),
        ),
        (
            "wired_l4s_2ue",
            "marker-off",
            scenario::wired_l4s(7, Duration::from_secs(1)),
        ),
        ("impaired_bottleneck_2ue", "prague", {
            let mut cfg = scenario::impaired_path_cell(
                2,
                "prague",
                ImpairmentSpec::bleaching(0.25).then_classic_hop(60e6),
                scenario::l4span_default(),
                7,
                Duration::from_secs(1),
            );
            cfg.bottleneck = Some(BottleneckSpec {
                rate_bps: 30e6,
                schedule: Vec::new(),
                l4s_aqm: true,
            });
            cfg
        }),
    ];
    for (section, bonded) in [
        ("xr_bonding_4dev_single", false),
        ("xr_bonding_4dev_bonded", true),
    ] {
        for cc in ["fec-media", "nada", "prague"] {
            rows.push((
                section,
                cc,
                scenario::xr_bonding_cell(
                    4,
                    cc,
                    scenario::l4span_default(),
                    bonded,
                    7,
                    Duration::from_secs(1),
                ),
            ));
        }
    }
    rows
}

fn toml_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_fingerprints.toml")
}

/// Compute every digest: scenario name → cc → digest. Runs the whole
/// grid through the parallel batch runner (fingerprints are invariant
/// to worker count — that is its contract, asserted in determinism.rs).
fn compute() -> BTreeMap<String, BTreeMap<String, String>> {
    let mut keys = Vec::new();
    let mut cfgs = Vec::new();
    for cc in CCS {
        for (name, cfg) in corpus(cc) {
            keys.push((name.to_string(), cc.to_string()));
            cfgs.push(cfg);
        }
    }
    for (section, key, cfg) in endpoint_corpus() {
        keys.push((section.to_string(), key.to_string()));
        cfgs.push(cfg);
    }
    let reports = harness::run_batch(cfgs);
    let mut out: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    for ((name, cc), r) in keys.into_iter().zip(reports) {
        out.entry(name)
            .or_default()
            .insert(cc, r.fingerprint_digest());
    }
    out
}

fn render(table: &BTreeMap<String, BTreeMap<String, String>>) -> String {
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
fn parse(text: &str) -> BTreeMap<String, BTreeMap<String, String>> {
    let mut out: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
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

#[test]
fn golden_fingerprints_match_the_blessed_corpus() {
    let actual = compute();
    let path = toml_path();
    if std::env::var("L4SPAN_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, render(&actual)).expect("write corpus");
        eprintln!(
            "blessed {} — review the diff before committing",
            path.display()
        );
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{} unreadable ({e}); generate it with L4SPAN_BLESS=1 \
             cargo test -q --test golden_fingerprints",
            path.display()
        )
    });
    let expected = parse(&text);
    let mut drift = Vec::new();
    for (name, ccs) in &actual {
        for (cc, digest) in ccs {
            match expected.get(name).and_then(|m| m.get(cc)) {
                Some(want) if want == digest => {}
                Some(want) => drift.push(format!(
                    "{name}/{cc}: fingerprint drifted ({want} → {digest})"
                )),
                None => drift.push(format!("{name}/{cc}: missing from the corpus")),
            }
        }
    }
    // Stale entries are drift too: a renamed scenario must be re-blessed.
    for (name, ccs) in &expected {
        for cc in ccs.keys() {
            if actual.get(name).and_then(|m| m.get(cc)).is_none() {
                drift.push(format!("{name}/{cc}: in the corpus but no longer produced"));
            }
        }
    }
    assert!(
        drift.is_empty(),
        "golden fingerprints drifted — if this change is intentional, \
         re-bless with L4SPAN_BLESS=1 and review the diff:\n  {}",
        drift.join("\n  ")
    );
}

#[test]
fn corpus_round_trips_through_the_parser() {
    let mut table: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    for (i, cc) in CCS.iter().enumerate() {
        table
            .entry("scenario_x".into())
            .or_default()
            .insert(cc.to_string(), format!("{i:016x}"));
    }
    table
        .entry("scenario_x".into())
        .or_default()
        .insert("fec-media".into(), "00000000000000ff".into());
    assert_eq!(parse(&render(&table)), table);
}
