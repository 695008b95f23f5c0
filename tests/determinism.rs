//! Cross-CC determinism matrix: for every congestion controller the
//! paper evaluates, the same seeded scenario must reproduce byte-for-byte,
//! and different seeds must actually change the run.
//!
//! This is the property every later scaling/perf PR leans on: if a
//! refactor perturbs event ordering or RNG stream assignment anywhere in
//! the stack, one of these fingerprints moves and the matrix fails.
//!
//! The matrix runs on the parallel scenario runner, which also pins the
//! runner's own contract: a batch fingerprints identically whether it
//! runs on one worker thread or many.

use l4span::cc::WanLink;
use l4span::core::HandoverPolicy;
use l4span::harness::{self, scenario, scenario::ChannelMix};
use l4span::sim::Duration;

/// One short congested-cell run config; the fingerprint digests every
/// simulation-derived field of the report.
fn config(cc: &str, seed: u64) -> scenario::ScenarioConfig {
    scenario::congested_cell(
        2,
        cc,
        ChannelMix::Mobile,
        16_384,
        WanLink::east(),
        scenario::l4span_default(),
        seed,
        Duration::from_secs(1),
    )
}

/// A 2-cell scenario with a genuine mid-run handover per UE: the
/// mobility path (Xn context transfer, PDCP re-establishment, marker
/// migration, interruption accounting) must be exactly as reproducible
/// as the single-cell path.
fn ho_config(cc: &str, seed: u64) -> scenario::ScenarioConfig {
    scenario::handover_cell(
        2,
        cc,
        Duration::from_millis(400),
        HandoverPolicy::MigrateState,
        scenario::l4span_default(),
        seed,
        Duration::from_secs(1),
    )
}

/// The mixed interactive-applications scenario: FramedVideo (frame OWD,
/// deadline misses, stall), RequestResponse (completion times), and Bulk
/// flows together — the QoE series join the fingerprint here.
fn apps_config(cc: &str, seed: u64) -> scenario::ScenarioConfig {
    scenario::interactive_apps_mixed(
        2,
        cc,
        scenario::l4span_default(),
        seed,
        Duration::from_secs(1),
    )
}

/// The bidirectional-call scenario: uplink data flows through SR/BSR,
/// grant allocation, UL HARQ, gNB-side reassembly, and the UE-side
/// marker — every one of those paths must reproduce byte-for-byte, on
/// any worker count.
fn bidir_config(cc: &str, seed: u64) -> scenario::ScenarioConfig {
    scenario::video_call_bidir(
        2,
        cc,
        scenario::l4span_default(),
        seed,
        Duration::from_secs(1),
    )
}

fn assert_matrix(mk: impl Fn(u64) -> scenario::ScenarioConfig, label: &str) {
    // Same seed twice plus a different seed: once through the default
    // runner (worker count = available parallelism, or pinned via
    // L4SPAN_THREADS — which is how CI exercises 1 vs N workers), and
    // once strictly sequentially.
    let batch = || vec![mk(7), mk(7), mk(8)];
    let par: Vec<String> = harness::run_batch(batch())
        .iter()
        .map(|r| r.fingerprint())
        .collect();
    let seq: Vec<String> = harness::run_batch_on(batch(), 1)
        .iter()
        .map(|r| r.fingerprint())
        .collect();
    assert_eq!(
        par[0], par[1],
        "{label}: same seed must give a byte-identical report"
    );
    assert_ne!(
        par[0], par[2],
        "{label}: a different seed must change the run"
    );
    assert_eq!(
        par, seq,
        "{label}: fingerprints must not depend on worker-thread count"
    );
}

fn assert_deterministic(cc: &str) {
    assert_matrix(|seed| config(cc, seed), cc);
}

fn assert_handover_deterministic(cc: &str) {
    assert_matrix(|seed| ho_config(cc, seed), &format!("handover/{cc}"));
}

/// The impairment pipeline (PR 9) rides dedicated derived RNG streams,
/// so its counters — and the fallback records they trigger — must be as
/// worker-invariant as everything else in the fingerprint.
fn impaired_config(cc: &str, seed: u64) -> scenario::ScenarioConfig {
    scenario::impaired_path_cell(
        2,
        cc,
        l4span::harness::ImpairmentSpec::bleaching(0.25).then_classic_hop(30e6),
        scenario::l4span_default(),
        seed,
        Duration::from_secs(1),
    )
}

#[test]
fn impaired_prague_fallback_is_deterministic() {
    assert_matrix(
        |seed| impaired_config("prague-fallback", seed),
        "impaired/prague-fallback",
    );
}

#[test]
fn impaired_cubic_is_deterministic() {
    assert_matrix(|seed| impaired_config("cubic", seed), "impaired/cubic");
}

#[test]
fn reno_is_deterministic() {
    assert_deterministic("reno");
}

#[test]
fn cubic_is_deterministic() {
    assert_deterministic("cubic");
}

#[test]
fn prague_is_deterministic() {
    assert_deterministic("prague");
}

#[test]
fn bbr_is_deterministic() {
    assert_deterministic("bbr");
}

#[test]
fn bbr2_is_deterministic() {
    assert_deterministic("bbr2");
}

#[test]
fn handover_reno_is_deterministic() {
    assert_handover_deterministic("reno");
}

#[test]
fn handover_cubic_is_deterministic() {
    assert_handover_deterministic("cubic");
}

#[test]
fn handover_prague_is_deterministic() {
    assert_handover_deterministic("prague");
}

#[test]
fn handover_bbr_is_deterministic() {
    assert_handover_deterministic("bbr");
}

#[test]
fn handover_bbr2_is_deterministic() {
    assert_handover_deterministic("bbr2");
}

#[test]
fn apps_mixed_prague_is_deterministic() {
    assert_matrix(|seed| apps_config("prague", seed), "apps/prague");
}

#[test]
fn apps_mixed_cubic_is_deterministic() {
    assert_matrix(|seed| apps_config("cubic", seed), "apps/cubic");
}

#[test]
fn apps_mixed_bbr2_is_deterministic() {
    assert_matrix(|seed| apps_config("bbr2", seed), "apps/bbr2");
}

#[test]
fn bidir_prague_is_deterministic() {
    assert_matrix(|seed| bidir_config("prague", seed), "bidir/prague");
}

#[test]
fn bidir_cubic_is_deterministic() {
    assert_matrix(|seed| bidir_config("cubic", seed), "bidir/cubic");
}

#[test]
fn bidir_bbr2_is_deterministic() {
    assert_matrix(|seed| bidir_config("bbr2", seed), "bidir/bbr2");
}

#[test]
fn bidir_uplink_series_are_populated_and_seed_sensitive() {
    // Guard against the vacuous pass: the bidirectional fingerprints
    // above must actually be digesting uplink data.
    let r = harness::run(bidir_config("prague", 7));
    assert!(r.ul_owd_ms.iter().any(|v| !v.is_empty()));
    assert!(!r.ul_queue_series.is_empty());
}

#[test]
fn handover_cold_start_policy_is_deterministic_and_distinct() {
    // The ColdStart marker policy is its own code path through the
    // handover; it must be just as reproducible, and must not collide
    // with MigrateState's fingerprint.
    let cold = |seed| {
        scenario::handover_cell(
            2,
            "prague",
            Duration::from_millis(400),
            HandoverPolicy::ColdStart,
            scenario::l4span_default(),
            seed,
            Duration::from_secs(1),
        )
    };
    assert_matrix(cold, "handover/cold-start");
    let c = harness::run(cold(7)).fingerprint();
    let m = harness::run(ho_config("prague", 7)).fingerprint();
    assert_ne!(c, m, "policies must alter the run");
}

/// Bonded dual-connectivity flows (PR 10): leg striping, the server-side
/// reorder/join, the shared-bottleneck detector, and the FEC/ARQ ledgers
/// all join the fingerprint — and must reproduce byte-for-byte on any
/// worker count.
fn bonded_config(cc: &str, seed: u64) -> scenario::ScenarioConfig {
    scenario::xr_bonding_cell(
        4,
        cc,
        scenario::l4span_default(),
        true,
        seed,
        Duration::from_secs(1),
    )
}

#[test]
fn bonded_fec_media_is_deterministic() {
    assert_matrix(|seed| bonded_config("fec-media", seed), "bonded/fec-media");
}

#[test]
fn bonded_cubic_is_deterministic() {
    assert_matrix(|seed| bonded_config("cubic", seed), "bonded/cubic");
}

#[test]
fn bonded_xr_8ue_is_deterministic() {
    // The benchmark's `xr_bonded_ul_8dev` world itself (8 devices × 2
    // legs): the exact world whose digest the benchmark records must be
    // worker-invariant, not just a smaller cousin. Seed variation is
    // covered by the matrix's third run; `bonded_xr_8ue` fixes every
    // other knob by design.
    assert_matrix(
        |seed| scenario::bonded_xr_8ue(seed, Duration::from_secs(1)),
        "bonded/xr_8ue",
    );
}

#[test]
fn nada_single_leg_is_deterministic() {
    // NADA over TCP (the RFC 8698 controller without the FEC endpoint)
    // and the unbonded FEC-media path each get their own row.
    assert_matrix(
        |seed| {
            scenario::xr_bonding_cell(
                4,
                "nada",
                scenario::l4span_default(),
                false,
                seed,
                Duration::from_secs(1),
            )
        },
        "nada/single",
    );
    assert_matrix(
        |seed| {
            scenario::xr_bonding_cell(
                2,
                "fec-media",
                scenario::l4span_default(),
                false,
                seed,
                Duration::from_secs(1),
            )
        },
        "fec-media/single",
    );
}
