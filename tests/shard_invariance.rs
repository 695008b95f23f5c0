//! What the equivalence corpus cannot check row by row.
//!
//! Every golden row is checked at 2 and at 4 replicas against the
//! one-world run (`tests/golden_fingerprints.rs`, property P4), the
//! per-cell handover and metro rows on genuine replicas. Two checks are
//! left here: the epoch thread count against sequential epochs (a
//! process-wide `L4SPAN_THREADS` toggle the corpus cannot flip per
//! row), including more replicas than threads; and the planner's
//! reason for every shape it refuses.
//!
//! `Report::events` is outside the fingerprint (it counts the
//! simulator's work, not the model's output) but carries the same
//! guarantee — as does its per-class breakdown `Report::event_counts`
//! and the radio model's work count `Report::fading_evals` — so every
//! comparison below is on all four.

use l4span::cc::WanLink;
use l4span::core::HandoverPolicy;
use l4span::harness::{
    plan_shards_reason, run_sharded, scenario, ImpairmentSpec, Report, ScenarioConfig, ShardReject,
};
use l4span::sim::Duration;

/// Pops per event class, as `Report::event_counts` lists them.
type EventCounts = Vec<(&'static str, u64)>;

/// What must not depend on the shard count: (fingerprint digest,
/// events popped, events popped per class, fading evaluations).
fn outcome(r: &Report) -> (String, u64, EventCounts, u64) {
    assert_eq!(
        r.event_counts.iter().map(|&(_, n)| n).sum::<u64>(),
        r.events,
        "per-class event counts must add up to the total"
    );
    (
        r.fingerprint_digest(),
        r.events,
        r.event_counts.clone(),
        r.fading_evals,
    )
}

fn digest(cfg: ScenarioConfig, shards: usize) -> (String, u64, EventCounts, u64) {
    outcome(&run_sharded(cfg, shards))
}

/// The canonical 2-cell handover scenario with the per-cell CU
/// deployment that makes it shardable.
fn handover_percell(cc: &str, secs: u64) -> ScenarioConfig {
    let mut cfg = scenario::handover_cell(
        4,
        cc,
        Duration::from_secs(1),
        HandoverPolicy::MigrateState,
        scenario::l4span_default(),
        7,
        Duration::from_secs(secs),
    );
    cfg.cu_per_cell = true;
    cfg
}

/// A small metro (8 cells × 3 UEs, one mover) that still exercises
/// every cross-shard mechanism: per-cell markers, cross-shard Xn
/// handover, in-flight event migration, and straggler mail.
fn metro_small(cc: &str) -> ScenarioConfig {
    scenario::metro_city(
        8,
        3,
        cc,
        scenario::l4span_default(),
        11,
        Duration::from_millis(2_600),
    )
}

#[test]
fn parallel_epochs_match_sequential() {
    // Epochs are independent between barriers, so the thread count must
    // not leak into results. `L4SPAN_THREADS` only toggles execution
    // strategy; digests are compared across the toggle.
    std::env::set_var("L4SPAN_THREADS", "1");
    let seq = digest(handover_percell("cubic", 2), 2);
    let seq_metro = digest(metro_small("cubic"), 8);
    std::env::set_var("L4SPAN_THREADS", "4");
    let par = digest(handover_percell("cubic", 2), 2);
    // More shards than threads: each worker runs a strided subset of
    // the replicas (shards 0, 2, 4, 6 and 1, 3, 5, 7).
    std::env::set_var("L4SPAN_THREADS", "2");
    let par_metro = digest(metro_small("cubic"), 8);
    std::env::remove_var("L4SPAN_THREADS");
    assert_eq!(par, seq, "parallel vs sequential epochs");
    assert_eq!(par_metro, seq_metro, "8 shards on 2 threads vs sequential");
    assert_eq!(
        seq_metro,
        digest(metro_small("cubic"), 1),
        "8 shards vs one world"
    );
}

#[test]
fn ineligible_scenarios_plan_to_one_shard() {
    let metro = metro_small("cubic");
    assert_eq!(plan_shards_reason(&metro, 4), (4, None));
    assert_eq!(
        plan_shards_reason(&metro, 64),
        (8, None),
        "capped at the cell count"
    );
    assert_eq!(plan_shards_reason(&metro, 1), (1, None));

    let mut central = metro_small("cubic");
    central.cu_per_cell = false;
    let single_cell = scenario::congested_cell(
        2,
        "cubic",
        scenario::ChannelMix::Static,
        16_384,
        WanLink::east(),
        scenario::l4span_default(),
        7,
        Duration::from_secs(1),
    );
    // Impairment stages are a wired plane: they serialize every flow
    // through shared mid-path hops.
    let impaired = scenario::impaired_path_cell(
        2,
        "prague-fallback",
        ImpairmentSpec::bleaching(0.25).then_classic_hop(30e6),
        scenario::l4span_default(),
        7,
        Duration::from_secs(1),
    );
    // A bonded flow spans two cells by construction.
    let bonded = scenario::bonded_xr_8ue(7, Duration::from_secs(1));
    for (name, cfg, why) in [
        ("metro, central CU", &central, ShardReject::CentralCuMarker),
        ("single cell", &single_cell, ShardReject::SingleCell),
        ("impaired path", &impaired, ShardReject::WiredPlane),
        ("bonded_xr_8ue", &bonded, ShardReject::BondedFlow),
    ] {
        for want in [2, 4] {
            assert_eq!(
                plan_shards_reason(cfg, want),
                (1, Some(why)),
                "{name} at {want}"
            );
        }
    }
}
