//! Shard-count invariance matrix.
//!
//! The sharding contract (PR 8): for an eligible scenario — per-cell CU
//! marker, no wired bottleneck, ≥ 2 cells — `run_sharded` must produce
//! a [`Report::fingerprint`] **byte-identical** to the single-world run
//! at *any* shard count, because shards exchange their only cross-cell
//! edges (Xn handovers, migrated in-flight events, post-handover uplink
//! stragglers) through deterministic slot-boundary mailboxes.
//! `run_sharded` and `World::run` are one body with a replica count,
//! and one shard is the one world running every cell cell-major, so
//! this matrix pins the replicas against the one-world cell-major run.
//! That run is pinned against the same world run off one queue, event
//! for event, by the harness crate's `cell_major_matches_time_major_*`
//! tests.
//!
//! `Report::events` is outside the fingerprint (it counts the
//! simulator's work, not the model's output) but carries the same
//! guarantee — as does its per-class breakdown `Report::event_counts`
//! and the radio model's work count `Report::fading_evals` — so every
//! comparison below is on all four.

use l4span::cc::WanLink;
use l4span::core::HandoverPolicy;
use l4span::harness::{
    plan_shards_reason, run_sharded, scenario, AppProfile, FlowSpec, Report, ScenarioConfig,
    ShardReject, TransportSpec,
};
use l4span::ran::config::RlcMode;
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

/// The same world carrying downlink SCReAM video instead of TCP, on
/// bearers in RLC `mode`: frame QoE and the handover log both cross the
/// replicas. (An uplink SCReAM leg would make it ineligible:
/// `StepUnderTickPacedUplink`.)
fn handover_scream(mode: RlcMode, secs: u64) -> ScenarioConfig {
    let mut cfg = handover_percell("prague", secs);
    for ue in &mut cfg.ues {
        ue.drbs = vec![(0, mode)];
    }
    for (i, f) in cfg.flows.iter_mut().enumerate() {
        let video = AppProfile::video(25.0, 0.5e6, 2.0e6, 20.0e6);
        *f = FlowSpec::new(i, video, TransportSpec::scream(), WanLink::east(), f.start);
    }
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
fn handover_2cell_invariant_across_shard_counts() {
    for cc in ["prague", "cubic", "bbr2"] {
        let base = digest(handover_percell(cc, 2), 1);
        for shards in [2, 4] {
            // 4 shards on 2 cells plans down to 2 — still must match.
            assert_eq!(
                digest(handover_percell(cc, 2), shards),
                base,
                "handover_2cell cc={cc} shards={shards}"
            );
        }
    }
    for mode in [RlcMode::Am, RlcMode::Um] {
        assert_eq!(
            plan_shards_reason(&handover_scream(mode, 3), 2),
            (2, None),
            "{mode:?}: eligible"
        );
        let one = run_sharded(handover_scream(mode, 3), 1);
        assert!(
            one.frames_delivered.iter().sum::<u64>() > 0,
            "{mode:?}: frames complete"
        );
        assert!(!one.handovers.is_empty(), "{mode:?}: UEs hand over");
        let two = digest(handover_scream(mode, 3), 2);
        assert_eq!(
            two,
            outcome(&one),
            "handover_2cell scream {mode:?} shards=2"
        );
    }
}

#[test]
fn metro_invariant_across_shard_counts() {
    for cc in ["prague", "cubic", "bbr2"] {
        let base = digest(metro_small(cc), 1);
        for shards in [2, 4] {
            assert_eq!(
                digest(metro_small(cc), shards),
                base,
                "metro cc={cc} shards={shards}"
            );
        }
    }
}

#[test]
fn metro_canonical_short_invariant() {
    // The full 1000-UE / 50-cell canonical world, short sim: covers the
    // first four staggered handovers and the whole flow-start ramp.
    let cfg = || scenario::metro_1000ue_50cell("prague", 11, Duration::from_millis(400));
    assert_eq!(digest(cfg(), 4), digest(cfg(), 1), "metro_1000ue_50cell");
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
    assert_eq!(
        plan_shards_reason(&central, 4),
        (1, Some(ShardReject::CentralCuMarker))
    );

    let single_cell = scenario::congested_cell(
        2,
        "cubic",
        scenario::ChannelMix::Static,
        16_384,
        l4span::cc::WanLink::east(),
        scenario::l4span_default(),
        7,
        Duration::from_secs(1),
    );
    assert_eq!(
        plan_shards_reason(&single_cell, 4),
        (1, Some(ShardReject::SingleCell))
    );
}

#[test]
fn impairment_forces_the_classic_path_with_a_reason() {
    // Impairment stages are a wired plane: they serialize every flow
    // through shared mid-path hops, so the scenario can never shard:
    // `run_sharded` at any count must match the classic run
    // byte-for-byte and the report must say why sharding was rejected.
    let cfg = || {
        scenario::impaired_path_cell(
            2,
            "prague-fallback",
            l4span::harness::ImpairmentSpec::bleaching(0.25).then_classic_hop(30e6),
            scenario::l4span_default(),
            7,
            Duration::from_secs(1),
        )
    };
    let (n, why) = l4span::harness::plan_shards_reason(&cfg(), 4);
    assert_eq!((n, why), (1, Some(ShardReject::WiredPlane)));
    let classic = l4span::harness::run(cfg());
    let sharded = run_sharded(cfg(), 4);
    assert_eq!(
        outcome(&sharded),
        outcome(&classic),
        "impairment → classic path at any shard count"
    );
    assert_eq!(sharded.shard_reject, Some(ShardReject::WiredPlane));
    assert!(
        classic.impairment.is_some(),
        "pipeline counters present in the report"
    );
}

#[test]
fn single_shard_is_the_classic_code_path() {
    // A central-marker scenario is ineligible: `run_sharded` at any
    // requested count must return exactly what `harness::run` returns.
    let cfg = || {
        scenario::handover_cell(
            2,
            "cubic",
            Duration::from_secs(1),
            HandoverPolicy::MigrateState,
            scenario::l4span_default(),
            7,
            Duration::from_secs(1),
        )
    };
    let classic = outcome(&l4span::harness::run(cfg()));
    assert_eq!(digest(cfg(), 4), classic, "ineligible → classic path");
    // And an eligible scenario explicitly asked to run on one shard
    // runs as the one world.
    let classic_percell = outcome(&l4span::harness::run(handover_percell("cubic", 1)));
    assert_eq!(
        digest(handover_percell("cubic", 1), 1),
        classic_percell,
        "one shard → classic path"
    );
}

#[test]
fn bonded_flows_plan_to_one_shard_and_stay_invariant() {
    // A bonded flow spans two cells by construction, so the planner
    // must refuse to shard it — and any requested shard count must
    // still produce the classic single-world bytes.
    let cfg = || scenario::bonded_xr_8ue(7, Duration::from_secs(1));
    assert_eq!(
        plan_shards_reason(&cfg(), 2),
        (1, Some(ShardReject::BondedFlow))
    );
    assert_eq!(
        plan_shards_reason(&cfg(), 4),
        (1, Some(ShardReject::BondedFlow))
    );
    let base = digest(cfg(), 1);
    for shards in [2, 4] {
        assert_eq!(digest(cfg(), shards), base, "bonded_xr_8ue shards={shards}");
    }
    let r = run_sharded(cfg(), 4);
    assert_eq!(r.shard_reject, Some(ShardReject::BondedFlow));
}
