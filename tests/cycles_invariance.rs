//! Cycle accounting: what the spans record, and at what replica count.
//!
//! The `CycleScope` spans in the harness read the OS clock, but nothing
//! they record feeds back into the event stream, RNG draws, or metrics
//! that enter [`Report::fingerprint`]. That "zero behavioural footprint"
//! claim (`l4span_sim::cycles`, the `fig_breakdown` tool) is checked on
//! every golden row: with `measure_cycles` on, the digest, the event
//! count and the peak queue depth are those of the run with it off
//! (`tests/golden_fingerprints.rs`, property P2). The tests here check
//! the spans themselves.

use l4span::cc::WanLink;
use l4span::harness::{self, scenario, scenario::ChannelMix};
use l4span::sim::Duration;

fn base_cfg() -> scenario::ScenarioConfig {
    scenario::congested_cell(
        4,
        "prague",
        ChannelMix::Mobile,
        16_384,
        WanLink::east(),
        scenario::l4span_default(),
        7,
        Duration::from_secs(1),
    )
}

#[test]
fn span_calls_are_exact_at_any_replica_count() {
    // `Report::cycles` sums every replica's spans, so how many of each
    // there were does not depend on how the cells were split.
    let calls = |replicas| {
        let mut cfg = scenario::metro_city(
            8,
            3,
            "cubic",
            scenario::l4span_default(),
            11,
            Duration::from_millis(600),
        );
        cfg.measure_cycles = true;
        let r = harness::run_sharded(cfg, replicas);
        assert_eq!(r.shards.len(), if replicas > 1 { replicas } else { 0 });
        r.cycles
            .iter()
            .map(|c| (c.label, c.calls))
            .collect::<Vec<_>>()
    };
    let one = calls(1);
    assert!(one.iter().any(|&(_, n)| n > 0), "{one:?}");
    assert_eq!(calls(3), one, "one world and three replicas");
}

#[test]
fn cycles_report_empty_when_disabled_and_populated_when_enabled() {
    let off = harness::run(base_cfg());
    assert!(
        off.cycles.iter().all(|s| s.calls == 0),
        "disabled scopes must record nothing"
    );
    let mut cfg = base_cfg();
    cfg.measure_cycles = true;
    let on = harness::run(cfg);
    let total_calls: u64 = on.cycles.iter().map(|s| s.calls).sum();
    assert!(total_calls > 0, "enabled scopes must record spans");
    // The per-slot subsystems must have fired in a congested scenario.
    for label in ["gnb", "marker", "transport", "event_queue"] {
        let stat = on
            .cycles
            .iter()
            .find(|s| s.label == label)
            .unwrap_or_else(|| panic!("missing cycle label {label}"));
        assert!(stat.calls > 0, "{label} should have recorded calls");
    }
}
