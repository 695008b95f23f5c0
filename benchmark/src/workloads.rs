//! The five workloads: canned public scenario constructors at durations
//! fixed by the benchmark. Nothing but the generated `ScenarioConfig`
//! reaches the simulator.

use l4span_cc::WanLink;
use l4span_harness::scenario::{self, ChannelMix, ScenarioConfig};
use l4span_harness::MarkerKind;
use l4span_sim::Duration;

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// Simulated seconds per run. Sized so a run lasts seconds of host
    /// time: the event-growth pathology on the marker-on TCP cells only
    /// shows beyond ~40 simulated seconds.
    pub sim_s: u64,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "cell_l4s_16ue",
        sim_s: 80,
        why: "paper's case: 16 Prague UEs, L4Span on; event-queue and transport bound (91 events/pkt)",
    },
    Workload {
        name: "cell_bare_16ue",
        sim_s: 80,
        why: "same cell, marker off: bypasses core, deep RLC queues, gNB MAC/RLC bound (15 events/pkt)",
    },
    Workload {
        name: "bbr2_mobile_8ue",
        sim_s: 40,
        why: "8 BBRv2 UEs: cc does most of the work, same ran/core code under half the UEs",
    },
    Workload {
        name: "xr_bonded_ul_8dev",
        sim_s: 120,
        why: "uplink the other way round: grants/BSR, UE-side marker, FEC/NADA media, bond join; allocation heavy",
    },
    Workload {
        name: "metro_1000ue_50cell",
        sim_s: 2,
        why: "1000 UEs in 50 cells on one thread: working set beyond cache, only workload with measurable set-up",
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Build the scenario for `seed`, lasting `sim_s` simulated seconds
    /// (the tests shorten it; every measured run uses `self.sim_s`).
    pub fn config(&self, seed: u64, sim_s: u64) -> ScenarioConfig {
        let d = Duration::from_secs(sim_s);
        let cell = |n, cc, marker| {
            scenario::congested_cell(
                n,
                cc,
                ChannelMix::Mobile,
                16_384,
                WanLink::east(),
                marker,
                seed,
                d,
            )
        };
        match self.name {
            "cell_l4s_16ue" => cell(16, "prague", scenario::l4span_default()),
            "cell_bare_16ue" => cell(16, "prague", MarkerKind::None),
            "bbr2_mobile_8ue" => cell(8, "bbr2", scenario::l4span_default()),
            "xr_bonded_ul_8dev" => scenario::bonded_xr_8ue(seed, d),
            "metro_1000ue_50cell" => scenario::metro_1000ue_50cell("prague", seed, d),
            other => unreachable!("unknown workload {other}"),
        }
    }
}
