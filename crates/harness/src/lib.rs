//! Experiment harness: scenario construction, the discrete-event world,
//! metrics collection, and canned scenario builders for every figure in
//! the paper's evaluation (§6).
//!
//! * [`app`] — the pluggable application layer: the [`Application`]
//!   trait plus the built-in FramedVideo / RequestResponse /
//!   TraceReplay workloads and their QoE unit tagging (a Bulk profile
//!   is run by its transport);
//! * [`scenario`] — declarative scenario configs (cells, UEs, flows as
//!   application × transport pairs, marker, channel profiles, mobility
//!   trajectories, wired bottlenecks);
//! * `endpoint` (crate-private) — the flow plane's boundary: a flow's
//!   transport sender/receiver pair behind one form of every
//!   operation, so the world never matches on the transport kind;
//! * [`world`] — the event loop wiring content servers, WAN links, an
//!   optional wired plane, the CU marker (L4Span or a baseline), an
//!   N-cell RAN with runtime handover, and the UE stacks — carrying
//!   data in **both directions**: downlink flows from content servers,
//!   and uplink flows whose senders live at the UE behind grant/BSR-
//!   driven uplink slots with a UE-side L4Span marker instance;
//! * [`marker`] — the CU-side marking adapters: L4Span, DualPi2-at-CU
//!   (§6.3.1 ablation), TC-RAN CoDel/ECN-CoDel (§6.2.2 baseline), or
//!   nothing;
//! * [`metrics`] — one-way delay, RTT, throughput time series, RLC queue
//!   CDFs, delay breakdowns, estimation-error samples, and the one
//!   sample store a world records into;
//! * [`impairment`] — mid-path internet impairments between server
//!   egress and the core: ECT bleaching, codepoint remarking, ECT drop,
//!   and an RFC 3168 classic-ECN single-queue hop;
//! * [`wired`] — the wired plane: the impairment stages and the
//!   bottleneck router as one chain of hops, which the world's event
//!   loop drives;
//! * [`dci`] — synthetic DCI/MCS traces and the channel stable-period
//!   CDF of Fig. 18;
//! * [`runner`] — parallel execution of independent scenario batches
//!   with a strict determinism contract (per-scenario seeds, results in
//!   input order, fingerprints independent of worker-thread count).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod bond;
pub mod dci;
mod endpoint;
pub mod impairment;
pub mod marker;
pub mod metrics;
pub mod runner;
pub mod scenario;
pub mod shard;
pub mod wired;
pub mod world;

pub use app::{AppProfile, Application};
pub use bond::{BondJoin, BondTx, SbdDetector};
pub use impairment::{ImpairmentCounters, ImpairmentSpec, StageSpec};
pub use marker::MarkerKind;
pub use metrics::{
    BondStat, FallbackRecord, FecStat, HandoverRecord, Report, ShardStat, StoreShare,
};
pub use runner::{run_batch, run_batch_on};
pub use scenario::{
    ChannelMix, FlowDir, FlowSpec, MobilitySpec, MobilityStep, ScenarioConfig, TransportSpec,
    UeSpec,
};
pub use shard::{plan_shards_reason, run_sharded, ShardReject};
pub use world::World;

/// Run a scenario to completion and return its report.
pub fn run(cfg: ScenarioConfig) -> Report {
    World::new(cfg).run()
}
