//! # L4Span — reproduction of "Spanning Congestion Signaling over NextG
//! # Networks for Interactive Applications" (CoNEXT 2025)
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! * [`core`] — the L4Span layer itself (packet profile table,
//!   egress-rate estimation, sojourn prediction, ECN marking strategies,
//!   feedback short-circuiting);
//! * [`ran`] — the discrete-event 5G RAN substrate (fading channels,
//!   PHY/MAC/HARQ, RLC AM/UM, PDCP, F1-U, SDAP, gNB, UE);
//! * [`cc`] — transport endpoints (Reno, CUBIC, Prague, BBR, BBRv2 over
//!   a byte-accurate TCP; SCReAM; UDP Prague; WAN links);
//! * [`aqm`] — DualPi2, CoDel/ECN-CoDel, droptail and a bottleneck
//!   router;
//! * [`net`] — IPv4/TCP/UDP wire formats, ECN codepoints, AccECN, RFC
//!   1071 checksums;
//! * [`sim`] — virtual time, the deterministic event queue, seeded RNG,
//!   statistics;
//! * [`harness`] — scenario configs, the end-to-end world (with its
//!   optional wired plane of impairment hops and a bottleneck router),
//!   and metrics.
//!
//! ## Quickstart
//!
//! ```
//! use l4span::harness::{self, scenario};
//! use l4span::cc::WanLink;
//! use l4span::sim::Duration;
//!
//! // Four UEs, greedy Prague downloads, static channel, L4Span on.
//! let cfg = scenario::congested_cell(
//!     4, "prague", scenario::ChannelMix::Static, 16_384,
//!     WanLink::east(), scenario::l4span_default(),
//!     /*seed*/ 1, Duration::from_secs(2),
//! );
//! let report = harness::run(cfg);
//! let owd = report.owd_stats_pooled(&[0, 1, 2, 3]);
//! assert!(owd.median < 200.0, "L4S keeps the RAN queue shallow");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use l4span_aqm as aqm;
pub use l4span_cc as cc;
pub use l4span_core as core;
pub use l4span_harness as harness;
pub use l4span_net as net;
pub use l4span_ran as ran;
pub use l4span_sim as sim;

pub use l4span_harness::{MarkerKind, Report};
