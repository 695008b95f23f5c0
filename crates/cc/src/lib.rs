//! Transport endpoints for the L4Span reproduction.
//!
//! Implements the senders the paper evaluates (§6.1 and Appendix B) as
//! byte-accurate, event-driven state machines:
//!
//! * [`reno`] — TCP Reno (RFC 5681 additive increase / multiplicative
//!   decrease, classic ECN);
//! * [`cubic`] — CUBIC (RFC 9438 window growth, classic ECN);
//! * [`prague`] — TCP Prague (DCTCP-style scalable response, ECT(1),
//!   AccECN feedback);
//! * [`bbr`] — BBRv1 (model-based, ECN-oblivious);
//! * [`bbr2`] — BBRv2 (adds the DCTCP/L4S-like CE response, ECT(1));
//! * [`scream`] — SCReAM-style interactive video rate control over
//!   RTP/UDP (RFC 8298 flavour, L4S-aware);
//! * [`udp_prague`] — UDP Prague for interactive applications;
//! * [`nada`] — NADA (RFC 8698), the IETF rmcat interactive-media
//!   controller (aggregate delay + mark signal, PI update);
//! * [`fec`] — the sliding-window FEC/ARQ media endpoint: systematic
//!   repair packets over the last W sources, NACK-driven ARQ with
//!   frame-deadline abandonment, NADA-rated, bonding-aware;
//! * [`tcp`] — the sender/receiver machinery: handshake, loss recovery,
//!   classic-ECN echo (ECE/CWR) and AccECN byte counters;
//! * [`wan`] — fixed-delay WAN path segments.
//!
//! All senders expose the [`CongestionControl`] trait so the harness can
//! swap them per scenario, exactly as the paper swaps `iperf3` congestion
//! control modules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bbr;
pub mod bbr2;
pub mod cc;
pub mod cubic;
pub mod fec;
pub mod nada;
pub mod prague;
pub mod registry;
pub mod reno;
pub mod scream;
pub mod tcp;
pub mod udp_prague;
pub mod wan;

pub use cc::{AckSample, CcEvent, CongestionControl, EcnMode, FallbackReason, WindowedMin};
pub use fec::{FecFeedback, FecLegStats, FecMediaReceiver, FecMediaSender};
pub use nada::{NadaCc, NadaCore};
pub use registry::{CcEntry, CcKind, UnknownCc, REGISTRY};
pub use tcp::{TcpReceiver, TcpSender};
pub use wan::WanLink;
