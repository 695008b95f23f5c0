//! A discrete-event 5G RAN simulator: the substrate L4Span runs on.
//!
//! The paper's prototype lives inside srsRAN; this crate rebuilds the
//! slice of a 5G gNB that L4Span interacts with, as passive state machines
//! in the smoltcp idiom:
//!
//! * [`channel`] — per-UE Rayleigh fading (Jakes model) with static,
//!   pedestrian, and vehicular Doppler profiles;
//! * [`phy`] — SNR→CQI→MCS adaptation, transport-block sizing, TDD
//!   (DDDSU) slot structure, and the BLER model feeding HARQ;
//! * [`mac`] — round-robin and proportional-fair schedulers allocating
//!   resource-block groups per slot (downlink data and, since the
//!   bidirectional extension, BSR-driven uplink grants), plus HARQ
//!   retransmission;
//! * [`rlc`] — RLC Acknowledged and Unacknowledged modes with byte-level
//!   segmentation, ARQ status reporting, and bounded SDU queues (the deep
//!   default of 16384 SDUs or the short 256-SDU variant of Fig. 9);
//! * [`bearer`] + [`f1u`] — one bearer type for both directions (PDCP
//!   numbering over RLC, the receivers at the far end) and the 3GPP
//!   TS 38.425 *downlink data delivery status* feedback L4Span consumes;
//! * [`sdap`] — QFI→DRB mapping;
//! * [`ue`] — the UE-side stack: reassembly, in-order delivery, RLC
//!   status generation, modem/kernel delay, TDD uplink opportunities
//!   (the RAN "jitter" that feedback short-circuiting bypasses), and
//!   the uplink data plane — per-DRB transmit bearers with SR/BSR
//!   solicitation and grant-bounded transport-block building;
//! * [`gnb`] — the composition of all of the above into one cell.
//!
//! The crate deliberately knows nothing about L4Span: the hook points are
//! plain data (`PacketBuf` in, [`f1u::DlDataDeliveryStatus`] out), so the
//! core crate layers on top exactly as the paper's CU-UP module does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bearer;
pub mod channel;
pub mod config;
pub mod f1u;
pub mod gnb;
pub mod ids;
pub mod mac;
pub mod phy;
pub mod rlc;
pub mod sdap;
mod table;
pub mod ue;

pub use bearer::DrbHandoverState;
pub use channel::{ChannelProfile, FadingChannel};
pub use config::{CellConfig, RlcMode, SchedulerKind};
pub use f1u::DlDataDeliveryStatus;
pub use gnb::{Gnb, GnbStats, LinkStats, SlotOutput, UeHandoverCtx, UlTbOutcome};
pub use ids::{DrbId, UeId};
pub use ue::UeStack;
