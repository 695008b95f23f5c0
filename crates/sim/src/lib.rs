//! Discrete-event simulation substrate for the L4Span reproduction.
//!
//! This crate provides the building blocks every other crate in the
//! workspace rests on:
//!
//! * [`time`] — virtual [`Instant`]/[`Duration`] types with nanosecond
//!   resolution. All timestamps in the simulated 5G network (PDCP ingress
//!   times, RLC transmission times, F1-U feedback timestamps, TCP
//!   timestamps) are expressed in these units.
//! * [`queue`] — a deterministic, stable [`EventQueue`]: events scheduled
//!   for the same instant fire in insertion order, which keeps whole-system
//!   runs bit-for-bit reproducible; a timer owner re-arming earlier moves
//!   its one entry instead of leaving a superseded one behind.
//! * [`rng`] — a seedable deterministic random source ([`SimRng`]) with the
//!   distributions the channel models and AQMs need (uniform, Bernoulli,
//!   Gaussian, exponential).
//! * [`stats`] — statistics used throughout the evaluation harness:
//!   percentiles, box-plot summaries, CDFs, Welford running moments, and
//!   exponentially-weighted moving averages.
//! * [`hash`] — a deterministic fast hasher ([`FxHashMap`]) for the
//!   per-packet lookup tables on the simulator's hot path.
//!
//! * [`cycles`] — an opt-in per-subsystem wall-clock accumulator
//!   ([`CycleScope`]) behind the perf-attribution tooling.
//!
//! The design follows the smoltcp idiom: passive state machines driven by
//! explicit `poll`-style calls with an explicit notion of *now*. Nothing
//! *simulated* ever depends on wall-clock time — the only consumers of the
//! OS clock are the measurement scopes ([`cycles`]), whose readings feed
//! reports, never the simulation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cycles;
pub mod fastmath;
pub mod hash;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use cycles::{CycleScope, CycleStat};
pub use hash::{FxHashMap, FxHashSet};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use stats::{BoxStats, Cdf, Ewma, RunningStats};
pub use time::{Duration, Instant};
