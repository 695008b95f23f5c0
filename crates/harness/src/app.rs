//! The pluggable application/workload layer.
//!
//! L4Span's whole point is serving *interactive applications* over NextG
//! links, so the harness separates **what bytes are offered and when**
//! (the [`Application`]) from **how they cross the network** (the
//! `TransportSpec` in [`crate::scenario`]). A flow is now an
//! `(application, transport)` pair instead of a closed traffic enum:
//!
//! * [`AppProfile::Bulk`] — a greedy or size-limited download (the
//!   iperf3 workloads of §6.2), which the transport runs itself: TCP's
//!   `app_limit`, or the UDP Prague and FEC media senders' own clock;
//! * [`AppProfile::FramedVideo`] — a frame-paced encoder with an I/P
//!   keyframe pattern and a transport-rate adaptation hook (the SCReAM
//!   media source of §6.2.3, generalised so it also rides TCP);
//! * [`AppProfile::RequestResponse`] — RPC/web sessions: a response
//!   burst, a think time, repeat;
//! * [`AppProfile::TraceReplay`] — deterministic on/off bursts from an
//!   inline trace;
//! * [`AppProfile::Custom`] — any user [`Application`] implementation.
//!
//! Applications emit [`AppUnit`] boundaries (frames, requests) in their
//! byte stream; the world tracks each unit to its UE-side delivery and
//! reports application-level QoE — per-frame one-way delay, deadline
//! miss rate, stall time, request completion times — alongside the
//! packet-level series.

use std::fmt;
use std::sync::Arc;

use l4span_cc::scream::gop_frame_bytes;
use l4span_sim::{Duration, Instant};

/// What kind of logical unit a boundary closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitKind {
    /// A media frame: contributes to the frame OWD distribution, the
    /// deadline-miss rate, and stall time.
    Frame,
    /// A request/response (or trace burst): contributes to the
    /// completion-time distribution.
    Request,
}

/// A logical unit (frame, request) in an application's byte stream. The
/// unit spans up to `end_byte` (exclusive) of the app's cumulative
/// offered bytes; it completes when the receiver's in-order delivery
/// watermark passes `end_byte`.
#[derive(Debug, Clone, Copy)]
pub struct AppUnit {
    /// Frame or request.
    pub kind: UnitKind,
    /// End offset (exclusive) in the app's cumulative byte stream.
    pub end_byte: u64,
    /// Creation (capture / issue) timestamp: QoE latency is measured
    /// from here to UE-side delivery.
    pub created: Instant,
    /// Optional delivery deadline; a unit delivered later (or never)
    /// counts as a deadline miss.
    pub deadline: Option<Duration>,
}

/// A traffic source: decides *what* bytes are offered to the transport
/// and *when*. The transport (TCP under any [`l4span_cc::CcKind`], or
/// the self-clocked UDP transports) decides how they cross the network.
///
/// The harness drives an application with three signals: it calls
/// [`Application::on_tick`] at [`Application::next_activity`], reports
/// in-order delivery progress via [`Application::on_delivered`], and
/// (for adaptive sources) feeds transport rate estimates to
/// [`Application::on_rate_estimate`]. All state must derive from these
/// inputs only, so a scenario stays bit-reproducible regardless of
/// worker threads.
///
/// # Implementing a custom application
///
/// A telemetry beacon that offers one 256-byte sample every 20 ms:
///
/// ```
/// use l4span_harness::app::{Application, AppProfile, AppUnit, UnitKind};
/// use l4span_harness::scenario::{FlowSpec, ScenarioConfig, TransportSpec};
/// use l4span_harness::UeSpec;
/// use l4span_cc::{CcKind, WanLink};
/// use l4span_ran::ChannelProfile;
/// use l4span_sim::{Duration, Instant};
///
/// struct Beacon {
///     next_at: Instant,
///     offered: u64,
/// }
///
/// impl Application for Beacon {
///     fn next_activity(&self) -> Instant {
///         self.next_at
///     }
///     fn on_tick(&mut self, now: Instant, units: &mut Vec<AppUnit>) -> u64 {
///         let mut bytes = 0;
///         while now >= self.next_at {
///             self.offered += 256;
///             bytes += 256;
///             units.push(AppUnit {
///                 kind: UnitKind::Request,
///                 end_byte: self.offered,
///                 created: self.next_at,
///                 deadline: Some(Duration::from_millis(250)),
///             });
///             self.next_at += Duration::from_millis(20);
///         }
///         bytes
///     }
/// }
///
/// let mut cfg = ScenarioConfig::new(7, Duration::from_secs(1));
/// cfg.ues.push(UeSpec::simple(ChannelProfile::Static, 24.0));
/// cfg.flows.push(FlowSpec::new(
///     0,
///     AppProfile::custom("beacon", |start| {
///         Box::new(Beacon { next_at: start, offered: 0 })
///     }),
///     TransportSpec::tcp(CcKind::Cubic),
///     WanLink::east(),
///     Instant::ZERO,
/// ));
/// let report = l4span_harness::run(cfg);
/// // ~50 beacons fit the second; each completion is a request sample.
/// assert!(report.request_ms[0].len() > 20);
/// assert!(report.request_stats(0).median < 250.0);
/// ```
pub trait Application {
    /// Next instant this application wants [`Application::on_tick`];
    /// `Instant::MAX` when it is only waiting on delivery progress (or
    /// has nothing left to do).
    fn next_activity(&self) -> Instant;

    /// Called at (or after) [`Application::next_activity`]: returns the
    /// number of newly offered payload bytes (appended to the app's byte
    /// stream) and pushes the logical units completed *in that prefix*
    /// onto `units`, in stream order. The caller owns the buffer and
    /// hands it in empty.
    fn on_tick(&mut self, now: Instant, units: &mut Vec<AppUnit>) -> u64;

    /// The receiver's in-order delivery watermark advanced to
    /// `delivered` cumulative stream bytes.
    fn on_delivered(&mut self, delivered: u64, now: Instant) {
        let _ = (delivered, now);
    }

    /// The transport estimates it can currently sustain `bps` bit/s
    /// (rate-adaptation hook for encoders).
    fn on_rate_estimate(&mut self, bps: f64, now: Instant) {
        let _ = (bps, now);
    }

    /// `true` once the application will never offer bytes again; the
    /// transport can then treat a fully-acked stream as finished.
    fn done(&self) -> bool {
        false
    }

    /// The scenario's scheduled stop: cease offering new data.
    fn stop(&mut self) {}
}

/// Configuration of a [`FramedVideo`](AppProfile::FramedVideo) source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FramedVideoCfg {
    /// Frames per second.
    pub fps: f64,
    /// Minimum encoder bitrate (bit/s).
    pub min_bps: f64,
    /// Starting encoder bitrate (bit/s).
    pub start_bps: f64,
    /// Maximum encoder bitrate (bit/s).
    pub max_bps: f64,
    /// Every `keyframe_every`-th frame is a keyframe (`0` = uniform
    /// frame sizes).
    pub keyframe_every: u32,
    /// Keyframe size as a multiple of the GOP-average frame size.
    pub keyframe_boost: f64,
    /// Per-frame delivery deadline for QoE accounting.
    pub deadline: Duration,
}

impl FramedVideoCfg {
    /// A plain (uniform-frame) source with the default 100 ms deadline.
    pub fn new(fps: f64, min_bps: f64, start_bps: f64, max_bps: f64) -> FramedVideoCfg {
        FramedVideoCfg {
            fps,
            min_bps,
            start_bps,
            max_bps,
            keyframe_every: 0,
            keyframe_boost: 1.0,
            deadline: Duration::from_millis(100),
        }
    }

    /// Enable an I/P keyframe pattern.
    pub fn with_keyframes(mut self, every: u32, boost: f64) -> FramedVideoCfg {
        self.keyframe_every = every;
        self.keyframe_boost = boost;
        self
    }

    /// Frame cadence.
    pub fn frame_interval(&self) -> Duration {
        Duration::from_secs_f64(1.0 / self.fps)
    }

    /// Size of frame number `frame` (0-based) at `target_bps`, honouring
    /// the keyframe pattern ([`gop_frame_bytes`]), at least 200 bytes.
    pub fn frame_bytes(&self, frame: u64, target_bps: f64) -> usize {
        let (every, boost) = (self.keyframe_every, self.keyframe_boost);
        gop_frame_bytes(frame, target_bps, self.frame_interval(), every, boost).max(200)
    }
}

/// Configuration of a [`RequestResponse`](AppProfile::RequestResponse)
/// session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestResponseCfg {
    /// Response size in bytes (the downlink burst per request).
    pub response_bytes: u64,
    /// Think time between a response completing and the next request
    /// (the abstracted client round trip + user delay).
    pub think: Duration,
    /// Number of requests; `None` = keep going for the whole run.
    pub count: Option<u32>,
}

/// Configuration of a [`TraceReplay`](AppProfile::TraceReplay) source:
/// bursts at fixed offsets from the flow's start.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReplayCfg {
    /// `(offset from flow start, burst bytes)`, in offset order.
    pub entries: Vec<(Duration, u64)>,
}

/// A cloneable factory for [`Custom`](AppProfile::Custom) applications.
/// The closure receives the flow's start instant and returns a fresh
/// application (one per flow instantiation, so batch runs stay
/// independent).
#[derive(Clone)]
pub struct AppFactory {
    name: &'static str,
    make: Arc<dyn Fn(Instant) -> Box<dyn Application + Send> + Send + Sync>,
}

impl AppFactory {
    /// Wrap a constructor closure under a diagnostic name.
    pub fn new(
        name: &'static str,
        make: impl Fn(Instant) -> Box<dyn Application + Send> + Send + Sync + 'static,
    ) -> AppFactory {
        AppFactory {
            name,
            make: Arc::new(make),
        }
    }

    /// The diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Build one application instance for a flow starting at `start`.
    pub fn build(&self, start: Instant) -> Box<dyn Application + Send> {
        (self.make)(start)
    }
}

impl fmt::Debug for AppFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AppFactory({:?})", self.name)
    }
}

/// What a flow's application is — the declarative half of the
/// [`Application`] layer, carried in scenario configs.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub enum AppProfile {
    /// A greedy (`bytes: None`) or size-limited download.
    Bulk {
        /// Total payload bytes; `None` = long-lived greedy flow.
        bytes: Option<u64>,
    },
    /// A frame-paced, rate-adaptive video source.
    FramedVideo(FramedVideoCfg),
    /// An RPC/web session of response bursts separated by think times.
    RequestResponse(RequestResponseCfg),
    /// Deterministic bursts replayed from an inline trace.
    TraceReplay(TraceReplayCfg),
    /// A user-supplied [`Application`].
    Custom(AppFactory),
}

impl AppProfile {
    /// A long-lived greedy download.
    pub fn bulk() -> AppProfile {
        AppProfile::Bulk { bytes: None }
    }

    /// A download of exactly `bytes` payload bytes.
    pub fn sized(bytes: u64) -> AppProfile {
        AppProfile::Bulk { bytes: Some(bytes) }
    }

    /// A plain framed-video source (uniform frames, 100 ms deadline).
    pub fn video(fps: f64, min_bps: f64, start_bps: f64, max_bps: f64) -> AppProfile {
        AppProfile::FramedVideo(FramedVideoCfg::new(fps, min_bps, start_bps, max_bps))
    }

    /// An RPC/web session.
    pub fn request_response(
        response_bytes: u64,
        think: Duration,
        count: Option<u32>,
    ) -> AppProfile {
        AppProfile::RequestResponse(RequestResponseCfg {
            response_bytes,
            think,
            count,
        })
    }

    /// A trace replay of `(offset, bytes)` bursts.
    pub fn trace(entries: Vec<(Duration, u64)>) -> AppProfile {
        AppProfile::TraceReplay(TraceReplayCfg { entries })
    }

    /// A custom application built by `make` at flow start.
    pub fn custom(
        name: &'static str,
        make: impl Fn(Instant) -> Box<dyn Application + Send> + Send + Sync + 'static,
    ) -> AppProfile {
        AppProfile::Custom(AppFactory::new(name, make))
    }

    /// Build the runtime [`Application`] for a flow starting at `start`,
    /// or `None` for [`AppProfile::Bulk`], which the transport runs
    /// itself.
    pub fn instantiate(&self, start: Instant) -> Option<Box<dyn Application + Send>> {
        Some(match self {
            AppProfile::Bulk { .. } => return None,
            AppProfile::FramedVideo(cfg) => Box::new(FramedVideo::new(*cfg, start)),
            AppProfile::RequestResponse(cfg) => Box::new(RequestResponse::new(*cfg, start)),
            AppProfile::TraceReplay(cfg) => Box::new(TraceReplay::new(cfg.clone(), start)),
            AppProfile::Custom(factory) => factory.build(start),
        })
    }
}

// ---------------------------------------------------------------------
// The built-in implementations
// ---------------------------------------------------------------------

/// Frame-paced adaptive video (see [`AppProfile::FramedVideo`]).
#[derive(Debug)]
pub struct FramedVideo {
    cfg: FramedVideoCfg,
    target_bps: f64,
    next_frame_at: Instant,
    frame_count: u64,
    offered: u64,
    stopped: bool,
}

impl FramedVideo {
    /// Source starting its frame clock at `start`.
    pub fn new(cfg: FramedVideoCfg, start: Instant) -> FramedVideo {
        FramedVideo {
            cfg,
            target_bps: cfg.start_bps,
            next_frame_at: start,
            frame_count: 0,
            offered: 0,
            stopped: false,
        }
    }

    /// Current encoder target (bit/s).
    pub fn target_bps(&self) -> f64 {
        self.target_bps
    }
}

impl Application for FramedVideo {
    fn next_activity(&self) -> Instant {
        if self.stopped {
            Instant::MAX
        } else {
            self.next_frame_at
        }
    }

    fn on_tick(&mut self, now: Instant, units: &mut Vec<AppUnit>) -> u64 {
        let mut bytes = 0;
        while !self.stopped && now >= self.next_frame_at {
            let size = self.cfg.frame_bytes(self.frame_count, self.target_bps) as u64;
            self.offered += size;
            bytes += size;
            units.push(AppUnit {
                kind: UnitKind::Frame,
                end_byte: self.offered,
                created: self.next_frame_at,
                deadline: Some(self.cfg.deadline),
            });
            self.frame_count += 1;
            self.next_frame_at += self.cfg.frame_interval();
        }
        bytes
    }

    fn on_rate_estimate(&mut self, bps: f64, _now: Instant) {
        // Track the transport with 15% headroom, smoothed so a single
        // outlier ACK burst doesn't whiplash the encoder.
        let want = 0.85 * bps;
        self.target_bps =
            (0.9 * self.target_bps + 0.1 * want).clamp(self.cfg.min_bps, self.cfg.max_bps);
    }

    fn stop(&mut self) {
        self.stopped = true;
    }
}

/// RPC/web session (see [`AppProfile::RequestResponse`]).
#[derive(Debug)]
pub struct RequestResponse {
    cfg: RequestResponseCfg,
    /// Requests still allowed to issue (`None` = unlimited).
    remaining: Option<u32>,
    /// Next request issue time; `Instant::MAX` while awaiting delivery
    /// or after the session ends.
    issue_at: Instant,
    /// End offset of the in-flight response (`None` = none in flight).
    awaiting: Option<u64>,
    offered: u64,
    ended: bool,
}

impl RequestResponse {
    /// Session issuing its first request at `start`.
    pub fn new(cfg: RequestResponseCfg, start: Instant) -> RequestResponse {
        let none_allowed = cfg.count == Some(0);
        RequestResponse {
            cfg,
            remaining: cfg.count,
            issue_at: if none_allowed { Instant::MAX } else { start },
            awaiting: None,
            offered: 0,
            ended: none_allowed,
        }
    }
}

impl Application for RequestResponse {
    fn next_activity(&self) -> Instant {
        self.issue_at
    }

    fn on_tick(&mut self, now: Instant, units: &mut Vec<AppUnit>) -> u64 {
        if self.ended || now < self.issue_at || self.awaiting.is_some() {
            return 0;
        }
        self.issue_at = Instant::MAX;
        if let Some(n) = &mut self.remaining {
            *n -= 1;
        }
        self.offered += self.cfg.response_bytes;
        self.awaiting = Some(self.offered);
        units.push(AppUnit {
            kind: UnitKind::Request,
            end_byte: self.offered,
            created: now,
            deadline: None,
        });
        self.cfg.response_bytes
    }

    fn on_delivered(&mut self, delivered: u64, now: Instant) {
        if let Some(end) = self.awaiting {
            if delivered >= end {
                self.awaiting = None;
                if self.remaining == Some(0) {
                    self.ended = true;
                } else {
                    self.issue_at = now + self.cfg.think;
                }
            }
        }
    }

    fn done(&self) -> bool {
        self.ended
    }

    fn stop(&mut self) {
        self.ended = true;
        self.issue_at = Instant::MAX;
    }
}

/// Deterministic trace replay (see [`AppProfile::TraceReplay`]).
#[derive(Debug)]
pub struct TraceReplay {
    cfg: TraceReplayCfg,
    start: Instant,
    idx: usize,
    offered: u64,
    stopped: bool,
}

impl TraceReplay {
    /// Replay `cfg.entries` relative to `start`.
    pub fn new(cfg: TraceReplayCfg, start: Instant) -> TraceReplay {
        TraceReplay {
            cfg,
            start,
            idx: 0,
            offered: 0,
            stopped: false,
        }
    }
}

impl Application for TraceReplay {
    fn next_activity(&self) -> Instant {
        if self.stopped {
            return Instant::MAX;
        }
        match self.cfg.entries.get(self.idx) {
            Some(&(off, _)) => self.start + off,
            None => Instant::MAX,
        }
    }

    fn on_tick(&mut self, now: Instant, units: &mut Vec<AppUnit>) -> u64 {
        let mut offered = 0;
        while !self.stopped {
            let Some(&(off, bytes)) = self.cfg.entries.get(self.idx) else {
                break;
            };
            let at = self.start + off;
            if now < at {
                break;
            }
            self.idx += 1;
            if bytes == 0 {
                continue;
            }
            self.offered += bytes;
            offered += bytes;
            units.push(AppUnit {
                kind: UnitKind::Request,
                end_byte: self.offered,
                created: at,
                deadline: None,
            });
        }
        offered
    }

    fn done(&self) -> bool {
        self.stopped || self.idx >= self.cfg.entries.len()
    }

    fn stop(&mut self) {
        self.stopped = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive an app through a fixed schedule, returning the `(tick time,
    /// offered bytes, unit count)` transcript.
    fn transcript(app: &mut dyn Application, until: Instant) -> Vec<(u64, u64, usize)> {
        let mut out = Vec::new();
        let mut units = Vec::new();
        loop {
            let at = app.next_activity();
            if at > until {
                break;
            }
            units.clear();
            let bytes = app.on_tick(at, &mut units);
            out.push((at.as_nanos(), bytes, units.len()));
            if app.done() {
                break;
            }
        }
        out
    }

    #[test]
    fn framed_video_paces_frames_and_tags_units() {
        let cfg = FramedVideoCfg::new(25.0, 0.5e6, 2.0e6, 20.0e6);
        let mut app = FramedVideo::new(cfg, Instant::ZERO);
        let t = transcript(&mut app, Instant::from_millis(200));
        // 0..200 ms at 25 fps = 6 ticks (0, 40, .., 200).
        assert_eq!(t.len(), 6);
        // 2 Mbit/s at 25 fps = 10 kB frames.
        assert!(t.iter().all(|&(_, b, u)| b == 10_000 && u == 1));
    }

    #[test]
    fn framed_video_keyframes_change_sizes_not_average() {
        let cfg = FramedVideoCfg::new(25.0, 0.5e6, 2.0e6, 20.0e6).with_keyframes(5, 3.0);
        let mut app = FramedVideo::new(cfg, Instant::ZERO);
        let t = transcript(&mut app, Instant::from_millis(160));
        assert_eq!(t.len(), 5);
        assert!(t[0].1 > 2 * t[1].1, "keyframe first: {t:?}");
        let total: u64 = t.iter().map(|&(_, b, _)| b).sum();
        assert!((total as i64 - 50_000).unsigned_abs() < 1_000, "{total}");
    }

    #[test]
    fn framed_video_adapts_rate_within_bounds() {
        let cfg = FramedVideoCfg::new(25.0, 0.5e6, 2.0e6, 20.0e6);
        let mut app = FramedVideo::new(cfg, Instant::ZERO);
        for _ in 0..200 {
            app.on_rate_estimate(40.0e6, Instant::ZERO);
        }
        assert!((app.target_bps() - 20.0e6).abs() < 1e-6, "max clamp");
        for _ in 0..200 {
            app.on_rate_estimate(0.1e6, Instant::ZERO);
        }
        assert!((app.target_bps() - 0.5e6).abs() < 1e-6, "min clamp");
    }

    #[test]
    fn request_response_waits_for_delivery_then_thinks() {
        let cfg = RequestResponseCfg {
            response_bytes: 50_000,
            think: Duration::from_millis(100),
            count: Some(2),
        };
        let mut app = RequestResponse::new(cfg, Instant::ZERO);
        let mut units = Vec::new();
        assert_eq!(app.on_tick(Instant::ZERO, &mut units), 50_000);
        assert_eq!(app.next_activity(), Instant::MAX, "awaiting delivery");
        // Partial delivery is not completion.
        app.on_delivered(10_000, Instant::from_millis(30));
        assert_eq!(app.next_activity(), Instant::MAX);
        app.on_delivered(50_000, Instant::from_millis(80));
        assert_eq!(app.next_activity(), Instant::from_millis(180));
        assert_eq!(app.on_tick(Instant::from_millis(180), &mut units), 50_000);
        assert_eq!(units.len(), 2, "one unit per response");
        assert!(!app.done());
        app.on_delivered(100_000, Instant::from_millis(260));
        assert!(app.done(), "count exhausted after the second response");
    }

    #[test]
    fn trace_replay_is_deterministic_and_finishes() {
        let entries = vec![
            (Duration::from_millis(10), 1_000u64),
            (Duration::from_millis(50), 2_000),
            (Duration::from_millis(50), 3_000),
        ];
        let mk = || {
            TraceReplay::new(
                TraceReplayCfg {
                    entries: entries.clone(),
                },
                Instant::ZERO,
            )
        };
        let a = transcript(&mut mk(), Instant::from_secs(1));
        let b = transcript(&mut mk(), Instant::from_secs(1));
        assert_eq!(a, b, "identical transcripts");
        // The two co-timed bursts coalesce into one tick.
        assert_eq!(a.len(), 2);
        assert_eq!(a[1].1, 5_000);
        assert_eq!(a[1].2, 2, "two units in the coalesced tick");
        let mut app = mk();
        let _ = transcript(&mut app, Instant::from_secs(1));
        assert!(app.done());
    }

    #[test]
    fn profile_instantiation_covers_every_builtin() {
        let start = Instant::from_millis(5);
        for profile in [AppProfile::bulk(), AppProfile::sized(1_000)] {
            assert!(profile.instantiate(start).is_none(), "{profile:?}");
        }
        for profile in [
            AppProfile::video(30.0, 1e6, 2e6, 8e6),
            AppProfile::request_response(10_000, Duration::from_millis(50), Some(3)),
            AppProfile::trace(vec![(Duration::ZERO, 500)]),
        ] {
            let app = profile.instantiate(start).expect("an application");
            assert!(app.next_activity() >= start, "{profile:?}");
        }
    }
}
