//! Declarative scenario descriptions plus canned builders for the
//! paper's experiments.

use l4span_cc::{CcKind, WanLink};
use l4span_core::{HandoverPolicy, L4SpanConfig};
use l4span_ran::config::{CellConfig, RlcMode, SchedulerKind, SlotRole};
use l4span_ran::ChannelProfile;
use l4span_sim::{Duration, Instant};

use crate::app::{AppProfile, FramedVideoCfg};
use crate::impairment::ImpairmentSpec;
use crate::marker::MarkerKind;

/// How UEs' channel profiles are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelMix {
    /// Everyone static.
    Static,
    /// Everyone pedestrian.
    Pedestrian,
    /// Everyone vehicular.
    Vehicular,
    /// The paper's "mobile": half pedestrian, half vehicular.
    Mobile,
}

impl ChannelMix {
    /// Profile of the `i`-th UE under this mix.
    pub fn profile(self, i: usize) -> ChannelProfile {
        match self {
            ChannelMix::Static => ChannelProfile::Static,
            ChannelMix::Pedestrian => ChannelProfile::Pedestrian,
            ChannelMix::Vehicular => ChannelProfile::Vehicular,
            ChannelMix::Mobile => {
                if i.is_multiple_of(2) {
                    ChannelProfile::Pedestrian
                } else {
                    ChannelProfile::Vehicular
                }
            }
        }
    }
}

/// One step of a UE's mobility trajectory: at `at`, the UE observes the
/// given channel `profile`/`snr_db` toward cell `cell`. If `cell` differs
/// from the UE's serving cell at that moment, the step is a **handover**
/// (Xn context transfer, PDCP re-establishment, lossless RLC forwarding,
/// marker-state policy applied); if it names the serving cell, it is a
/// pure channel change on the existing attachment: the RLC queues and
/// all in-flight state survive, only the radio changes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobilityStep {
    /// When the step occurs.
    pub at: Instant,
    /// Target cell index (into the scenario's cell list).
    pub cell: usize,
    /// Channel profile toward that cell.
    pub profile: ChannelProfile,
    /// Mean SNR in dB toward that cell.
    pub snr_db: f64,
}

impl MobilityStep {
    /// Shorthand constructor: `(t, cell, profile, snr)`.
    pub fn new(at: Instant, cell: usize, profile: ChannelProfile, snr_db: f64) -> MobilityStep {
        MobilityStep {
            at,
            cell,
            profile,
            snr_db,
        }
    }
}

/// A UE's whole trajectory: mobility steps in time order. An empty spec
/// means the UE never moves from its initial cell.
pub type MobilitySpec = Vec<MobilityStep>;

/// One UE in the topology.
#[derive(Debug, Clone)]
pub struct UeSpec {
    /// Channel profile toward the initial serving cell.
    pub profile: ChannelProfile,
    /// Mean SNR in dB (cell-edge vs cell-centre diversity).
    pub mean_snr_db: f64,
    /// DRBs to configure (id, RLC mode). The first is the default.
    pub drbs: Vec<(u8, RlcMode)>,
    /// Cell the UE starts attached to (index into the cell list).
    pub initial_cell: usize,
    /// Mobility trajectory (`ues[i].mobility = [(t, cell, profile, snr)]`).
    pub mobility: MobilitySpec,
}

impl UeSpec {
    /// A single-AM-DRB UE on cell 0, the common case.
    pub fn simple(profile: ChannelProfile, mean_snr_db: f64) -> UeSpec {
        UeSpec {
            profile,
            mean_snr_db,
            drbs: vec![(0, RlcMode::Am)],
            initial_cell: 0,
            mobility: Vec::new(),
        }
    }

    /// Start on a specific cell.
    pub fn on_cell(mut self, cell: usize) -> UeSpec {
        self.initial_cell = cell;
        self
    }

    /// Attach a mobility trajectory.
    pub fn with_mobility(mut self, mobility: MobilitySpec) -> UeSpec {
        self.mobility = mobility;
        self
    }
}

/// How a flow's bytes cross the network (the transport half of a flow;
/// the *what/when* half is its [`AppProfile`]).
#[non_exhaustive]
#[derive(Debug, Clone)]
pub enum TransportSpec {
    /// TCP under a typed congestion controller.
    Tcp {
        /// The congestion controller (typed; parse names via
        /// [`CcKind::from_str`](std::str::FromStr)).
        cc: CcKind,
    },
    /// SCReAM RTP/UDP media transport (RFC 8298 flavour, L4S-aware).
    /// Requires an [`AppProfile::FramedVideo`] application, whose
    /// encoder bounds and frame cadence it executes.
    Scream,
    /// Self-clocked UDP Prague (byte/s rate bounds). Carries a greedy
    /// [`AppProfile::Bulk`] application.
    UdpPrague {
        /// Minimum rate in bytes/s.
        min_rate: f64,
        /// Starting rate in bytes/s.
        start_rate: f64,
        /// Maximum rate in bytes/s.
        max_rate: f64,
    },
    /// The loss-resilient FEC/ARQ media endpoint under NADA (RFC 8698)
    /// rate control: a frame-paced UDP sender interleaving sliding-
    /// window repair packets with deadline-bounded NACK retransmission.
    /// Generates its own frames (the codec is the application), so it
    /// carries an [`AppProfile::Bulk`] placeholder; uplink-direction
    /// only. On a bonded flow ([`FlowSpec::bond`]) the sender stripes
    /// frames across both legs by their NADA rates and couples the two
    /// controllers when shared-bottleneck detection fires.
    FecMedia {
        /// Minimum media rate in bytes/s.
        min_rate: f64,
        /// Starting media rate in bytes/s.
        start_rate: f64,
        /// Maximum media rate in bytes/s.
        max_rate: f64,
        /// Frames per second.
        fps: f64,
    },
}

impl TransportSpec {
    /// TCP under `cc`.
    pub fn tcp(cc: CcKind) -> TransportSpec {
        TransportSpec::Tcp { cc }
    }

    /// TCP under the named controller; unknown names are a typed error.
    pub fn tcp_named(name: &str) -> Result<TransportSpec, l4span_cc::UnknownCc> {
        Ok(TransportSpec::Tcp { cc: name.parse()? })
    }

    /// The SCReAM media transport.
    pub fn scream() -> TransportSpec {
        TransportSpec::Scream
    }

    /// UDP Prague with the given byte/s rate bounds.
    pub fn udp_prague(min_rate: f64, start_rate: f64, max_rate: f64) -> TransportSpec {
        TransportSpec::UdpPrague {
            min_rate,
            start_rate,
            max_rate,
        }
    }

    /// The FEC/ARQ media endpoint with the given byte/s rate bounds and
    /// frame cadence.
    pub fn fec_media(min_rate: f64, start_rate: f64, max_rate: f64, fps: f64) -> TransportSpec {
        TransportSpec::FecMedia {
            min_rate,
            start_rate,
            max_rate,
            fps,
        }
    }
}

/// Direction a flow's *data* travels. The opposite direction always
/// carries that flow's feedback (ACKs, RTCP-like reports).
///
/// * [`Downlink`](FlowDir::Downlink) — the classic shape: a content
///   server sends toward the UE; feedback rides the UE's uplink
///   control path.
/// * [`Uplink`](FlowDir::Uplink) — the sender lives **at the UE**,
///   feeding the per-DRB uplink PDCP/RLC queue; transmission is
///   BSR-solicited and grant-driven, feedback returns on the downlink.
///   The UE-side L4Span instance marks at this queue.
///
/// A *paired* DL+UL application (a video call with both legs) is two
/// flows built together — see [`video_call`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowDir {
    /// Server → UE data (the pre-bidirectional default).
    #[default]
    Downlink,
    /// UE → server data (uploads, call/gaming uplink legs).
    Uplink,
}

/// One end-to-end flow: an application over a transport, terminating at
/// a UE, behind a WAN segment.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Index into [`ScenarioConfig::ues`].
    pub ue: usize,
    /// DRB id the flow rides (must exist in the UE's spec).
    pub drb: u8,
    /// The application: what bytes are offered and when.
    pub app: AppProfile,
    /// The transport carrying them.
    pub transport: TransportSpec,
    /// WAN segment between this flow's server and the 5G core.
    pub wan: WanLink,
    /// When the client opens the connection.
    pub start: Instant,
    /// Optional stop time (sender quiesces).
    pub stop: Option<Instant>,
    /// Which direction the data travels (default: downlink).
    pub dir: FlowDir,
    /// Bonded (dual-connectivity) secondary leg: the index of a second
    /// UE — on a **different** cell — whose uplink grants also carry
    /// this flow's packets. `None` = the ordinary single-leg flow.
    /// Bonded flows must be uplink-direction, and neither UE may have a
    /// mobility trajectory (the bond pins both attachments). The server
    /// side joins/reorders the legs and runs RFC 8382-style shared-
    /// bottleneck detection over their one-way delays — see
    /// [`crate::bond`].
    pub bond: Option<usize>,
}

impl FlowSpec {
    /// A downlink flow on the UE's default DRB 0.
    pub fn new(
        ue: usize,
        app: AppProfile,
        transport: TransportSpec,
        wan: WanLink,
        start: Instant,
    ) -> FlowSpec {
        FlowSpec {
            ue,
            drb: 0,
            app,
            transport,
            wan,
            start,
            stop: None,
            dir: FlowDir::Downlink,
            bond: None,
        }
    }

    /// An uplink flow on the UE's default DRB 0: the application and
    /// transport sender live at the UE, data rides grant-driven uplink
    /// slots, feedback returns on the downlink.
    pub fn uplink(
        ue: usize,
        app: AppProfile,
        transport: TransportSpec,
        wan: WanLink,
        start: Instant,
    ) -> FlowSpec {
        FlowSpec::new(ue, app, transport, wan, start).direction(FlowDir::Uplink)
    }

    /// Set the data direction.
    pub fn direction(mut self, dir: FlowDir) -> FlowSpec {
        self.dir = dir;
        self
    }

    /// Ride a specific DRB.
    pub fn on_drb(mut self, drb: u8) -> FlowSpec {
        self.drb = drb;
        self
    }

    /// Quiesce the sender at `stop`.
    pub fn stop_at(mut self, stop: Instant) -> FlowSpec {
        self.stop = Some(stop);
        self
    }

    /// Bond this (uplink) flow across a second UE's grants — see
    /// [`FlowSpec::bond`].
    pub fn bonded(mut self, secondary_ue: usize) -> FlowSpec {
        self.bond = Some(secondary_ue);
        self
    }
}

/// Both legs of one interactive call as a single app-level construct:
/// a downlink [`FramedVideoCfg`] leg and an uplink one on the same UE,
/// DRB, transport, and WAN segment, starting together. Returns
/// `(downlink_leg, uplink_leg)` — push both into
/// [`ScenarioConfig::flows`].
pub fn video_call(
    ue: usize,
    dl: FramedVideoCfg,
    ul: FramedVideoCfg,
    cc: CcKind,
    wan: WanLink,
    start: Instant,
) -> (FlowSpec, FlowSpec) {
    (
        FlowSpec::new(
            ue,
            AppProfile::FramedVideo(dl),
            TransportSpec::tcp(cc),
            wan,
            start,
        ),
        FlowSpec::uplink(
            ue,
            AppProfile::FramedVideo(ul),
            TransportSpec::tcp(cc),
            wan,
            start,
        ),
    )
}

/// Most cells a world can number: a cell id is a `u8`.
pub const MAX_CELLS: usize = 1 << u8::BITS;

/// Most UEs a world can number: a UE id is a `u16`.
pub const MAX_UES: usize = 1 << u16::BITS;

/// Most flows a world can number: a flow id is a `u16`.
pub const MAX_FLOWS: usize = 1 << u16::BITS;

/// A wired bottleneck between the servers and the core (Fig. 2's
/// middlebox). `schedule` entries change the rate mid-run.
#[derive(Debug, Clone)]
pub struct BottleneckSpec {
    /// Initial service rate in bit/s.
    pub rate_bps: f64,
    /// (time, new rate) pairs.
    pub schedule: Vec<(Instant, f64)>,
    /// Run DualPi2 on it (an "L4S+" middlebox) instead of droptail.
    pub l4s_aqm: bool,
}

impl BottleneckSpec {
    /// Check that the initial rate and every scheduled rate are
    /// positive. Returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.rate_bps <= 0.0 || self.rate_bps.is_nan() {
            return Err(format!("bottleneck rate {} not positive", self.rate_bps));
        }
        for (i, &(_, bps)) in self.schedule.iter().enumerate() {
            if bps <= 0.0 || bps.is_nan() {
                return Err(format!("schedule step {i}: rate {bps} not positive"));
            }
        }
        Ok(())
    }
}

/// A complete experiment description.
///
/// Construct with [`ScenarioConfig::new`] and mutate fields; the struct
/// is `#[non_exhaustive]` so future knobs aren't semver breaks.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// RNG seed (every stochastic element derives from it).
    pub seed: u64,
    /// Simulated duration.
    pub duration: Duration,
    /// Configuration of cell 0 (and the template the canned single-cell
    /// builders populate).
    pub cell: CellConfig,
    /// Configurations of cells 1.. — push one per additional cell (or use
    /// [`ScenarioConfig::add_cell`]). UEs migrate between cells per their
    /// [`UeSpec::mobility`] trajectories.
    pub extra_cells: Vec<CellConfig>,
    /// MAC scheduler (all cells).
    pub scheduler: SchedulerKind,
    /// The UEs.
    pub ues: Vec<UeSpec>,
    /// The flows.
    pub flows: Vec<FlowSpec>,
    /// CU marker.
    pub marker: MarkerKind,
    /// What the marker does with a DRB's estimation state at handover.
    pub marker_ho_policy: HandoverPolicy,
    /// Optional wired bottleneck.
    pub bottleneck: Option<BottleneckSpec>,
    /// Optional mid-path impairment pipeline between server egress and
    /// the core (ECT bleaching / remarking / drop, RFC 3168 classic
    /// hop). `None` keeps the path ECN-faithful and byte-identical to
    /// the pre-impairment world.
    pub impairment: Option<ImpairmentSpec>,
    /// Deploy one CU-UP marker instance **per cell** instead of a single
    /// central one (and likewise per-cell UE-side uplink markers). This
    /// is the distributed CU-UP deployment of §5 — marker state follows
    /// the UE across cells via Xn context transfer at handover — and the
    /// property that makes a scenario shardable by cell: with per-cell
    /// instances, no RNG stream or table is shared across cells, so
    /// per-cell event order alone determines every marking decision.
    /// Defaults to `false`, which keeps the original single-instance
    /// topology (and its RNG streams) byte-for-byte.
    pub cu_per_cell: bool,
    /// Throughput bin width for the report.
    pub thr_bin: Duration,
    /// Record wall-clock processing time of each marker event (the
    /// Fig. 21 / Table 1 instrumentation; off by default as it perturbs
    /// nothing but costs two clock reads per packet).
    pub measure_marker_time: bool,
    /// Record per-subsystem wall-clock cycle totals (gNB slot tick, UE
    /// stacks, UL grant/BSR path, marker, wired core, transport,
    /// metrics bookkeeping) into [`crate::Report::cycles`] via a
    /// [`l4span_sim::CycleScope`]. The attribution tool behind the
    /// `fig_breakdown` bench bin; off by default — a disabled scope
    /// costs one predictable branch per span — and, like
    /// `measure_marker_time`, it reads only the OS clock, so enabling
    /// it never changes a fingerprint.
    pub measure_cycles: bool,
}

impl ScenarioConfig {
    /// A skeleton with sane defaults, one cell, and no UEs/flows.
    pub fn new(seed: u64, duration: Duration) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            duration,
            cell: CellConfig::default(),
            extra_cells: Vec::new(),
            scheduler: SchedulerKind::RoundRobin,
            ues: Vec::new(),
            flows: Vec::new(),
            marker: MarkerKind::None,
            marker_ho_policy: HandoverPolicy::default(),
            bottleneck: None,
            impairment: None,
            cu_per_cell: false,
            thr_bin: Duration::from_millis(100),
            measure_marker_time: false,
            measure_cycles: false,
        }
    }

    /// Number of cells in the topology.
    pub fn n_cells(&self) -> usize {
        1 + self.extra_cells.len()
    }

    /// Check that every cell, UE and flow index fits the id it is
    /// narrowed into — a cell the `u8` of [`crate::HandoverRecord`] and
    /// of the per-cell queue view's key, a UE the `u16` of `UeId`, a flow
    /// the `u16` of the report's flow records — so no two of them alias.
    /// Returns the first count over its limit.
    pub fn check_id_widths(&self) -> Result<(), String> {
        let counts = [
            ("cells", self.n_cells(), MAX_CELLS),
            ("UEs", self.ues.len(), MAX_UES),
            ("flows", self.flows.len(), MAX_FLOWS),
        ];
        for (what, n, limit) in counts {
            if n > limit {
                return Err(format!("{n} {what} exceed the limit of {limit}"));
            }
        }
        Ok(())
    }

    /// Configuration of cell `c`.
    pub fn cell_config(&self, c: usize) -> &CellConfig {
        if c == 0 {
            &self.cell
        } else {
            &self.extra_cells[c - 1]
        }
    }

    /// Append another cell; returns its index.
    pub fn add_cell(&mut self, cfg: CellConfig) -> usize {
        self.extra_cells.push(cfg);
        self.extra_cells.len()
    }
}

/// The Fig. 9 style workload: `n` UEs, one greedy TCP download each.
///
/// Mean SNRs spread deterministically between 19 and 27 dB so the cell
/// has centre and edge users.
#[allow(clippy::too_many_arguments)] // positional form is part of the documented quickstart
pub fn congested_cell(
    n_ues: usize,
    cc: &str,
    mix: ChannelMix,
    rlc_queue_sdus: usize,
    wan: WanLink,
    marker: MarkerKind,
    seed: u64,
    duration: Duration,
) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(seed, duration);
    cfg.cell.rlc_queue_sdus = rlc_queue_sdus;
    cfg.marker = marker;
    let cc = parse_cc(cc);
    for i in 0..n_ues {
        let snr = 19.0 + 8.0 * (i as f64 * 0.6180339887).fract();
        cfg.ues.push(UeSpec::simple(mix.profile(i), snr));
        cfg.flows.push(FlowSpec::new(
            i,
            AppProfile::bulk(),
            TransportSpec::tcp(cc),
            wan,
            // Stagger starts inside the first 200 ms so handshakes don't
            // collide on slot boundaries.
            Instant::from_millis(3 * i as u64 % 200),
        ));
    }
    cfg
}

/// The deployment-question workload: [`congested_cell`] behind an
/// impaired Internet path. The pipeline sits between server egress and
/// the core, so every downlink data packet crosses it before the RAN;
/// pass e.g. `ImpairmentSpec::bleaching(0.25).then_classic_hop(2e8)`
/// to model an ECT-bleaching middlebox feeding an RFC 3168 single-queue
/// hop.
pub fn impaired_path_cell(
    n_ues: usize,
    cc: &str,
    impairment: ImpairmentSpec,
    marker: MarkerKind,
    seed: u64,
    duration: Duration,
) -> ScenarioConfig {
    let mut cfg = congested_cell(
        n_ues,
        cc,
        ChannelMix::Mobile,
        16_384,
        WanLink::east(),
        marker,
        seed,
        duration,
    );
    cfg.impairment = Some(impairment);
    cfg
}

/// Fig. 2(a)'s wired L4S network: a Prague and a CUBIC download through
/// a 40 Mbit/s DualPi2 router at a 20 ms base RTT. It models a radio
/// plane built never to be the bottleneck: a ~400 MHz FR2 carrier
/// (264 PRBs, 125 µs slots alternating DL/UL) on static 30 dB channels
/// with no UE, SR or core-to-CU delay and no marker, so the router is
/// the only queue on the path.
pub fn wired_l4s(seed: u64, duration: Duration) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(seed, duration);
    cfg.cell.n_prbs = 264;
    cfg.cell.slot_duration = Duration::from_micros(125);
    cfg.cell.tdd_pattern = vec![SlotRole::Downlink, SlotRole::Uplink];
    cfg.cell.carrier_hz = 28e9;
    cfg.cell.ue_internal_delay = Duration::ZERO;
    cfg.cell.ul_sr_delay_max = Duration::ZERO;
    cfg.cell.core_to_cu_delay = Duration::ZERO;
    cfg.bottleneck = Some(BottleneckSpec {
        rate_bps: 40e6,
        schedule: vec![],
        l4s_aqm: true,
    });
    let wan = WanLink {
        one_way: Duration::from_millis(10),
    };
    for (i, cc) in [CcKind::Prague, CcKind::Cubic].into_iter().enumerate() {
        cfg.ues.push(UeSpec::simple(ChannelProfile::Static, 30.0));
        let start = Instant::from_millis(100 * i as u64);
        cfg.flows.push(FlowSpec::new(
            i,
            AppProfile::bulk(),
            TransportSpec::tcp(cc),
            wan,
            start,
        ));
    }
    cfg
}

/// Parse a congestion-control name for a canned builder.
///
/// # Panics
///
/// On unknown names — the canned builders take paper names for
/// quickstart ergonomics; the typed error path is
/// `name.parse::<CcKind>()`.
fn parse_cc(cc: &str) -> CcKind {
    match cc.parse() {
        Ok(k) => k,
        Err(e) => panic!("{e}"),
    }
}

/// An L4Span marker with the paper's defaults.
pub fn l4span_default() -> MarkerKind {
    MarkerKind::L4Span(L4SpanConfig::default())
}

/// The mobility workload: two identical cells, `n_ues` UEs with one
/// greedy TCP download each, every UE ping-ponging between the cells
/// with period `ho_period` (staggered across UEs so handovers don't
/// synchronise). Cell 0 is the "good" side (≈21–29 dB), cell 1 the
/// "bad" one (≈12–20 dB), so every other handover is the paper's
/// "channel sharply turns bad" — the regime where the marker's
/// [`HandoverPolicy`] choice shows up in post-handover delay.
pub fn handover_cell(
    n_ues: usize,
    cc: &str,
    ho_period: Duration,
    policy: HandoverPolicy,
    marker: MarkerKind,
    seed: u64,
    duration: Duration,
) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(seed, duration);
    cfg.marker = marker;
    cfg.marker_ho_policy = policy;
    let second = cfg.cell.clone();
    cfg.add_cell(second);
    for i in 0..n_ues {
        let jitter = 8.0 * (i as f64 * 0.6180339887).fract();
        let snr_toward = |cell: usize| {
            if cell == 0 {
                21.0 + jitter
            } else {
                12.0 + jitter
            }
        };
        let home = i % 2;
        let mut steps = Vec::new();
        let mut cur = home;
        let mut t = ho_period + Duration::from_millis(50 * i as u64);
        while t < duration {
            cur = 1 - cur;
            steps.push(MobilityStep::new(
                Instant::ZERO + t,
                cur,
                ChannelProfile::Pedestrian,
                snr_toward(cur),
            ));
            t += ho_period;
        }
        cfg.ues.push(
            UeSpec::simple(ChannelProfile::Pedestrian, snr_toward(home))
                .on_cell(home)
                .with_mobility(steps),
        );
        cfg.flows.push(FlowSpec::new(
            i,
            AppProfile::bulk(),
            TransportSpec::tcp(parse_cc(cc)),
            WanLink::east(),
            Instant::from_millis(3 * i as u64 % 200),
        ));
    }
    cfg
}

/// The interactive-applications workload: `n_groups` groups of three
/// UEs — a frame-paced video call (30 fps, keyframes, 0.5–8 Mbit/s
/// encoder), a web/RPC session (256 kB responses, 200 ms think), and a
/// greedy bulk download — all over TCP under `cc`, sharing one cell.
/// This is the canonical mixed-QoE scenario: the video flows populate
/// the frame OWD / deadline-miss / stall metrics, the web flows the
/// request-completion distribution, and the bulk flows keep the cell
/// congested so the marker has work to do.
pub fn interactive_apps_mixed(
    n_groups: usize,
    cc: &str,
    marker: MarkerKind,
    seed: u64,
    duration: Duration,
) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(seed, duration);
    cfg.marker = marker;
    let cc = parse_cc(cc);
    for g in 0..n_groups {
        for (k, app) in [
            AppProfile::FramedVideo(
                FramedVideoCfg::new(30.0, 0.5e6, 2.0e6, 8.0e6).with_keyframes(30, 3.0),
            ),
            AppProfile::request_response(256 * 1024, Duration::from_millis(200), None),
            AppProfile::bulk(),
        ]
        .into_iter()
        .enumerate()
        {
            let i = 3 * g + k;
            let snr = 19.0 + 8.0 * (i as f64 * 0.6180339887).fract();
            cfg.ues
                .push(UeSpec::simple(ChannelMix::Mobile.profile(i), snr));
            cfg.flows.push(FlowSpec::new(
                i,
                app,
                TransportSpec::tcp(cc),
                WanLink::east(),
                Instant::from_millis(3 * i as u64 % 200),
            ));
        }
    }
    cfg
}

/// The bidirectional-call workload: `n_calls` UEs each running a full
/// two-way video call — a 30 fps downlink leg *and* a 30 fps uplink leg
/// (0.5–8 Mbit/s encoders with keyframes) over TCP under `cc`, sharing
/// one cell. The TDD pattern gives the uplink only one slot in five
/// (≈11 Mbit/s shared), so the uplink legs congest the UE-side queues
/// well before the downlink ones congest the cell: this is the scenario
/// where the UE-side L4Span instance (SR/BSR-and-grant-driven delay
/// prediction) earns its keep, and the golden corpus's row for the
/// bidirectional data path.
pub fn video_call_bidir(
    n_calls: usize,
    cc: &str,
    marker: MarkerKind,
    seed: u64,
    duration: Duration,
) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(seed, duration);
    cfg.marker = marker;
    let cc = parse_cc(cc);
    let leg = FramedVideoCfg::new(30.0, 0.5e6, 2.0e6, 8.0e6).with_keyframes(30, 3.0);
    for i in 0..n_calls {
        let snr = 19.0 + 8.0 * (i as f64 * 0.6180339887).fract();
        cfg.ues
            .push(UeSpec::simple(ChannelMix::Mobile.profile(i), snr));
        let start = Instant::from_millis(3 * i as u64 % 200);
        let (dl, ul) = video_call(i, leg, leg, cc, WanLink::east(), start);
        cfg.flows.push(dl);
        cfg.flows.push(ul);
    }
    cfg
}

/// The metro-scale workload: `n_cells` cells, `ues_per_cell` UEs each
/// (UE `i` homes on cell `i % n_cells`), running the interactive-apps
/// traffic mix — every third UE a frame-paced video call, every third a
/// web/RPC session, every third a greedy bulk download, all downlink
/// TCP under `cc`. Every fourth UE is a *mover*: it ping-pongs between
/// its home cell and the next cell over every 400 ms, with per-UE phase
/// offsets so churn is continuous rather than synchronised.
///
/// Built for intra-scenario sharding (`cu_per_cell = true`, one marker
/// instance per cell). Mobility steps sit on slot boundaries at
/// ≡ 2.5 ms (mod 5 ms) and flow starts at ≡ 137 µs (mod 1 ms). These
/// are fixed workload instants — moving them would change the output —
/// not what keeps it invariant to shard count: a step on a flow start
/// or stop runs at its barrier, before every event at its instant, on
/// every path, and a step on a housekeeping tick (the ticks sit 500 ns
/// off the slot grid these steps are on) is refused by
/// [`ShardReject::StepOnTick`](crate::ShardReject::StepOnTick).
pub fn metro_city(
    n_cells: usize,
    ues_per_cell: usize,
    cc: &str,
    marker: MarkerKind,
    seed: u64,
    duration: Duration,
) -> ScenarioConfig {
    assert!(n_cells >= 2, "metro needs at least two cells");
    let mut cfg = ScenarioConfig::new(seed, duration);
    cfg.marker = marker;
    cfg.cu_per_cell = true;
    let template = cfg.cell.clone();
    for _ in 1..n_cells {
        cfg.add_cell(template.clone());
    }
    let cc = parse_cc(cc);
    let n_ues = n_cells * ues_per_cell;
    for i in 0..n_ues {
        let home = i % n_cells;
        let snr = 19.0 + 8.0 * (i as f64 * 0.6180339887).fract();
        let app = match i % 3 {
            0 => AppProfile::FramedVideo(
                FramedVideoCfg::new(30.0, 0.5e6, 2.0e6, 8.0e6).with_keyframes(30, 3.0),
            ),
            1 => AppProfile::request_response(256 * 1024, Duration::from_millis(200), None),
            _ => AppProfile::bulk(),
        };
        let mut steps = Vec::new();
        if i % 40 == 0 {
            // Mover: ping-pong home ↔ next cell on a 2 s period. Phases
            // are slot-aligned and staggered 62.5 ms apart so no two
            // movers ever share a handover barrier — each barrier costs
            // a source-shard queue drain, so churn is deliberately ~a
            // dozen handovers per simulated second, not per UE.
            let neighbour = (home + 1) % n_cells;
            let mut t = Duration::from_micros(152_500 + (i as u64 / 40) * 62_500);
            let mut cur = home;
            while t < duration {
                cur = if cur == home { neighbour } else { home };
                let toward = if cur == home { snr } else { snr - 3.0 };
                steps.push(MobilityStep::new(
                    Instant::ZERO + t,
                    cur,
                    ChannelMix::Mobile.profile(i),
                    toward,
                ));
                t += Duration::from_secs(2);
            }
        }
        cfg.ues.push(
            UeSpec::simple(ChannelMix::Mobile.profile(i), snr)
                .on_cell(home)
                .with_mobility(steps),
        );
        cfg.flows.push(FlowSpec::new(
            i,
            app,
            TransportSpec::tcp(cc),
            WanLink::east(),
            Instant::from_micros((3_000 * i as u64) % 200_000 + 137),
        ));
    }
    cfg
}

/// The XR-upload bonding workload: two cells and `n_devices` head-
/// mounted devices, each running one **uplink** media flow. With
/// `bonded = false` device `i` is a single UE homed on cell `i % 2`;
/// with `bonded = true` each device owns two radios — a primary UE on
/// cell `i % 2` and a secondary on the *other* cell — and its flow is
/// striped across both legs dual-connectivity style ([`FlowSpec::bond`]
/// names the secondary).
///
/// The transport follows the controller name: `"fec-media"` gets the
/// native [`TransportSpec::FecMedia`] endpoint (60 fps, 1.2–20 Mbit/s
/// encoder bounds, sliding-window FEC + NACK repair); any TCP-family
/// name (`"nada"`, `"prague"`, `"cubic"`, …) gets a 60 fps
/// [`AppProfile::FramedVideo`] over [`TransportSpec::Tcp`] with the
/// same encoder bounds, so the `fig_bonding` sweep compares controllers
/// on identical offered load.
///
/// `cu_per_cell` is on (one marker instance per cell) and nobody moves:
/// a bond pins both attachments, and keeping the single-leg variant on
/// the same topology keeps the comparison clean.
pub fn xr_bonding_cell(
    n_devices: usize,
    cc: &str,
    marker: MarkerKind,
    bonded: bool,
    seed: u64,
    duration: Duration,
) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(seed, duration);
    cfg.marker = marker;
    cfg.cu_per_cell = true;
    let second = cfg.cell.clone();
    cfg.add_cell(second);
    // 1.2–20 Mbit/s @ 60 fps: the XR split-rendering upload envelope.
    let (min_bps, start_bps, max_bps, fps) = (1.2e6, 4.0e6, 20.0e6, 60.0);
    let (app, transport) = if cc == "fec-media" {
        (
            AppProfile::bulk(),
            TransportSpec::fec_media(min_bps / 8.0, start_bps / 8.0, max_bps / 8.0, fps),
        )
    } else {
        (
            AppProfile::FramedVideo(FramedVideoCfg::new(fps, min_bps, start_bps, max_bps)),
            TransportSpec::tcp(parse_cc(cc)),
        )
    };
    for i in 0..n_devices {
        let home = i % 2;
        let snr = 19.0 + 8.0 * (i as f64 * 0.6180339887).fract();
        cfg.ues
            .push(UeSpec::simple(ChannelMix::Mobile.profile(i), snr).on_cell(home));
        let mut flow = FlowSpec::uplink(
            i,
            app.clone(),
            transport.clone(),
            WanLink::east(),
            // Same start alignment as the metro world: ≡137 µs (mod
            // 1 ms), never on a slot boundary.
            Instant::from_micros((3_000 * i as u64) % 200_000 + 137),
        );
        if bonded {
            flow = flow.bonded(n_devices + i);
        }
        cfg.flows.push(flow);
    }
    if bonded {
        // Secondary radios, each on the other cell from its device's
        // primary, with a slightly worse channel (the secondary leg is
        // the opportunistic one).
        for i in 0..n_devices {
            let away = 1 - i % 2;
            let snr = 16.0 + 8.0 * (i as f64 * 0.6180339887).fract();
            cfg.ues
                .push(UeSpec::simple(ChannelMix::Mobile.profile(i + 1), snr).on_cell(away));
        }
    }
    cfg
}

/// The canonical bonding scenario: 8 XR devices, each bonded across
/// the two cells, running the FEC/ARQ media endpoint under NADA with
/// the L4Span marker per cell. The benchmark's `xr_bonded_ul_8dev`
/// workload for the bonded uplink data path; bonded flows serialize
/// the world (the two legs couple the cells), so the shard planner
/// must reject sharding it.
pub fn bonded_xr_8ue(seed: u64, duration: Duration) -> ScenarioConfig {
    xr_bonding_cell(8, "fec-media", l4span_default(), true, seed, duration)
}

/// The canonical metro world: 50 cells × 20 UEs = 1000 UEs of mixed
/// interactive traffic with continuous handover churn, sharded per cell
/// (`cu_per_cell`). The benchmark's `metro_1000ue_50cell` workload:
/// the largest world a contract run checks.
pub fn metro_1000ue_50cell(cc: &str, seed: u64, duration: Duration) -> ScenarioConfig {
    metro_city(50, 20, cc, l4span_default(), seed, duration)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_mix_assignment() {
        assert_eq!(ChannelMix::Static.profile(3), ChannelProfile::Static);
        assert_eq!(ChannelMix::Mobile.profile(0), ChannelProfile::Pedestrian);
        assert_eq!(ChannelMix::Mobile.profile(1), ChannelProfile::Vehicular);
    }

    #[test]
    fn handover_cell_builder_shapes() {
        let cfg = handover_cell(
            4,
            "cubic",
            Duration::from_secs(1),
            HandoverPolicy::ColdStart,
            l4span_default(),
            3,
            Duration::from_secs(4),
        );
        assert_eq!(cfg.n_cells(), 2);
        assert_eq!(cfg.ues.len(), 4);
        assert_eq!(cfg.marker_ho_policy, HandoverPolicy::ColdStart);
        for (i, ue) in cfg.ues.iter().enumerate() {
            assert_eq!(ue.initial_cell, i % 2);
            assert!(
                ue.mobility.len() >= 2,
                "ue{i}: at least one handover per second of slack"
            );
            // Every step flips the cell relative to the previous one.
            let mut cur = ue.initial_cell;
            for s in &ue.mobility {
                assert_ne!(s.cell, cur, "ping-pong trajectory");
                assert!(s.cell < cfg.n_cells());
                cur = s.cell;
            }
        }
    }

    #[test]
    fn add_cell_and_cell_config_indexing() {
        let mut cfg = ScenarioConfig::new(1, Duration::from_secs(1));
        let small = CellConfig {
            n_prbs: 24,
            ..CellConfig::default()
        };
        let idx = cfg.add_cell(small);
        assert_eq!(idx, 1);
        assert_eq!(cfg.n_cells(), 2);
        assert_eq!(cfg.cell_config(0).n_prbs, 51);
        assert_eq!(cfg.cell_config(1).n_prbs, 24);
    }

    #[test]
    fn interactive_apps_mixed_builder_shapes() {
        let cfg = interactive_apps_mixed(2, "prague", l4span_default(), 3, Duration::from_secs(2));
        assert_eq!(cfg.ues.len(), 6);
        assert_eq!(cfg.flows.len(), 6);
        let videos = cfg
            .flows
            .iter()
            .filter(|f| matches!(f.app, AppProfile::FramedVideo(_)))
            .count();
        let webs = cfg
            .flows
            .iter()
            .filter(|f| matches!(f.app, AppProfile::RequestResponse(_)))
            .count();
        assert_eq!((videos, webs), (2, 2));
        assert!(cfg
            .flows
            .iter()
            .all(|f| matches!(f.transport, TransportSpec::Tcp { cc: CcKind::Prague })));
    }

    #[test]
    fn video_call_bidir_builder_pairs_legs() {
        let cfg = video_call_bidir(3, "prague", l4span_default(), 5, Duration::from_secs(2));
        assert_eq!(cfg.ues.len(), 3);
        assert_eq!(cfg.flows.len(), 6, "one DL and one UL leg per call");
        for (i, pair) in cfg.flows.chunks(2).enumerate() {
            assert_eq!(pair[0].dir, FlowDir::Downlink);
            assert_eq!(pair[1].dir, FlowDir::Uplink);
            assert_eq!(pair[0].ue, i);
            assert_eq!(pair[1].ue, i);
            assert_eq!(pair[0].start, pair[1].start, "legs start together");
            assert!(matches!(pair[1].app, AppProfile::FramedVideo(_)));
        }
    }

    #[test]
    fn xr_bonding_builder_shapes() {
        let single = xr_bonding_cell(
            8,
            "prague",
            l4span_default(),
            false,
            7,
            Duration::from_secs(2),
        );
        assert_eq!(single.n_cells(), 2);
        assert_eq!(single.ues.len(), 8);
        assert_eq!(single.flows.len(), 8);
        assert!(single.flows.iter().all(|f| f.bond.is_none()));
        assert!(single
            .flows
            .iter()
            .all(|f| f.dir == FlowDir::Uplink && matches!(f.app, AppProfile::FramedVideo(_))));

        let bonded = bonded_xr_8ue(7, Duration::from_secs(2));
        assert_eq!(bonded.n_cells(), 2);
        assert_eq!(bonded.ues.len(), 16, "8 primaries + 8 secondaries");
        assert_eq!(bonded.flows.len(), 8, "one flow per device, not per leg");
        assert!(bonded.cu_per_cell);
        for (i, f) in bonded.flows.iter().enumerate() {
            assert_eq!(f.ue, i);
            assert_eq!(f.bond, Some(8 + i), "secondary is the i-th extra UE");
            assert_eq!(f.dir, FlowDir::Uplink);
            assert!(matches!(f.transport, TransportSpec::FecMedia { .. }));
            // The two legs home on different cells and neither moves.
            let (p, s) = (&bonded.ues[f.ue], &bonded.ues[f.bond.unwrap()]);
            assert_ne!(p.initial_cell, s.initial_cell);
            assert!(p.mobility.is_empty() && s.mobility.is_empty());
        }
    }

    #[test]
    fn bottleneck_rates_must_be_positive() {
        let spec = |rate_bps, step| BottleneckSpec {
            rate_bps,
            schedule: vec![(Instant::from_millis(500), step)],
            l4s_aqm: true,
        };
        assert_eq!(spec(1e9, 20e6).validate(), Ok(()));
        for bad in [0.0, -1.0, f64::NAN] {
            let e = spec(bad, 20e6).validate().unwrap_err();
            assert!(e.contains("bottleneck rate"), "{e}");
            let e = spec(1e9, bad).validate().unwrap_err();
            assert!(e.contains("schedule step 0"), "{e}");
        }
    }

    #[test]
    fn congested_cell_builder_shapes() {
        let cfg = congested_cell(
            16,
            "prague",
            ChannelMix::Mobile,
            256,
            WanLink::east(),
            l4span_default(),
            1,
            Duration::from_secs(10),
        );
        assert_eq!(cfg.ues.len(), 16);
        assert_eq!(cfg.flows.len(), 16);
        assert_eq!(cfg.cell.rlc_queue_sdus, 256);
        // SNRs differ across UEs.
        assert_ne!(cfg.ues[0].mean_snr_db, cfg.ues[1].mean_snr_db);
    }

    #[test]
    fn ids_past_their_width_are_refused() {
        let mut cfg = ScenarioConfig::new(7, Duration::from_secs(1));
        let ue = UeSpec::simple(ChannelProfile::Static, 20.0);
        cfg.ues = vec![ue; MAX_UES];
        assert_eq!(cfg.check_id_widths(), Ok(()));
        cfg.ues.push(cfg.ues[0].clone());
        let e = cfg.check_id_widths().unwrap_err();
        assert_eq!(e, "65537 UEs exceed the limit of 65536");
        cfg.ues.truncate(1);
        let flow = FlowSpec::new(
            0,
            AppProfile::bulk(),
            TransportSpec::tcp(CcKind::Cubic),
            WanLink::east(),
            Instant::ZERO,
        );
        cfg.flows = vec![flow; MAX_FLOWS + 1];
        let e = cfg.check_id_widths().unwrap_err();
        assert_eq!(e, "65537 flows exceed the limit of 65536");
    }
}
