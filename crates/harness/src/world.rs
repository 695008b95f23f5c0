//! The discrete-event world: content servers ↔ WAN ↔ (optional wired
//! plane) ↔ CU marker ↔ cells ↔ air ↔ UE stacks ↔ uplink, exactly
//! the end-to-end path of paper Fig. 3 — generalised to an N-cell
//! topology in which UEs hand over between cells at runtime (Xn context
//! transfer, PDCP re-establishment, lossless RLC forwarding, and a
//! marker-state migration policy).

use std::collections::VecDeque;
use std::sync::Arc;

use l4span_cc::CcEvent;
use l4span_core::DlVerdict;
use l4span_net::{FiveTuple, PacketBuf};
use l4span_ran::channel::{ChannelProfile, FadingChannel};
use l4span_ran::config::{RlcMode, SlotRole};
use l4span_ran::ids::Qfi;
use l4span_ran::mac::TransportBlock;
use l4span_ran::rlc::{RlcStatus, Sn};
use l4span_ran::{
    CellConfig, DlDataDeliveryStatus, DrbId, Gnb, GnbStats, SlotOutput, UeId, UeStack, UlTbOutcome,
};
use l4span_sim::{CycleScope, Duration, EventQueue, FxHashMap, Instant, SimRng};

use crate::app::{AppUnit, Application, UnitKind};
use crate::bond::{BondJoin, BondTx, SbdDetector};
use crate::endpoint::{self, Built, Delivery, Endpoint, FbData, Feedback, Released};
use crate::marker::Marker;
use crate::metrics::{BondStat, FallbackRecord, Recorder, Report, ShardStat, SAMPLE_PERIOD};
use crate::scenario::{FlowDir, MobilityStep, ScenarioConfig};
use crate::wired::{HopSink, WiredPlane};

/// Subsystem labels of the world's [`CycleScope`] (the `fig_breakdown`
/// attribution table). Indices are the `CYC_*` constants below; spans
/// are non-overlapping, so their sum plus the untracked event-loop glue
/// (scheduling, tuple lookups, dispatch) accounts for the whole run.
pub const CYCLE_LABELS: &[&str] = &[
    "gnb",         // gNB slot tick + downlink RLC enqueue
    "marker",      // both L4Span instances: DL/UL hooks + feedback
    "ue_stack",    // UE RLC rx/tx entities, polls, UL status handling
    "ul_control",  // UL grant/BSR/status path + per-UE uplink-slot scan
    "wired_core",  // wired-plane hops: impairment stages, bottleneck router
    "transport",   // endpoint senders/receivers (TCP/SCReAM/Prague)
    "metrics",     // QoE/series/ground-truth bookkeeping + sample tick
    "event_queue", // event pop in the run loop
];
const CYC_GNB: usize = 0;
const CYC_MARKER: usize = 1;
const CYC_UE: usize = 2;
const CYC_UL: usize = 3;
const CYC_WIRED: usize = 4;
const CYC_TRANSPORT: usize = 5;
const CYC_METRICS: usize = 6;
const CYC_QUEUE: usize = 7;

/// Cadence of the `UePoll` housekeeping tick (reassembly timeouts,
/// paced feedback, join-buffer flushes).
pub(crate) const UE_POLL_PERIOD: Duration = Duration::from_millis(5);

/// How far per-cell CU deployments nudge both housekeeping ticks off
/// their grids (see [`World::new`]).
pub(crate) const TICK_PHASE_PER_CELL_CU: Duration = Duration::from_nanos(500);

/// The instant of `cell`'s first slot: its slot grid, and its queue's.
///
/// Per-cell CU deployments de-synchronise the cells' slot grids by 1 µs
/// per cell index (≪ one slot, invisible to the TDD pattern). Cross-cell
/// event chains — UL feedback, its server echo, the ACK-clocked
/// downlink — then never collide on the same nanosecond, so no
/// cross-cell ordering depends on queue insertion order. That is what
/// lets shard merge points reproduce the single-world order exactly; the
/// classic central deployment keeps frame-synchronous cells,
/// byte-for-byte.
fn slot_origin(cfg: &ScenarioConfig, cell: usize) -> Instant {
    if cfg.cu_per_cell {
        Instant::from_micros(cell as u64)
    } else {
        Instant::ZERO
    }
}

/// Runtime state of a bonded (dual-connectivity) uplink flow: the
/// secondary leg's UE, the byte-balancing leg picker, the server-side
/// reorder/join buffer (TCP legs only — the FEC media receiver is its
/// own join point), and the RFC 8382-style shared-bottleneck detector
/// fed by per-leg one-way delays.
struct BondState {
    /// Secondary UE (leg 1); the flow's own `ue_idx` is leg 0.
    ue2_idx: usize,
    ue2_id: UeId,
    tx: BondTx,
    join: Option<BondJoin>,
    sbd: SbdDetector,
    /// Data packets that reached the server, per leg.
    leg_pkts: [u64; 2],
}

struct Flow {
    ue_idx: usize,
    ue_id: UeId,
    drb: DrbId,
    qfi: Qfi,
    /// The flow's data-direction five-tuple (the `tuple_to_flow` key);
    /// the Xn marker-state migration lifts per-tuple flow state by it.
    tuple: FiveTuple,
    wan_one_way: Duration,
    start: Instant,
    stop: Option<Instant>,
    endpoint: Endpoint,
    started: bool,
    finished_at: Option<Instant>,
    /// Which direction the data travels. For [`FlowDir::Uplink`] the
    /// endpoint roles flip: the sender lives at the UE feeding the UL
    /// PDCP/RLC queue, the receiver at the content server.
    dir: FlowDir,
    /// ident of an in-flight feedback packet → its report payload.
    fb_pending: FxHashMap<u16, FbData>,
    /// The driving [`Application`], for flows whose app is not executed
    /// natively by the transport.
    app: Option<Box<dyn Application + Send>>,
    /// Whether the flow has an `app` — kept by a vacant flow, whose
    /// `app` is `None`, so every replica reserves the same wake-up keys.
    has_app: bool,
    /// Byte-stream units (frames/requests) awaiting UE-side delivery,
    /// in stream order — completed against the TCP receiver's in-order
    /// watermark.
    pending_units: VecDeque<AppUnit>,
    /// Frame cadence + deadline for QoE accounting (framed apps only).
    framed: Option<(Duration, Duration)>,
    /// Dual-connectivity state ([`crate::scenario::FlowSpec::bond`]).
    bond: Option<Box<BondState>>,
}

impl Flow {
    /// This flow as a replica that does not own it holds it: the static
    /// identity events are routed and wake-up keys reserved by — UE,
    /// bearer, tuple, WAN delay, direction, start and stop, framing,
    /// whether it has an app — around an [`Endpoint::Vacant`] and no
    /// live state. Allocation-free.
    fn vacant(&self) -> Flow {
        Flow {
            endpoint: Endpoint::Vacant,
            started: false,
            finished_at: None,
            fb_pending: FxHashMap::default(),
            app: None,
            pending_units: VecDeque::new(),
            bond: None,
            ..*self
        }
    }
}

/// One scheduled occurrence, queued by value. Several variants inline a
/// 112-byte `PacketBuf` (or whole segment vectors), but nothing sifts
/// them: the queue keeps each in a node of its slab and orders small
/// references to the nodes — per-instant lists on the cell's slot grid,
/// where most events fall, and an index heap for the rest — so an event
/// is moved once in and once out, and a warm queue never allocates.
pub(crate) enum Event {
    /// One TDD slot of cell `cell` elapses (each cell has its own tick).
    Slot {
        cell: usize,
    },
    /// A downlink packet reaches wired-plane hop `hop` (hop 0: the end
    /// of the WAN link).
    DlAtHop {
        hop: u8,
        pkt: PacketBuf,
    },
    /// Poll wired-plane queue hop `hop` for departures.
    HopPoll {
        hop: u8,
    },
    DlAtCu {
        flow: usize,
        pkt: PacketBuf,
    },
    /// The transport blocks `cell` put on the air in one slot decode at
    /// their UEs, in scheduling order (one pooled batch per slot: every
    /// block of a slot shares its decode instant). A block whose UE
    /// handed over while it was in flight is dropped mid-air.
    TbsAtUe {
        cell: usize,
        tbs: Vec<TransportBlock>,
    },
    /// A downlink packet reaches the UE application: the PDCP SN it
    /// carried on `drb` joins it to its transmit record.
    AppDeliver {
        pkt: PacketBuf,
        drb: DrbId,
        sn: Sn,
    },
    /// What `cell`'s UEs transmitted in one uplink slot arrives, in
    /// ascending UE order (one pooled batch per slot, like `TbsAtUe`;
    /// the per-UE buffers return to `World::ul_pool` after processing):
    /// client ACKs/feedback, RLC status reports, and — in bidirectional
    /// scenarios — the UE's buffer-status report.
    UlAtGnb {
        cell: usize,
        ues: Vec<(usize, UlBatch)>,
    },
    /// The uplink *data* transport blocks granted in one slot arrive at
    /// `cell`'s PHY, in grant order (pooled batch, like `TbsAtUe`; a
    /// HARQ retransmission travels as a batch of one). A block whose UE
    /// handed over while it was in flight is dropped mid-air.
    UlTbsAtGnb {
        cell: usize,
        tbs: Vec<TransportBlock>,
    },
    /// An uplink RLC AM status report travels the downlink control
    /// channel back to the UE's transmit entity.
    UlStatusAtUe {
        ue: usize,
        drb: DrbId,
        status: RlcStatus,
    },
    UlAtServer {
        flow: usize,
        pkt: PacketBuf,
    },
    FlowStart {
        flow: usize,
    },
    FlowStop {
        flow: usize,
    },
    FlowTimer {
        flow: usize,
    },
    /// The flow's [`Application`] asked to be woken (app-driven flows
    /// only; natively-lowered flows never schedule one).
    AppTick {
        flow: usize,
    },
    Sample,
    UePoll,
}

impl Event {
    /// Class names, indexed by [`Event::class`]: the rows of
    /// [`Report::event_counts`]. `Handover` is the one class no event
    /// carries: it counts the mobility steps [`crate::shard::drive`]
    /// executes at its barriers.
    const CLASSES: [&'static str; 17] = [
        "Slot",
        "DlAtHop",
        "HopPoll",
        "DlAtCu",
        "TbsAtUe",
        "AppDeliver",
        "UlAtGnb",
        "UlTbsAtGnb",
        "UlStatusAtUe",
        "UlAtServer",
        "FlowStart",
        "FlowStop",
        "FlowTimer",
        "AppTick",
        "Handover",
        "Sample",
        "UePoll",
    ];

    /// Classes counted specially: mobility steps are executed (and
    /// counted) at their barrier, and the housekeeping ticks of a
    /// cell-major run have one copy per cell.
    const HANDOVER: usize = 14;
    const SAMPLE: usize = 15;
    const UE_POLL: usize = 16;

    fn class(&self) -> usize {
        match self {
            Event::Slot { .. } => 0,
            Event::DlAtHop { .. } => 1,
            Event::HopPoll { .. } => 2,
            Event::DlAtCu { .. } => 3,
            Event::TbsAtUe { .. } => 4,
            Event::AppDeliver { .. } => 5,
            Event::UlAtGnb { .. } => 6,
            Event::UlTbsAtGnb { .. } => 7,
            Event::UlStatusAtUe { .. } => 8,
            Event::UlAtServer { .. } => 9,
            Event::FlowStart { .. } => 10,
            Event::FlowStop { .. } => 11,
            Event::FlowTimer { .. } => 12,
            Event::AppTick { .. } => 13,
            Event::Sample => Event::SAMPLE,
            Event::UePoll => Event::UE_POLL,
        }
    }
}

/// An owner the world polls on a clock. Each has one wake-up slot in
/// the event queue ([`EventQueue::arm`]): asking for an earlier instant
/// moves its entry, so the event it pops as is always the live one.
#[derive(Clone, Copy)]
enum Timer {
    /// A flow's sender (`FlowTimer`).
    Flow(usize),
    /// A flow's [`Application`] (`AppTick`).
    App(usize),
    /// A wired-plane queue hop's next departure (`HopPoll`).
    Hop(u8),
}

impl Timer {
    /// Queue keys below this are the wired plane's: one per hop a `u8`
    /// can number. A queue reserves slots for the keys it hosts, not for
    /// the range, so the gap costs nothing.
    const WIRED_KEYS: usize = 1 + u8::MAX as usize;

    /// The owner's queue key.
    fn key(self) -> usize {
        match self {
            Timer::Hop(hop) => hop as usize,
            Timer::Flow(f) => Timer::WIRED_KEYS + 2 * f,
            Timer::App(f) => Timer::WIRED_KEYS + 2 * f + 1,
        }
    }

    /// The event the owner's entry pops as.
    fn event(self) -> Event {
        match self {
            Timer::Flow(flow) => Event::FlowTimer { flow },
            Timer::App(flow) => Event::AppTick { flow },
            Timer::Hop(hop) => Event::HopPoll { hop },
        }
    }

    /// The owner whose entry pops as `ev`, if it is one.
    fn of(ev: &Event) -> Option<Timer> {
        match *ev {
            Event::FlowTimer { flow } => Some(Timer::Flow(flow)),
            Event::AppTick { flow } => Some(Timer::App(flow)),
            Event::HopPoll { hop } => Some(Timer::Hop(hop)),
            _ => None,
        }
    }
}

/// A pooled triple of one UE's uplink-slot buffers (packets, status
/// reports, buffer-status entries).
pub(crate) type UlBatch = (Vec<PacketBuf>, Vec<(DrbId, RlcStatus)>, Vec<(DrbId, usize)>);

/// The assembled world. Build with [`World::new`], run with [`World::run`].
pub struct World {
    /// Shared with the replicas [`World::split`] carves out.
    cfg: Arc<ScenarioConfig>,
    /// The queue the pop loop runs: the only one of a one-queue world,
    /// the running cell's in a cell-major one ([`CellView`]). Each
    /// queue lists events on the slot grid of the cell it serves (cell
    /// 0's for the one queue; [`slot_origin`]).
    queue: EventQueue<Event>,
    /// The cells. Index = cell id; cell 0 is `ScenarioConfig::cell`.
    gnbs: Vec<Gnb>,
    /// UE → serving-cell attachment table.
    serving: Vec<usize>,
    /// Per-cell sorted attachment lists (the structure-of-arrays index
    /// by attachment): `cell_ues[c]` holds the UEs `serving` maps to
    /// `c`, ascending. The per-slot uplink scan walks this list instead
    /// of filtering all UEs — same iteration order, O(attached) work.
    cell_ues: Vec<Vec<usize>>,
    ues: Vec<UeStack>,
    /// CU-side marker instances. A classic central CU-UP has exactly
    /// one, shared by every cell (the pre-shard layout, byte-for-byte).
    /// With [`ScenarioConfig::cu_per_cell`] each cell runs its own
    /// instance on its own RNG stream — the deployment shape that makes
    /// cells shardable, because no marker state spans cells.
    markers: Vec<Marker>,
    /// The UE-side marker instances for uplink data queues, laid out
    /// exactly like `markers` (one shared, or one per cell), keyed
    /// internally by (ue, drb). Inert in downlink-only scenarios.
    ul_markers: Vec<Marker>,
    /// `Some` once [`World::cell_major_install`] gave every cell its own
    /// queue; `None` keeps one queue for a world whose cells share a
    /// marker, a router or a flow.
    cells: Option<CellView>,
    /// Envelopes for cells another replica owns, produced this epoch
    /// (in-flight uplink ACKs of flows whose UE migrated away — the only
    /// run-time cross-cell edge). Drained by the coordinator at
    /// slot-boundary barriers; stays empty when one world owns every
    /// cell.
    outbox: Vec<(Instant, Event)>,
    /// Any flow carries uplink data: gates the whole UL data plane so
    /// downlink-only scenarios stay byte-identical.
    has_ul_data: bool,
    /// Any flow carries downlink data: gates the delay-breakdown window
    /// ([`Recorder::on_txed`]), so an uplink-only world keeps none.
    has_dl_data: bool,
    /// Any uplink data bearer runs RLC UM (needs the gNB-side
    /// reassembly-timeout poll).
    has_um_ul: bool,
    flows: Vec<Flow>,
    tuple_to_flow: FxHashMap<FiveTuple, usize>,
    /// The hops between server egress and the core: impairment stages,
    /// then the bottleneck router. `None` sends a packet from the WAN
    /// link straight on to the CU.
    wired: Option<WiredPlane>,
    /// UEs with at least one UM DRB (the only ones whose RLC receivers
    /// need the reassembly-timeout poll).
    um_ues: Vec<usize>,
    /// Flows with UDP endpoints (the only ones whose receivers need the
    /// prohibit-interval feedback flush).
    udp_flows: Vec<usize>,
    /// Bonded flows (the only ones whose server-side join buffers need
    /// the gap-timeout flush).
    bond_flows: Vec<usize>,
    /// Reused per-slot gNB output buffers.
    slot_out: SlotOutput,
    /// Recycled uplink-batch buffers: `UlAtGnb` payloads come from and
    /// return to this pool, so the uplink path (like the downlink one)
    /// stops touching the allocator once the buffers reach steady-state
    /// size.
    ul_pool: Vec<UlBatch>,
    /// Recycled `UlAtGnb` per-slot batch buffers.
    ul_slot_pool: Vec<Vec<(usize, UlBatch)>>,
    /// Recycled `TbsAtUe` / `UlTbsAtGnb` batch buffers.
    tb_pool: Vec<Vec<TransportBlock>>,
    /// Reused buffers for what a sender releases (poll/ACK hot paths).
    scratch_tx: Released,
    /// Reused buffer for the units an application tick offers.
    scratch_units: Vec<AppUnit>,
    /// Reused buffer for join-buffer releases at the server.
    scratch_join: Vec<PacketBuf>,
    /// Reused buffer for UE app deliveries (the per-TB hot path).
    scratch_app_deliv: Vec<l4span_ran::ue::AppDelivery>,
    /// Reused per-UL-slot grant buffer: (ue, granted bytes, cqi).
    scratch_grants: Vec<(UeId, usize, u8)>,
    /// Reused buffer for UE-side granted-bytes feedback messages.
    scratch_ul_f1u: Vec<DlDataDeliveryStatus>,
    /// Reused buffer for gNB-side UL RLC status reports.
    scratch_ul_statuses: Vec<(UeId, DrbId, RlcStatus)>,
    /// Reused buffer for UM reassembly-timeout skips at the gNB.
    scratch_ul_skips: Vec<(UeId, DrbId, l4span_ran::rlc::RxDelivery)>,
    /// Reused buffer for the SDUs one uplink transport block delivers.
    scratch_ul_decoded: Vec<(DrbId, l4span_ran::rlc::RxDelivery)>,
    /// The metric store: per-flow delays, throughput, breakdown and
    /// QoE, per-UE bearer rows and handover logs, per-cell throughput,
    /// the estimation-error log.
    rec: Recorder,
    /// The L4Span estimation window when the world samples rate error
    /// against ground truth (an L4Span marker), else `None`.
    est_window: Option<Duration>,
    marker_time: (Vec<u64>, Vec<u64>, Vec<u64>),
    /// Transport blocks destroyed mid-air because their UE handed over
    /// before decode, per link: the world's share of the cells' counters
    /// (a gNB counts the blocks purged from its HARQ queue itself).
    ho_lost: GnbStats,
    /// Events popped by the run loop, per [`Event::class`], plus the
    /// mobility steps executed at barriers as `Handover`; their sum is
    /// `Report::events` (the benchmark's `events`). A cell-major world
    /// pops `Sample` and `UePoll` once per cell and counts cell 0's
    /// copy — which makes `Report::events` the same number under either
    /// execution order and at every shard count.
    event_counts: [u64; Event::CLASSES.len()],
    /// Largest number of pending events the pop loop found on a queue.
    queue_depth_peak: usize,
    /// Per-subsystem cycle accounting (disabled unless
    /// `ScenarioConfig::measure_cycles`; a disabled scope costs one
    /// predictable branch per span).
    cycles: CycleScope,
}

/// The cell-major view of a world whose cells are independent: one
/// event queue per cell, run one cell at a time between the barriers of
/// [`crate::shard::drive`]. An event belongs to a cell through the
/// `serving` table ([`World::event_cell`]) — which every replica updates
/// at handover barriers, so ownership flips globally and consistently
/// without any mask maintenance.
pub(crate) struct CellView {
    /// Which replica this world plays, and the static cell → replica
    /// map. The only replica of a one-replica run owns every cell.
    id: usize,
    of_cell: Vec<usize>,
    /// One queue per cell; those of cells another replica owns stay
    /// empty. While a cell runs its queue sits in `World::queue`, and
    /// this slot holds the idle (empty) one.
    queues: Vec<EventQueue<Event>>,
    /// The cell being run; `None` at barriers.
    running: Option<usize>,
}

impl World {
    /// Wire up a scenario.
    pub fn new(cfg: ScenarioConfig) -> World {
        if let Err(e) = cfg.check_id_widths() {
            panic!("invalid ScenarioConfig: {e}");
        }
        let cfg = Arc::new(cfg);
        let root = SimRng::new(cfg.seed);
        let n_cells = cfg.n_cells();
        // Cell 0 keeps the pre-multi-cell RNG stream (single-cell runs
        // stay byte-identical); extra cells draw from a disjoint range.
        let mut gnbs: Vec<Gnb> = (0..n_cells)
            .map(|c| {
                let rng = if c == 0 {
                    root.derive(1)
                } else {
                    root.derive(10_000 + c as u64)
                };
                Gnb::new(cfg.cell_config(c).clone(), cfg.scheduler, rng)
            })
            .collect();
        let mut ues = Vec::new();
        let mut serving = Vec::new();
        for (i, spec) in cfg.ues.iter().enumerate() {
            let home = spec.initial_cell;
            assert!(home < n_cells, "ue{i}: initial cell {home} out of range");
            for step in &spec.mobility {
                assert!(
                    step.cell < n_cells,
                    "ue{i}: mobility step targets cell {} of {n_cells}",
                    step.cell
                );
            }
            let mut ch_rng = root.derive(1000 + i as u64);
            let channel = FadingChannel::new(
                spec.profile,
                spec.mean_snr_db,
                cfg.cell_config(home).carrier_hz,
                &mut ch_rng,
            );
            let drbs: Vec<(DrbId, _)> = spec.drbs.iter().map(|&(d, m)| (DrbId(d), m)).collect();
            gnbs[home].add_ue(UeId(i as u16), channel, &drbs);
            for &(d, _) in &spec.drbs {
                gnbs[home].map_qfi(UeId(i as u16), Qfi(d), DrbId(d));
            }
            ues.push(UeStack::new(
                UeId(i as u16),
                &drbs,
                cfg.cell_config(home).rlc_status_period,
                cfg.cell_config(home).ue_internal_delay,
                cfg.cell_config(home).ul_sr_delay_max,
                root.derive(2000 + i as u64),
            ));
            serving.push(home);
        }
        // Marker deployment shape. The central instance keeps the
        // pre-existing `derive(2)` stream (byte-identical runs); per-cell
        // instances give cell 0 that same legacy stream and draw the rest
        // from a disjoint range, mirroring the gNB convention above.
        let markers: Vec<Marker> = if cfg.cu_per_cell {
            (0..n_cells)
                .map(|c| {
                    let rng = if c == 0 {
                        root.derive(2)
                    } else {
                        root.derive(20_000 + c as u64)
                    };
                    Marker::new(&cfg.marker, rng)
                })
                .collect()
        } else {
            vec![Marker::new(&cfg.marker, root.derive(2))]
        };
        let mut flows = Vec::new();
        let mut tuple_to_flow = FxHashMap::default();
        let mut has_ul_data = false;
        let mut has_um_ul = false;
        // Stand up flow `f`'s uplink data bearer on `ue`: the UE-side
        // PDCP/RLC transmit entities and the serving cell's receive
        // entities, in the DRB's configured mode.
        let mut ul_bearer = |f: usize, ue: usize, drb: u8| {
            let home = cfg.ues[ue].initial_cell;
            let mode = cfg.ues[ue]
                .drbs
                .iter()
                .find(|&&(d, _)| d == drb)
                .map(|&(_, m)| m)
                .unwrap_or_else(|| panic!("uplink flow {f}: DRB {drb} not in UE {ue} spec"));
            has_um_ul |= mode == RlcMode::Um;
            let cell_cfg = cfg.cell_config(home);
            ues[ue].configure_ul_drb(
                DrbId(drb),
                mode,
                cell_cfg.rlc_queue_sdus,
                cell_cfg.segment_overhead,
            );
            gnbs[home].ensure_ul_drb(UeId(ue as u16), DrbId(drb), mode);
        };
        for (f, spec) in cfg.flows.iter().enumerate() {
            let Built {
                endpoint,
                tuple,
                app,
                framed,
            } = endpoint::build(f, spec, &mut tuple_to_flow);
            if spec.dir == FlowDir::Uplink {
                has_ul_data = true;
                ul_bearer(f, spec.ue, spec.drb);
            }
            // Bonded (dual-connectivity) leg: stand up the same uplink
            // bearer on the secondary UE, which must sit on a different
            // cell and — like the primary — must not move (the bond pins
            // both attachments for the run).
            let bond = if let Some(ue2) = spec.bond {
                assert_eq!(
                    spec.dir,
                    FlowDir::Uplink,
                    "flow {f}: bonding is uplink-only"
                );
                assert!(
                    ue2 < cfg.ues.len() && ue2 != spec.ue,
                    "flow {f}: bond UE {ue2} out of range or equal to the primary"
                );
                assert!(
                    cfg.ues[spec.ue].mobility.is_empty() && cfg.ues[ue2].mobility.is_empty(),
                    "flow {f}: bonded UEs must not have mobility trajectories"
                );
                assert_ne!(
                    cfg.ues[spec.ue].initial_cell, cfg.ues[ue2].initial_cell,
                    "flow {f}: bonded legs must attach to different cells"
                );
                ul_bearer(f, ue2, spec.drb);
                Some(Box::new(BondState {
                    ue2_idx: ue2,
                    ue2_id: UeId(ue2 as u16),
                    tx: BondTx::new(),
                    join: endpoint.needs_join().then(BondJoin::new),
                    sbd: SbdDetector::new(),
                    leg_pkts: [0; 2],
                }))
            } else {
                None
            };
            flows.push(Flow {
                ue_idx: spec.ue,
                ue_id: UeId(spec.ue as u16),
                drb: DrbId(spec.drb),
                qfi: Qfi(spec.drb),
                tuple,
                wan_one_way: spec.wan.one_way,
                start: spec.start,
                stop: spec.stop,
                endpoint,
                started: false,
                finished_at: None,
                dir: spec.dir,
                fb_pending: FxHashMap::default(),
                has_app: app.is_some(),
                app,
                pending_units: VecDeque::new(),
                framed,
                bond,
            });
        }
        let wired = WiredPlane::of_scenario(&cfg, &root);

        // UEs that actually need the periodic poll (UM reassembly skips)
        // and flows that need the UDP feedback flush; in an all-AM,
        // all-TCP cell the UePoll tick disappears entirely.
        let um_ues: Vec<usize> = cfg
            .ues
            .iter()
            .enumerate()
            .filter(|(_, s)| s.drbs.iter().any(|&(_, m)| m == RlcMode::Um))
            .map(|(i, _)| i)
            .collect();
        let udp_flows: Vec<usize> = flows
            .iter()
            .enumerate()
            .filter(|(_, f)| f.endpoint.paces_feedback())
            .map(|(i, _)| i)
            .collect();
        let bond_flows: Vec<usize> = flows
            .iter()
            .enumerate()
            .filter(|(_, f)| f.bond.is_some())
            .map(|(i, _)| i)
            .collect();
        // The UE-side uplink markers mirror the CU ones (same deployment
        // shape, disjoint stream range); their RNG streams are derived
        // (purely) from the root, so constructing them perturbs nothing
        // in downlink-only scenarios.
        let ul_markers: Vec<Marker> = if cfg.cu_per_cell {
            (0..n_cells)
                .map(|c| {
                    let rng = if c == 0 {
                        root.derive(4)
                    } else {
                        root.derive(30_000 + c as u64)
                    };
                    Marker::new(&cfg.marker.uplink(), rng)
                })
                .collect()
        } else {
            vec![Marker::new(&cfg.marker.uplink(), root.derive(4))]
        };
        // Per-cell attachment lists (UE indices ascend, matching the
        // classic filtered scan's iteration order).
        let mut cell_ues: Vec<Vec<usize>> = vec![Vec::new(); n_cells];
        for (i, &c) in serving.iter().enumerate() {
            cell_ues[c].push(i);
        }
        // One wake-up slot per timer owner: the wired plane's hops,
        // every flow's sender, the applications there are.
        let hops = wired.as_ref().map_or(0, WiredPlane::n_hops);
        let mut keys: Vec<usize> = (0..hops).map(|h| Timer::Hop(h as u8).key()).collect();
        keys.extend(wake_keys(&flows, |_| true));
        let queue = EventQueue::with_wakeups(1024 + 128 * flows.len(), keys)
            .with_grid(cfg.cell_config(0).slot_duration, slot_origin(&cfg, 0));
        let has_dl_data = cfg.flows.iter().any(|f| f.dir == FlowDir::Downlink);
        // Estimation error vs ground truth is an L4Span-only series.
        let est_window = markers[0].as_l4span().map(|l| l.config().estimation_window);
        let mut w = World {
            queue,
            gnbs,
            serving,
            cell_ues,
            ues,
            markers,
            ul_markers,
            has_ul_data,
            has_dl_data,
            has_um_ul,
            flows,
            tuple_to_flow,
            wired,
            um_ues,
            udp_flows,
            bond_flows,
            est_window,
            ..World::empty(cfg)
        };
        w.schedule_start();
        w
    }

    /// A world of `cfg`'s shape with nothing in it: empty pools and
    /// scratch buffers, and a metric store sized for its flows, UEs and
    /// cells. [`World::new`] fills in the cells, UEs, markers, flows
    /// and the tables it derives; [`World::vacant_replica`] fills in
    /// vacant ones and copies of the tables.
    fn empty(cfg: Arc<ScenarioConfig>) -> World {
        let rec = Recorder::new(&cfg);
        let cycles = if cfg.measure_cycles {
            CycleScope::new(CYCLE_LABELS)
        } else {
            CycleScope::disabled()
        };
        World {
            cfg,
            queue: EventQueue::new(),
            gnbs: Vec::new(),
            serving: Vec::new(),
            cell_ues: Vec::new(),
            ues: Vec::new(),
            markers: Vec::new(),
            ul_markers: Vec::new(),
            cells: None,
            outbox: Vec::new(),
            has_ul_data: false,
            has_dl_data: false,
            has_um_ul: false,
            flows: Vec::new(),
            tuple_to_flow: FxHashMap::default(),
            wired: None,
            um_ues: Vec::new(),
            udp_flows: Vec::new(),
            bond_flows: Vec::new(),
            slot_out: SlotOutput::default(),
            ul_pool: Vec::new(),
            ul_slot_pool: Vec::new(),
            tb_pool: Vec::new(),
            scratch_tx: Released::default(),
            scratch_units: Vec::new(),
            scratch_join: Vec::new(),
            scratch_app_deliv: Vec::new(),
            scratch_grants: Vec::new(),
            scratch_ul_f1u: Vec::new(),
            scratch_ul_statuses: Vec::new(),
            scratch_ul_skips: Vec::new(),
            scratch_ul_decoded: Vec::new(),
            rec,
            est_window: None,
            marker_time: (Vec::new(), Vec::new(), Vec::new()),
            ho_lost: GnbStats::default(),
            event_counts: [0; Event::CLASSES.len()],
            queue_depth_peak: 0,
            cycles,
        }
    }

    /// A replica of this freshly built world with every live slot vacant
    /// — a [`Gnb`] with no UEs and no TDD pattern, a [`UeStack`] with no
    /// DRBs, [`Marker::None`], [`Flow::vacant`] — over the same config,
    /// static tables and start events. [`World::exchange`] then moves in
    /// the cells it owns. Only a world whose cells are independent has
    /// replicas, so there is no wired plane to copy.
    fn vacant_replica(&self) -> World {
        let cfg = &self.cfg;
        let gnbs = (0..self.gnbs.len())
            .map(|c| {
                let cell = CellConfig {
                    tdd_pattern: Vec::new(),
                    ..*cfg.cell_config(c)
                };
                Gnb::new(cell, cfg.scheduler, SimRng::new(0))
            })
            .collect();
        let ues = (0..self.ues.len())
            .map(|i| {
                let zero = Duration::ZERO;
                UeStack::new(UeId(i as u16), &[], zero, zero, zero, SimRng::new(0))
            })
            .collect();
        let mut w = World {
            queue: EventQueue::with_capacity(self.queue.len()),
            gnbs,
            serving: self.serving.clone(),
            cell_ues: self.cell_ues.clone(),
            ues,
            markers: self.markers.iter().map(|_| Marker::None).collect(),
            ul_markers: self.ul_markers.iter().map(|_| Marker::None).collect(),
            has_ul_data: self.has_ul_data,
            has_dl_data: self.has_dl_data,
            has_um_ul: self.has_um_ul,
            flows: self.flows.iter().map(Flow::vacant).collect(),
            tuple_to_flow: self.tuple_to_flow.clone(),
            um_ues: self.um_ues.clone(),
            udp_flows: self.udp_flows.clone(),
            bond_flows: self.bond_flows.clone(),
            est_window: self.est_window,
            ..World::empty(Arc::clone(cfg))
        };
        w.schedule_start();
        w
    }

    /// Schedule what every run starts from — each cell's first slot, the
    /// housekeeping ticks, every flow's start and stop — in one order,
    /// on a world and on each of its vacant replicas alike. The mobility
    /// steps are not events: [`crate::shard::drive`] executes them at
    /// their barriers.
    fn schedule_start(&mut self) {
        let cfg = Arc::clone(&self.cfg);
        for cell in 0..self.gnbs.len() {
            self.sched(slot_origin(&cfg, cell), Event::Slot { cell });
        }
        // Per-cell CU deployments also nudge the housekeeping ticks
        // (one copy per cell once the world runs cell-major) half a
        // microsecond off their grids. Mobility steps land on round
        // instants that coincide with the 10 ms sample grid, and a
        // migrated in-flight event at exactly the barrier instant takes
        // a *fresh* sequence number on injection — it would pop after a
        // same-instant `Sample` whose time-major sequence number is
        // older, sampling a queue one SDU early. Off-grid ticks make the
        // order a pure function of time, identical under either
        // execution order and at every shard count.
        let hk = if cfg.cu_per_cell {
            TICK_PHASE_PER_CELL_CU
        } else {
            Duration::ZERO
        };
        self.sched(Instant::ZERO + SAMPLE_PERIOD + hk, Event::Sample);
        let need_ue_poll = !self.um_ues.is_empty()
            || !self.udp_flows.is_empty()
            || self.has_um_ul
            || !self.bond_flows.is_empty();
        if need_ue_poll {
            self.sched(Instant::ZERO + UE_POLL_PERIOD + hk, Event::UePoll);
        }
        for f in 0..self.flows.len() {
            let start = self.flows[f].start;
            self.sched(start, Event::FlowStart { flow: f });
            if let Some(stop) = self.flows[f].stop {
                self.sched(stop, Event::FlowStop { flow: f });
            }
        }
    }

    /// Schedule an event on the running queue. In a cell-major world
    /// that is the running cell's, so whatever a handler schedules must
    /// belong to that cell — [`World::sched_ul_at_server`] is the one
    /// exception, and debug builds hold every other caller to it.
    #[inline]
    fn sched(&mut self, at: Instant, ev: Event) {
        debug_assert!(
            self.running_cell()
                .is_none_or(|c| self.event_cell(&ev).is_none_or(|o| o == c)),
            "cell-major: {} for cell {:?} scheduled while cell {:?} runs",
            Event::CLASSES[ev.class()],
            self.event_cell(&ev),
            self.running_cell(),
        );
        self.queue.schedule(at, ev);
    }

    /// Ask for `timer`'s owner to be woken at `at` on the running queue:
    /// the one way a timer is armed. An owner already due no later keeps
    /// its entry; one due later has it moved.
    #[inline]
    fn arm(&mut self, timer: Timer, at: Instant) {
        debug_assert!(
            self.running_cell()
                .is_none_or(|c| self.event_cell(&timer.event()).is_none_or(|o| o == c)),
            "cell-major: a timer of another cell armed while cell {:?} runs",
            self.running_cell(),
        );
        self.queue.arm(timer.key(), at, || timer.event());
    }

    /// Marker-instance index for `cell`: the shared central instance, or
    /// the cell's own one under `cu_per_cell`.
    #[inline]
    fn mk(&self, cell: usize) -> usize {
        if self.markers.len() == 1 {
            0
        } else {
            cell
        }
    }

    /// The cell whose queue is running; `None` in a time-major world
    /// (and at the barriers of a cell-major one).
    #[inline]
    fn running_cell(&self) -> Option<usize> {
        self.cells.as_ref().and_then(|v| v.running)
    }

    /// Does the housekeeping tick being handled cover `cell`? A
    /// time-major world has one tick for everything; a cell-major one
    /// ticks per cell, and the UE's owner moves with it, so every
    /// (UE, tick) is still covered exactly once.
    #[inline]
    fn owns_cell(&self, cell: usize) -> bool {
        match &self.cells {
            None => true,
            Some(v) => v.running == Some(cell),
        }
    }

    /// Does the tick cover `ue` (= its serving cell)?
    #[inline]
    fn owns_ue(&self, ue: usize) -> bool {
        self.owns_cell(self.serving[ue])
    }

    /// Does the tick cover `flow` (= its UE)?
    #[inline]
    fn owns_flow(&self, flow: usize) -> bool {
        self.owns_ue(self.flows[flow].ue_idx)
    }

    /// Schedule an `UlAtServer` for `flow`. When the flow's UE has just
    /// left the running cell — its uplink ACKs were still on the air
    /// toward the old cell, the only run-time cross-cell edge — the
    /// event goes straight into the owner cell's queue, or through the
    /// outbox when another replica owns that cell. A time-major world
    /// owns every flow, so the hot path costs one predictable branch.
    #[inline]
    fn sched_ul_at_server(&mut self, flow: usize, pkt: PacketBuf, at: Instant) {
        let ev = Event::UlAtServer { flow, pkt };
        if let Some(v) = &self.cells {
            let cell = self.serving[self.flows[flow].ue_idx];
            if v.running != Some(cell) {
                if v.of_cell[cell] == v.id {
                    self.inject(at, ev);
                } else {
                    self.outbox.push((at, ev));
                }
                return;
            }
        }
        self.sched(at, ev);
    }

    /// Flip the attachment table and the per-cell attachment lists.
    /// Also applied to every *other* replica at shard barriers, so
    /// ownership (derived from `serving`) flips globally in lockstep.
    pub(crate) fn set_serving(&mut self, ue: usize, cell: usize) {
        let old = self.serving[ue];
        if old == cell {
            return;
        }
        if let Ok(pos) = self.cell_ues[old].binary_search(&ue) {
            self.cell_ues[old].remove(pos);
        }
        if let Err(pos) = self.cell_ues[cell].binary_search(&ue) {
            self.cell_ues[cell].insert(pos, ue);
        }
        self.serving[ue] = cell;
    }

    /// Execute to the configured duration on the cores the host grants
    /// (`L4SPAN_THREADS`, default: all of them) — one replica per core,
    /// at most one per cell — and produce the report. The report is the
    /// same whatever the replica count is.
    pub fn run(self) -> Report {
        self.run_on(crate::runner::default_threads())
    }

    /// Execute to the configured duration on up to `replicas` replicas
    /// of this world — the one body behind [`World::run`] and
    /// [`crate::run_sharded`]. Every world runs through
    /// [`crate::shard::drive`], which executes each mobility step at its
    /// barrier, before every event at its instant.
    ///
    /// A world whose cells are independent — the shard planner has no
    /// reason to refuse it — runs **cell-major**: one queue per cell,
    /// each cell run up to the next mobility barrier in turn, so a
    /// cell's state stays in cache while it runs. On `n = min(replicas,
    /// cells)` replicas ([`World::split`]) their epochs run in parallel;
    /// one replica is the one world owning every cell. Every other world
    /// is one replica that keeps its single queue — the only valid order
    /// when cells share a marker or a router — and
    /// [`Report::shard_reject`] says why.
    pub(crate) fn run_on(mut self, replicas: usize) -> Report {
        let reject = crate::shard::plan_shards_reason(&self.cfg, 2).1;
        let (world, stats) = match reject {
            Some(_) => {
                let stats = self.drive_alone();
                (self, stats)
            }
            None => {
                let n = replicas.clamp(1, self.gnbs.len());
                // Spans must divide one thread's wall time: a measured
                // world runs its replicas one after the other on this
                // thread.
                let workers = if self.cfg.measure_cycles {
                    1
                } else {
                    crate::runner::default_threads().min(n)
                };
                let schedule = crate::shard::barrier_schedule(&self.cfg);
                let mut worlds = self.split(n);
                let stats = crate::shard::drive(&mut worlds, &schedule, workers);
                (World::merge_sharded(worlds), stats)
            }
        };
        let mut report = world.into_report();
        report.shard_reject = reject;
        if stats.len() > 1 {
            // Every replica's spans, label by label: `calls` is exact at
            // any replica count.
            for s in &stats[1..] {
                for (sum, c) in report.cycles.iter_mut().zip(&s.cycles) {
                    sum.nanos += c.nanos;
                    sum.calls += c.calls;
                }
            }
            report.shards = stats;
        }
        report
    }

    /// Carve this freshly built world into `n` cell-major replicas, the
    /// cells dealt round-robin: replica `s > 0` starts as a
    /// [`World::vacant_replica`] and [`World::exchange`] moves the cells
    /// `c % n == s` into it, with the UEs they serve; this world is
    /// replica 0 and keeps the rest. A replica holds live state only for
    /// what it owns, so its cost follows its share of the world.
    fn split(mut self, n: usize) -> Vec<World> {
        let of_cell: Vec<usize> = (0..self.gnbs.len()).map(|c| c % n).collect();
        let mut worlds = Vec::with_capacity(n);
        for s in 1..n {
            let mut replica = self.vacant_replica();
            World::exchange(&mut self, &mut replica, s, &of_cell);
            worlds.push(replica);
        }
        worlds.insert(0, self);
        for (s, w) in worlds.iter_mut().enumerate() {
            w.cell_major_install(s, of_cell.clone());
        }
        worlds
    }

    /// Run this world alone through its mobility barriers
    /// ([`crate::shard::drive`] on this thread): on its one queue, or
    /// cell-major as the only replica.
    fn drive_alone(&mut self) -> Vec<ShardStat> {
        let schedule = crate::shard::barrier_schedule(&self.cfg);
        crate::shard::drive(std::slice::from_mut(self), &schedule, 1)
    }

    /// Any world run off one queue, time-major: the reference the
    /// cell-major order is checked against.
    #[cfg(test)]
    pub(crate) fn run_time_major(mut self) -> Report {
        self.drive_alone();
        self.into_report()
    }

    /// Drive the event loop until the next event would fire at or after
    /// `until` (an epoch barrier) or after `end` — the one queue of a
    /// one-queue world, or each owned cell's in turn. Events exactly at
    /// `until` stay queued: the coordinator's barrier work (mobility
    /// steps, mailbox drain) runs *before* anything at the barrier
    /// instant. That is the rule, on every path: a mobility step runs
    /// before every event at its instant.
    pub(crate) fn run_until(&mut self, until: Instant, end: Instant) {
        let passes = self.cells.as_ref().map_or(1, |v| v.queues.len());
        for c in 0..passes {
            if let Some(v) = &mut self.cells {
                if v.of_cell[c] != v.id {
                    continue;
                }
                std::mem::swap(&mut self.queue, &mut v.queues[c]);
                v.running = Some(c);
            }
            let ticks = (
                self.event_counts[Event::SAMPLE],
                self.event_counts[Event::UE_POLL],
            );
            while let Some(at) = self.queue.next_at() {
                if at > end || at >= until {
                    break;
                }
                self.queue_depth_peak = self.queue_depth_peak.max(self.queue.len());
                let t0 = self.cycles.start();
                let (now, ev) = self.queue.pop().expect("peeked");
                self.cycles.stop(t0, CYC_QUEUE);
                self.event_counts[ev.class()] += 1;
                self.handle(ev, now);
            }
            if let Some(v) = &mut self.cells {
                std::mem::swap(&mut self.queue, &mut v.queues[c]);
                v.running = None;
                // The per-cell copies of a housekeeping tick are one
                // event: cell 0's pops are the ones counted.
                if c != 0 {
                    self.event_counts[Event::SAMPLE] = ticks.0;
                    self.event_counts[Event::UE_POLL] = ticks.1;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Event, now: Instant) {
        match ev {
            Event::Slot { cell } => self.on_slot(cell, now),
            Event::DlAtHop { hop, pkt } => {
                let t0 = self.cycles.start();
                self.wired_step(|plane, sink| plane.arrive(hop as usize, pkt, now, sink));
                self.cycles.stop(t0, CYC_WIRED);
            }
            Event::HopPoll { hop } => {
                let t0 = self.cycles.start();
                self.wired_step(|plane, sink| plane.poll(hop as usize, now, sink));
                self.cycles.stop(t0, CYC_WIRED);
            }
            Event::DlAtCu { flow, pkt } => self.on_dl_at_cu(flow, pkt, now),
            Event::TbsAtUe { cell, mut tbs } => {
                for tb in tbs.drain(..) {
                    self.on_tb_at_ue(cell, tb, now);
                }
                self.tb_pool.push(tbs);
            }
            Event::AppDeliver { pkt, drb, sn } => self.on_app_deliver(pkt, drb, sn, now),
            Event::UlAtGnb { cell, mut ues } => {
                for (ue, batch) in ues.drain(..) {
                    self.on_ul_at_gnb(cell, ue, batch, now);
                }
                self.ul_slot_pool.push(ues);
            }
            Event::UlTbsAtGnb { cell, mut tbs } => {
                for tb in tbs.drain(..) {
                    self.on_ul_tb_at_gnb(cell, tb, now);
                }
                self.tb_pool.push(tbs);
            }
            Event::UlStatusAtUe { ue, drb, status } => {
                // The UE's transmit entity survives handover (it
                // re-establishes in place), so a status from the old
                // cell lands safely: unknown SNs are ignored by ARQ.
                let t0 = self.cycles.start();
                self.ues[ue].on_ul_status(drb, &status, now);
                self.gnbs[self.serving[ue]].recycle_ul_status(UeId(ue as u16), drb, status);
                self.cycles.stop(t0, CYC_UE);
                self.feed_ul_marker_feedback(ue, now);
            }
            Event::UlAtServer { flow, pkt } => self.on_ul_at_server(flow, pkt, now),
            Event::FlowStart { flow } => self.on_flow_start(flow, now),
            Event::FlowStop { flow } => {
                if let Some(app) = &mut self.flows[flow].app {
                    app.stop();
                }
                self.flows[flow].endpoint.stop();
            }
            Event::FlowTimer { flow } => {
                if self.flows[flow].started {
                    self.poll_sender(flow, now);
                }
            }
            Event::AppTick { flow } => self.on_app_tick(flow, now),
            Event::Sample => {
                let t0 = self.cycles.start();
                self.on_sample(now);
                self.cycles.stop(t0, CYC_METRICS);
            }
            Event::UePoll => {
                // Only UEs with UM DRBs have reassembly timers to run.
                let t0 = self.cycles.start();
                let mut deliveries = std::mem::take(&mut self.scratch_app_deliv);
                for k in 0..self.um_ues.len() {
                    let i = self.um_ues[k];
                    if !self.owns_ue(i) {
                        continue;
                    }
                    self.ues[i].poll_into(now, &mut deliveries);
                    for d in deliveries.drain(..) {
                        let (pkt, drb, sn) = (d.pkt, d.drb, d.sn);
                        self.sched(d.deliver_at, Event::AppDeliver { pkt, drb, sn });
                    }
                }
                self.scratch_app_deliv = deliveries;
                self.cycles.stop(t0, CYC_UE);
                // Flush feedback reports suppressed by the prohibit
                // interval (only paced receivers are on this list).
                let t0 = self.cycles.start();
                for k in 0..self.udp_flows.len() {
                    let flow = self.udp_flows[k];
                    if !self.owns_flow(flow) {
                        continue;
                    }
                    if let Some(fb) = self.flows[flow].endpoint.flush_feedback(now) {
                        self.send_feedback(flow, fb, now);
                    }
                }
                self.cycles.stop(t0, CYC_TRANSPORT);
                // UM uplink bearers: run the gNB-side reassembly-timeout
                // skip so a lost uplink SDU does not stall later ones.
                if self.has_um_ul {
                    let mut skipped = std::mem::take(&mut self.scratch_ul_skips);
                    for cell in 0..self.gnbs.len() {
                        if !self.owns_cell(cell) {
                            continue;
                        }
                        let core = self.gnbs[cell].config().core_to_cu_delay;
                        skipped.clear();
                        let t0 = self.cycles.start();
                        self.gnbs[cell].poll_ul_rx_into(now, &mut skipped);
                        self.cycles.stop(t0, CYC_UL);
                        for (_ue, _drb, d) in skipped.drain(..) {
                            self.forward_ul_to_server(cell, d.pkt, core, now);
                        }
                    }
                    self.scratch_ul_skips = skipped;
                }
                // Bonded TCP flows: release join-buffered packets whose
                // gap has waited past the reorder timeout, so a lost
                // packet on one leg cannot stall the other indefinitely.
                let mut joined = std::mem::take(&mut self.scratch_join);
                for k in 0..self.bond_flows.len() {
                    let flow = self.bond_flows[k];
                    if !self.owns_flow(flow) {
                        continue;
                    }
                    if let Some(join) = self.flows[flow].bond.as_mut().and_then(|b| b.join.as_mut())
                    {
                        join.poll(now, &mut joined);
                    }
                    for pkt in joined.drain(..) {
                        self.deliver_ul_at_server(flow, pkt, now);
                    }
                }
                self.scratch_join = joined;
                self.sched(now + UE_POLL_PERIOD, Event::UePoll);
            }
        }
    }

    /// A deterministic per-(seed, ue, time) fading channel toward `cell`.
    fn fresh_channel(
        &self,
        ue: usize,
        cell: usize,
        profile: ChannelProfile,
        snr_db: f64,
        now: Instant,
    ) -> FadingChannel {
        let mut rng = SimRng::new(self.cfg.seed ^ (ue as u64) << 32 ^ now.as_nanos());
        FadingChannel::new(
            profile,
            snr_db,
            self.gnbs[cell].config().carrier_hz,
            &mut rng,
        )
    }

    /// Execute `ue`'s mobility `step` at its barrier, counted as a
    /// `Handover`: a pure channel change when the target is already
    /// serving, otherwise a full Xn handover — detach with context
    /// serialization at the source, PDCP re-establishment and lossless
    /// SDU forwarding at the target, UE-side re-establishment (forced
    /// status report), the marker's handover policy per DRB, and the
    /// attachment-table flip. This world holds the UE and both cells:
    /// between replicas, [`crate::shard::drive`] lends it the target
    /// cell first ([`World::swap_cell`]).
    pub(crate) fn apply_mobility_step(&mut self, ue: usize, step: MobilityStep) {
        self.event_counts[Event::HANDOVER] += 1;
        let MobilityStep {
            at: now,
            cell: target_cell,
            profile,
            snr_db,
        } = step;
        let src = self.serving[ue];
        let ch = self.fresh_channel(ue, target_cell, profile, snr_db, now);
        if target_cell == src {
            self.gnbs[src].replace_channel(UeId(ue as u16), ch);
            return;
        }
        let ue_id = UeId(ue as u16);
        let ctx = self.gnbs[src].detach_ue(ue_id);
        self.gnbs[target_cell].attach_ue_handover(ue_id, ch, ctx, now);
        let tgt_cfg = self.gnbs[target_cell].config();
        let (sp, id, sr) = (
            tgt_cfg.rlc_status_period,
            tgt_cfg.ue_internal_delay,
            tgt_cfg.ul_sr_delay_max,
        );
        self.ues[ue].on_handover(sp, id, sr, now);
        // Per-cell CU deployments first carry the UE's marker state over
        // Xn to the target cell's instance; the classic central instance
        // already holds it. Then the policy runs where the state now is.
        if self.markers.len() > 1 {
            self.migrate_marker_state(ue, src, target_cell);
        }
        let m = self.mk(target_cell);
        for k in 0..self.cfg.ues[ue].drbs.len() {
            let d = self.cfg.ues[ue].drbs[k].0;
            self.markers[m].on_handover(ue_id, DrbId(d), self.cfg.marker_ho_policy);
            // The uplink marker applies the same policy symmetrically:
            // its profile table (SN mirror of the UE-side PDCP, whose
            // numbering is continuous across re-establishment) always
            // survives; MigrateState keeps the grant-rate estimator,
            // ColdStart resets it.
            self.ul_markers[m].on_handover(ue_id, DrbId(d), self.cfg.marker_ho_policy);
        }
        self.set_serving(ue, target_cell);
        self.rec.push_handover(ue, now, src, target_cell);
    }

    /// Move a UE's marker state (both instances) between per-cell
    /// markers over Xn: per-DRB marking state plus per-tuple flow state
    /// for each of the UE's flows.
    fn migrate_marker_state(&mut self, ue: usize, src: usize, dst: usize) {
        let ue_id = UeId(ue as u16);
        let drbs: Vec<DrbId> = self.cfg.ues[ue]
            .drbs
            .iter()
            .map(|&(d, _)| DrbId(d))
            .collect();
        let tuples: Vec<FiveTuple> = self
            .flows
            .iter()
            .filter(|f| f.ue_idx == ue)
            .map(|f| f.tuple)
            .collect();
        let carry = self.markers[src].extract_ue(ue_id, &drbs, &tuples);
        self.markers[dst].absorb_ue(carry);
        let carry = self.ul_markers[src].extract_ue(ue_id, &drbs, &tuples);
        self.ul_markers[dst].absorb_ue(carry);
    }

    /// One downlink transport block from `cell` decodes at its UE.
    fn on_tb_at_ue(&mut self, cell: usize, tb: TransportBlock, now: Instant) {
        let ue = tb.ue.0 as usize;
        if self.serving[ue] != cell {
            // The UE handed over while the block was on the air: it
            // decodes nothing from the old cell. In AM the SDUs were
            // forwarded over Xn anyway; in UM they are genuinely lost,
            // exactly as over the air — and counted as lost either way.
            self.ho_lost.dl.tbs_lost += 1;
            return;
        }
        let t0 = self.cycles.start();
        let mut deliveries = std::mem::take(&mut self.scratch_app_deliv);
        let segs = self.ues[ue].on_transport_block_into(tb, now, &mut deliveries);
        self.gnbs[cell].recycle_segments(segs);
        for d in deliveries.drain(..) {
            let (pkt, drb, sn) = (d.pkt, d.drb, d.sn);
            self.sched(d.deliver_at, Event::AppDeliver { pkt, drb, sn });
        }
        self.scratch_app_deliv = deliveries;
        self.cycles.stop(t0, CYC_UE);
    }

    fn on_slot(&mut self, cell: usize, now: Instant) {
        // Reuse the slot-output buffers across slots (taken out of self
        // so the marker/metrics borrows below stay disjoint).
        let mut out = std::mem::take(&mut self.slot_out);
        let c0 = self.cycles.start();
        self.gnbs[cell].on_slot_into(now, &mut out);
        self.cycles.stop(c0, CYC_GNB);
        let m = self.mk(cell);
        for msg in &out.f1u {
            let c0 = self.cycles.start();
            let t0 = self.clock_start();
            self.markers[m].on_feedback(msg, now);
            self.clock_stop(t0, 2);
            self.cycles.stop(c0, CYC_MARKER);
        }
        let c0 = self.cycles.start();
        let (gt, in_air) = (self.est_window.is_some(), self.has_dl_data);
        if gt || in_air {
            for (ue, drb, rec) in &out.txed_records {
                self.rec.on_txed(ue.0 as usize, drb.0, rec, gt, in_air);
            }
        }
        self.cycles.stop(c0, CYC_METRICS);
        let c0 = self.cycles.start();
        if let Some(first) = out.deliveries.first() {
            // Every block of a slot decodes at the end of that slot.
            let at = first.deliver_at;
            let mut tbs = self.tb_pool.pop().unwrap_or_default();
            for d in out.deliveries.drain(..) {
                debug_assert_eq!(d.deliver_at, at, "one decode instant per slot");
                tbs.push(d.tb);
            }
            self.sched(at, Event::TbsAtUe { cell, tbs });
        }
        self.cycles.stop(c0, CYC_GNB);
        if self.has_ul_data {
            // Uplink RLC AM statuses ride the downlink control channel
            // on their own cadence (any slot role).
            let air = self.gnbs[cell].config().slot_duration;
            let c0 = self.cycles.start();
            // `drain(..)` below leaves the scratch vec empty, so the
            // take hands `ul_statuses_into` a clean buffer as-is.
            let mut statuses = std::mem::take(&mut self.scratch_ul_statuses);
            self.gnbs[cell].ul_statuses_into(now, &mut statuses);
            for (ue_id, drb, status) in statuses.drain(..) {
                self.sched(
                    now + air,
                    Event::UlStatusAtUe {
                        ue: ue_id.0 as usize,
                        drb,
                        status,
                    },
                );
            }
            self.scratch_ul_statuses = statuses;
            self.cycles.stop(c0, CYC_UL);
        }
        if out.role == Some(SlotRole::Uplink) {
            let air = self.gnbs[cell].config().slot_duration;
            if self.has_ul_data {
                // BSR-driven grant allocation: the scheduler grants
                // against the buffer status it learned from earlier
                // reports; each granted UE packs a transport block that
                // never exceeds its TBS and transmits it this slot.
                let mut grants = std::mem::take(&mut self.scratch_grants);
                let c0 = self.cycles.start();
                self.gnbs[cell].allocate_ul_grants_into(now, &mut grants);
                self.cycles.stop(c0, CYC_UL);
                let mut tbs = self.tb_pool.pop().unwrap_or_default();
                for &(ue_id, bytes, cqi) in &grants {
                    let i = ue_id.0 as usize;
                    if self.serving[i] != cell {
                        continue;
                    }
                    let c0 = self.cycles.start();
                    let segments = self.gnbs[cell].take_segments();
                    match self.ues[i].build_ul_tb(bytes, cqi, now, segments) {
                        Ok(tb) => tbs.push(tb),
                        Err(unused) => self.gnbs[cell].recycle_segments(unused),
                    }
                    self.cycles.stop(c0, CYC_UE);
                    // Granted-bytes history → the uplink marker's
                    // delay predictor (the UE-side F1-U mirror).
                    self.feed_ul_marker_feedback(i, now);
                }
                self.scratch_grants = grants;
                self.sched_ul_tbs(cell, tbs, now + air);
            }
            let c0 = self.cycles.start();
            let mut batch = self.ul_slot_pool.pop().unwrap_or_default();
            // Walk the cell's sorted attachment list: same ascending UE
            // order as the classic all-UE filtered scan, but O(attached)
            // — in a 50-cell metro the filter itself was the hot path.
            for k in 0..self.cell_ues[cell].len() {
                let i = self.cell_ues[cell][k];
                // Quiet-UE fast path: a UE with nothing to transmit and
                // no status/BSR state transition due this slot is skipped
                // before any pool churn. `ul_slot_pending` is an exact
                // predicate — it returns true whenever any of the calls
                // below would emit *or mutate*, so skipping is
                // behaviour-identical (asserted by a harness test).
                if !self.ues[i].ul_slot_pending(now, self.has_ul_data) {
                    continue;
                }
                let (mut pkts, mut statuses, mut bsr) = self.ul_pool.pop().unwrap_or_default();
                self.ues[i].on_uplink_slot_into(now, &mut pkts, &mut statuses);
                if self.has_ul_data {
                    self.ues[i].ul_bsr_into(now, &mut bsr);
                }
                if !pkts.is_empty() || !statuses.is_empty() || !bsr.is_empty() {
                    batch.push((i, (pkts, statuses, bsr)));
                } else {
                    self.ul_pool.push((pkts, statuses, bsr));
                }
            }
            if batch.is_empty() {
                self.ul_slot_pool.push(batch);
            } else {
                self.sched(now + air, Event::UlAtGnb { cell, ues: batch });
            }
            self.cycles.stop(c0, CYC_UL);
        }
        self.slot_out = out;
        self.sched(
            now + self.gnbs[cell].config().slot_duration,
            Event::Slot { cell },
        );
    }

    fn on_dl_at_cu(&mut self, flow: usize, mut pkt: PacketBuf, now: Instant) {
        let (ue_id, qfi) = (self.flows[flow].ue_id, self.flows[flow].qfi);
        let drb = self.flows[flow].drb;
        let cell = self.serving[self.flows[flow].ue_idx];
        let m = self.mk(cell);
        let c0 = self.cycles.start();
        let t0 = self.clock_start();
        let verdict = self.markers[m].on_dl(ue_id, drb, &mut pkt, now);
        self.clock_stop(t0, 0);
        self.cycles.stop(c0, CYC_MARKER);
        if verdict == DlVerdict::Drop {
            return;
        }
        let c0 = self.cycles.start();
        // `None` is an RLC tail drop: the packet is gone; TCP sees the
        // loss.
        self.gnbs[cell].enqueue_downlink(ue_id, qfi, pkt, now);
        self.cycles.stop(c0, CYC_GNB);
    }

    /// The flow a downlink-travelling packet belongs to. Flows register
    /// their data-direction five-tuple, so a direct hit is a downlink
    /// flow's data; a reversed hit is an uplink flow's feedback heading
    /// down to the UE.
    fn flow_of_dl_pkt(&self, pkt: &PacketBuf) -> Option<usize> {
        let tuple = pkt.five_tuple()?;
        self.tuple_to_flow.get(&tuple).copied().or_else(|| {
            self.tuple_to_flow
                .get(&tuple.reversed())
                .copied()
                .filter(|&f| self.flows[f].dir == FlowDir::Uplink)
        })
    }

    /// The flow an uplink-travelling packet belongs to, the mirror of
    /// [`World::flow_of_dl_pkt`]: a direct hit is an uplink flow's data;
    /// a reversed hit is a downlink flow's feedback heading up to the
    /// server.
    fn flow_of_ul_pkt(&self, pkt: &PacketBuf) -> Option<usize> {
        let tuple = pkt.five_tuple()?;
        self.tuple_to_flow.get(&tuple).copied().or_else(|| {
            self.tuple_to_flow
                .get(&tuple.reversed())
                .copied()
                .filter(|&f| self.flows[f].dir == FlowDir::Downlink)
        })
    }

    fn on_app_deliver(&mut self, pkt: PacketBuf, drb: DrbId, sn: Sn, now: Instant) {
        let Some(flow) = self.flow_of_dl_pkt(&pkt) else {
            return;
        };
        let ue = self.flows[flow].ue_idx;
        let c0 = self.cycles.start();
        // Every delivered SDU leaves its window, an uplink flow's
        // feedback too.
        let in_air = self.rec.take_in_air(ue, drb.0, sn);
        if self.flows[flow].dir == FlowDir::Uplink {
            self.cycles.stop(c0, CYC_METRICS);
            return self.on_feedback_at_sender(flow, &pkt, now);
        }
        let payload = pkt.payload_len();
        let owd = now.saturating_since(Instant::from_nanos(pkt.sent_ns()));
        let cell = self.serving[ue];
        if payload > 0 {
            self.rec.push_delivery(flow, cell, owd, payload, now);
        }
        if let Some(rlc) = in_air {
            let core = self.gnbs[cell].config().core_to_cu_delay;
            let prop = (self.flows[flow].wan_one_way + core).as_millis_f64();
            self.rec
                .push_breakdown(flow, owd.as_millis_f64(), prop, rlc);
        }
        self.cycles.stop(c0, CYC_METRICS);
        // Hand to the client endpoint.
        let c0 = self.cycles.start();
        let d = self.receive_data(flow, &pkt, now);
        self.cycles.stop(c0, CYC_TRANSPORT);
        let c0 = self.cycles.start();
        self.complete_stream_units(flow, &d, now);
        self.cycles.stop(c0, CYC_METRICS);
    }

    /// Application-level QoE at the data-direction receiver (the UE for
    /// downlink flows, the content server for uplink ones): complete
    /// stream units against the TCP in-order watermark, or the SCReAM
    /// frame whose last packet this delivery was. Natively-lowered bulk
    /// flows skip all of it.
    fn complete_stream_units(&mut self, flow: usize, d: &Delivery, now: Instant) {
        if let Some(wm) = d.tcp_watermark {
            if self.flows[flow].app.is_some() || !self.flows[flow].pending_units.is_empty() {
                self.on_stream_progress(flow, wm, now);
            }
        } else if let Some(captured) = d.frame_captured {
            let deadline = self.flows[flow].framed.map(|(_, d)| d);
            self.rec
                .push_unit(flow, UnitKind::Frame, captured, deadline, now);
        }
    }

    /// One UE's share of an uplink slot arrives at `cell`.
    fn on_ul_at_gnb(
        &mut self,
        cell: usize,
        ue: usize,
        (mut pkts, mut statuses, mut bsr): UlBatch,
        now: Instant,
    ) {
        let ue_id = UeId(ue as u16);
        // Buffer-status reports teach the scheduler how much this UE has
        // buffered; a report addressed to a cell the UE already left
        // dies with it (the re-armed post-handover BSR replaces it).
        if !bsr.is_empty() {
            let c0 = self.cycles.start();
            if self.serving[ue] == cell {
                let total: usize = bsr.iter().map(|&(_, b)| b).sum();
                self.gnbs[cell].on_ul_bsr(ue_id, total);
            }
            bsr.clear();
            self.cycles.stop(c0, CYC_UL);
        }
        // RLC status reports are addressed to the cell the UE transmitted
        // toward; if it handed over while they were on the air, that
        // cell's RLC context is gone and they die with it (the forced
        // post-handover status resynchronises the target instead).
        let m = self.mk(cell);
        if self.serving[ue] == cell {
            for (drb, st) in statuses.drain(..) {
                let c0 = self.cycles.start();
                let f1u = self.gnbs[cell].on_rlc_status(ue_id, drb, &st, now);
                self.ues[ue].recycle_status(drb, st);
                self.cycles.stop(c0, CYC_UL);
                if let Some(msg) = f1u {
                    let c0 = self.cycles.start();
                    let t0 = self.clock_start();
                    self.markers[m].on_feedback(&msg, now);
                    self.clock_stop(t0, 2);
                    self.cycles.stop(c0, CYC_MARKER);
                }
            }
        } else {
            statuses.clear();
        }
        // Uplink IP packets were decoded by the old cell before the UE
        // left; they continue to the core (and the CU marker) either way
        // — and when the UE's flows now live on another cell, the
        // scheduled server arrival goes to that cell's queue.
        let core = self.gnbs[cell].config().core_to_cu_delay;
        for pkt in pkts.drain(..) {
            self.forward_ul_to_server(cell, pkt, core, now);
        }
        // All buffers are empty again: back to the pool.
        self.ul_pool.push((pkts, statuses, bsr));
    }

    /// Put a batch of uplink data transport blocks on the air toward
    /// `cell` (an empty batch just returns its buffer to the pool).
    fn sched_ul_tbs(&mut self, cell: usize, tbs: Vec<TransportBlock>, at: Instant) {
        if tbs.is_empty() {
            self.tb_pool.push(tbs);
        } else {
            self.sched(at, Event::UlTbsAtGnb { cell, tbs });
        }
    }

    /// An uplink data transport block decodes (or fails) at the gNB.
    fn on_ul_tb_at_gnb(&mut self, cell: usize, tb: TransportBlock, now: Instant) {
        let ue = tb.ue.0 as usize;
        if self.serving[ue] != cell {
            // Destroyed mid-air by the handover, exactly like a downlink
            // block: in AM the UE's re-established transmit entity
            // retransmits the SDUs at the target anyway.
            self.ho_lost.ul.tbs_lost += 1;
            return;
        }
        let c0 = self.cycles.start();
        let mut decoded = std::mem::take(&mut self.scratch_ul_decoded);
        let outcome = self.gnbs[cell].receive_ul_tb(tb, now, &mut decoded);
        self.cycles.stop(c0, CYC_UL);
        match outcome {
            UlTbOutcome::Retx(tb) => {
                // Its own batch of one: retransmissions of one slot keep
                // their place among whatever the blocks between them
                // scheduled.
                let rtt = self.gnbs[cell].config().harq_rtt;
                let mut tbs = self.tb_pool.pop().unwrap_or_default();
                tbs.push(tb);
                self.sched_ul_tbs(cell, tbs, now + rtt);
            }
            UlTbOutcome::Lost => {}
            UlTbOutcome::Decoded => {
                let core = self.gnbs[cell].config().core_to_cu_delay;
                for (_drb, d) in decoded.drain(..) {
                    self.forward_ul_to_server(cell, d.pkt, core, now);
                }
            }
        }
        self.scratch_ul_decoded = decoded;
    }

    /// Route one uplink packet `cell` received — a downlink flow's
    /// feedback or an uplink flow's data — onward to its content server,
    /// through the CU (where `cell`'s downlink marker's uplink hook sees
    /// it, like every packet heading for the core).
    fn forward_ul_to_server(
        &mut self,
        cell: usize,
        mut pkt: PacketBuf,
        core: Duration,
        now: Instant,
    ) {
        let m = self.mk(cell);
        let c0 = self.cycles.start();
        let t0 = self.clock_start();
        self.markers[m].on_ul(&mut pkt, now);
        self.clock_stop(t0, 1);
        self.cycles.stop(c0, CYC_MARKER);
        let Some(flow) = self.flow_of_ul_pkt(&pkt) else {
            return;
        };
        let delay = core + self.flows[flow].wan_one_way;
        self.sched_ul_at_server(flow, pkt, now + delay);
    }

    /// Feed the uplink marker the UE's freshly advanced transmit and
    /// delivery watermarks — the granted-bytes feedback stream that
    /// plays the role F1-U telemetry plays for the CU-side instance.
    fn feed_ul_marker_feedback(&mut self, ue: usize, now: Instant) {
        // The trailing `clear()` below returns the buffer empty, so the
        // take needs no second reset here.
        let mut f1u = std::mem::take(&mut self.scratch_ul_f1u);
        let c0 = self.cycles.start();
        self.ues[ue].ul_f1u_into(now, &mut f1u);
        self.cycles.stop(c0, CYC_UL);
        let m = self.mk(self.serving[ue]);
        for msg in &f1u {
            let c0 = self.cycles.start();
            let t0 = self.clock_start();
            self.ul_markers[m].on_feedback(msg, now);
            self.clock_stop(t0, 2);
            self.cycles.stop(c0, CYC_MARKER);
        }
        f1u.clear();
        self.scratch_ul_f1u = f1u;
    }

    /// Queue one sender-released packet onto `leg`'s uplink bearer: the
    /// leg's UE-side marker sees it at queue ingress, then PDCP numbers
    /// it and RLC queues it for grant-driven transmission on that leg's
    /// serving cell.
    fn send_ul_data_leg(&mut self, flow: usize, leg: u8, mut pkt: PacketBuf, now: Instant) {
        let (ue, ue_id, drb) = {
            let f = &self.flows[flow];
            match (&f.bond, leg) {
                (Some(b), 1) => (b.ue2_idx, b.ue2_id, f.drb),
                _ => (f.ue_idx, f.ue_id, f.drb),
            }
        };
        let m = self.mk(self.serving[ue]);
        let c0 = self.cycles.start();
        let t0 = self.clock_start();
        let verdict = self.ul_markers[m].on_dl(ue_id, drb, &mut pkt, now);
        self.clock_stop(t0, 0);
        self.cycles.stop(c0, CYC_MARKER);
        if verdict == DlVerdict::Drop {
            return;
        }
        // The server reads the send time and the leg off the packet.
        pkt.stamp(now.as_nanos(), leg);
        let c0 = self.cycles.start();
        // A tail drop at the UE's full RLC queue is counted there.
        self.ues[ue].enqueue_uplink_data(drb, pkt, now);
        self.cycles.stop(c0, CYC_UE);
    }

    fn on_ul_at_server(&mut self, flow: usize, pkt: PacketBuf, now: Instant) {
        match self.flows[flow].dir {
            FlowDir::Uplink => self.on_ul_data_at_server(flow, pkt, now),
            FlowDir::Downlink => self.on_feedback_at_sender(flow, &pkt, now),
        }
    }

    /// A feedback packet reaches the flow's sender — at the content
    /// server for downlink flows, at the UE for uplink ones: record the
    /// RTT sample and completion, let a driving application (e.g. a
    /// video encoder over TCP) track what its transport can sustain,
    /// and route the data the sender released.
    fn on_feedback_at_sender(&mut self, flow: usize, pkt: &PacketBuf, now: Instant) {
        let mut tx = std::mem::take(&mut self.scratch_tx);
        let f = &mut self.flows[flow];
        let data = f.fb_pending.remove(&pkt.identification());
        let c0 = self.cycles.start();
        let up = f.endpoint.on_feedback(pkt, data, now, &mut tx);
        if let Some(srtt) = up.srtt {
            self.rec.push_rtt(flow, srtt, now);
        }
        if up.finished && f.finished_at.is_none() {
            f.finished_at = Some(now);
        }
        self.cycles.stop(c0, CYC_TRANSPORT);
        if let (Some(bps), Some(app)) = (up.rate_estimate_bps, &mut self.flows[flow].app) {
            app.on_rate_estimate(bps, now);
            self.resched_app(flow);
        }
        self.route_released(flow, &mut tx, now);
        self.scratch_tx = tx;
        self.reschedule_timer(flow);
    }

    /// Poll the flow's sender, route what it releases, re-arm its timer.
    fn poll_sender(&mut self, flow: usize, now: Instant) {
        let mut tx = std::mem::take(&mut self.scratch_tx);
        let t0 = self.cycles.start();
        self.flows[flow].endpoint.poll(now, &mut tx);
        self.cycles.stop(t0, CYC_TRANSPORT);
        self.route_released(flow, &mut tx, now);
        self.scratch_tx = tx;
        self.reschedule_timer(flow);
    }

    /// Route what a sender released in the flow's data direction,
    /// draining `tx`: downlink data onto the WAN, uplink data onto the
    /// UE's bearer (bonded flows stripe across legs by byte balance;
    /// leg-tagged releases go straight onto their leg).
    fn route_released(&mut self, flow: usize, tx: &mut Released, now: Instant) {
        let dir = self.flows[flow].dir;
        for pkt in tx.pkts.drain(..) {
            match (dir, &mut self.flows[flow].bond) {
                (FlowDir::Downlink, _) => self.route_dl_pkt(flow, pkt, now),
                (FlowDir::Uplink, None) => self.send_ul_data_leg(flow, 0, pkt, now),
                (FlowDir::Uplink, Some(b)) => {
                    let leg = b.tx.pick(pkt.wire_len());
                    self.send_ul_data_leg(flow, leg, pkt, now);
                }
            }
        }
        for (leg, pkt) in tx.leg_pkts.drain(..) {
            self.send_ul_data_leg(flow, leg, pkt, now);
        }
    }

    /// Hand one data packet to the flow's receiver — at the UE for
    /// downlink flows, at the content server for uplink ones — and send
    /// what it answers back toward the sender. Returns what the packet
    /// completed, the answer taken out.
    fn receive_data(&mut self, flow: usize, pkt: &PacketBuf, now: Instant) -> Delivery {
        let f = &mut self.flows[flow];
        // The harness-side detector owns the shared-bottleneck verdict.
        let coupled = f.bond.as_ref().map(|b| b.sbd.coupled());
        let mut d = f.endpoint.on_data(pkt, coupled, now);
        if let Some(fb) = d.feedback.take() {
            self.send_feedback(flow, fb, now);
        }
        d
    }

    /// Route a packet travelling against the data direction (SYN, ACK,
    /// receiver report) toward the flow's sender, parking a report's
    /// payload until the packet gets there. A downlink flow's receiver
    /// sits at the UE, so its feedback rides the uplink control path; an
    /// uplink flow's sits at the server and answers down the downlink.
    fn send_feedback(&mut self, flow: usize, fb: Feedback, now: Instant) {
        let f = &mut self.flows[flow];
        if let Some(data) = fb.data {
            f.fb_pending.insert(fb.pkt.identification(), data);
        }
        match f.dir {
            FlowDir::Downlink => self.ues[f.ue_idx].enqueue_uplink(fb.pkt, now),
            FlowDir::Uplink => self.route_dl_pkt(flow, fb.pkt, now),
        }
    }

    /// Uplink data arrives at the content server: record uplink OWD and
    /// throughput, hand the packet to the server-side receiver, and
    /// route its feedback back down toward the UE. Frame/unit QoE
    /// completes here — the uplink mirror of `on_app_deliver`.
    fn on_ul_data_at_server(&mut self, flow: usize, pkt: PacketBuf, now: Instant) {
        let ident = pkt.identification();
        let payload = pkt.payload_len();
        let cell = self.serving[self.flows[flow].ue_idx];
        // Attribute the arrival to the bonded leg stamped on it (0 for
        // unbonded) and feed the per-leg OWD to the shared-bottleneck
        // detector.
        let leg = pkt.leg();
        if let Some(b) = &mut self.flows[flow].bond {
            b.leg_pkts[leg as usize] += 1;
        }
        if payload > 0 {
            let owd = now.saturating_since(Instant::from_nanos(pkt.sent_ns()));
            self.rec.push_delivery(flow, cell, owd, payload, now);
            if let Some(b) = &mut self.flows[flow].bond {
                b.sbd.observe(leg, owd, now);
            }
        }
        // Bonded TCP legs interleave arbitrarily on the air: restore
        // transmission order through the join buffer before the receiver
        // sees the bytes. FEC media sequences for itself; unbonded flows
        // pass straight through.
        let mut joined = std::mem::take(&mut self.scratch_join);
        match self.flows[flow].bond.as_mut().and_then(|b| b.join.as_mut()) {
            Some(join) => join.on_packet(ident, pkt, now, &mut joined),
            None => joined.push(pkt),
        }
        for p in joined.drain(..) {
            self.deliver_ul_at_server(flow, p, now);
        }
        self.scratch_join = joined;
    }

    /// Hand one uplink data packet (post-join for bonded TCP flows) to
    /// the server-side receiver, then complete frame/unit QoE.
    fn deliver_ul_at_server(&mut self, flow: usize, pkt: PacketBuf, now: Instant) {
        let d = self.receive_data(flow, &pkt, now);
        self.complete_stream_units(flow, &d, now);
    }

    fn on_flow_start(&mut self, flow: usize, now: Instant) {
        self.flows[flow].started = true;
        match self.flows[flow].endpoint.open(now) {
            // A connection-oriented receiver opens the flow.
            Some(syn) => self.send_feedback(flow, syn, now),
            None => self.arm(Timer::Flow(flow), now),
        }
        // Application-driven flows: arm the app's own clock.
        if self.flows[flow].app.is_some() {
            self.resched_app(flow);
        }
    }

    // ------------------------------------------------------------------
    // Application layer (app-driven flows)
    // ------------------------------------------------------------------

    /// Fire the flow's application clock: collect its offer, feed the
    /// transport, and re-arm.
    fn on_app_tick(&mut self, flow: usize, now: Instant) {
        let Some(app) = &mut self.flows[flow].app else {
            return;
        };
        let mut units = std::mem::take(&mut self.scratch_units);
        let bytes = app.on_tick(now, &mut units);
        // A sealed stream (FlowStop / close_app) refuses the offer:
        // these bytes — and their units — can never be sent, so an
        // application that ignores its stop() hook still quiesces.
        if bytes > 0 && self.flows[flow].endpoint.offer(bytes) {
            let frames = units.iter().filter(|u| u.kind == UnitKind::Frame).count();
            self.rec.push_frames_generated(flow, frames as u64);
            self.flows[flow].pending_units.extend(units.iter());
            if self.flows[flow].started {
                self.poll_sender(flow, now);
            }
        }
        units.clear();
        self.scratch_units = units;
        self.resched_app(flow);
    }

    /// The TCP receiver's in-order watermark advanced: complete pending
    /// units and let the application react (think timers, replenishment).
    fn on_stream_progress(&mut self, flow: usize, watermark: u64, now: Instant) {
        while let Some(&u) = self.flows[flow].pending_units.front() {
            if u.end_byte > watermark {
                break;
            }
            self.flows[flow].pending_units.pop_front();
            self.rec.push_unit(flow, u.kind, u.created, u.deadline, now);
        }
        if let Some(app) = &mut self.flows[flow].app {
            app.on_delivered(watermark, now);
            self.resched_app(flow);
        }
    }

    /// Re-arm the flow's AppTick at the app's next activity; propagate a
    /// finished app into the transport so the flow can report finished.
    fn resched_app(&mut self, flow: usize) {
        let f = &mut self.flows[flow];
        let Some(app) = &f.app else {
            return;
        };
        if app.done() {
            f.endpoint.close_app();
        }
        let at = app.next_activity();
        self.arm(Timer::App(flow), at);
    }

    /// Route one packet downlink toward the UE. For downlink flows this
    /// is the data path and the packet is stamped with its send time for
    /// OWD; for uplink flows it carries feedback (ACKs, reports), which
    /// is not an OWD sample.
    fn route_dl_pkt(&mut self, flow: usize, mut pkt: PacketBuf, now: Instant) {
        if self.flows[flow].dir == FlowDir::Downlink {
            pkt.stamp(now.as_nanos(), 0);
        }
        let wan = self.flows[flow].wan_one_way;
        if self.wired.is_some() {
            self.sched(now + wan, Event::DlAtHop { hop: 0, pkt });
        } else {
            let cell = self.serving[self.flows[flow].ue_idx];
            let delay = wan + self.gnbs[cell].config().core_to_cu_delay;
            self.sched(now + delay, Event::DlAtCu { flow, pkt });
        }
    }

    /// Run `step` on the wired plane, with this world as the sink its
    /// departures and re-arms are scheduled into.
    fn wired_step(&mut self, step: impl FnOnce(&mut WiredPlane, &mut WiredSink<'_>)) {
        let mut plane = self
            .wired
            .take()
            .expect("a wired-plane event needs a wired plane");
        step(&mut plane, &mut WiredSink(self));
        self.wired = Some(plane);
    }

    fn reschedule_timer(&mut self, flow: usize) {
        let c0 = self.cycles.start();
        let na = self.flows[flow].endpoint.next_activity();
        self.cycles.stop(c0, CYC_TRANSPORT);
        if let Some(at) = na {
            self.arm(Timer::Flow(flow), at);
        }
    }

    /// The `Sample` housekeeping tick over the UEs it covers: every UE
    /// of a time-major world; the running cell's attachment list in a
    /// cell-major one, where each cell has its own tick.
    fn on_sample(&mut self, now: Instant) {
        match self.running_cell() {
            None => {
                for i in 0..self.ues.len() {
                    self.sample_ue(i, now);
                }
            }
            Some(c) => {
                for k in 0..self.cell_ues[c].len() {
                    self.sample_ue(self.cell_ues[c][k], now);
                }
            }
        }
        self.sched(now + SAMPLE_PERIOD, Event::Sample);
    }

    /// One UE's share of a `Sample` tick: its bearers' RLC queue
    /// lengths, read from its serving cell, its UE-side uplink transmit
    /// queues (the queue the UL marker manages), and — where an L4Span
    /// marker runs — the estimation error of the instance marking its
    /// serving cell (the only instance, centrally).
    fn sample_ue(&mut self, i: usize, now: Instant) {
        let cell = self.serving[i];
        for &(d, _) in &self.cfg.ues[i].drbs {
            let len = self.gnbs[cell].rlc_queue_len(UeId(i as u16), DrbId(d));
            self.rec.push_dl_queue(i, d, cell as u8, len);
        }
        if self.has_ul_data {
            let ue = &self.ues[i];
            for d in ue.ul_drbs() {
                self.rec.push_ul_queue(i, d.0, ue.ul_queue_len_sdus(d));
            }
        }
        let Some(window) = self.est_window else {
            return;
        };
        let marker = self.markers[self.mk(cell)].as_l4span();
        self.rec.push_rate_err(i, now, window, |drb| {
            marker?.egress_rate(UeId(i as u16), DrbId(drb))
        });
    }

    // ------------------------------------------------------------------
    // Cell-major plumbing (crate::shard drives these)
    // ------------------------------------------------------------------

    /// Turn this freshly built world cell-major, as replica `id` of the
    /// cell → replica map `of_cell`: every init-scheduled event moves, in
    /// `(time, seq)` order, to the queue of the cell that owns it
    /// (events of cells another replica owns are dropped), and the
    /// `Sample` and `UePoll` ticks are copied to every owned cell.
    pub(crate) fn cell_major_install(&mut self, id: usize, of_cell: Vec<usize>) {
        // One reservation per queue: the world's own sizing rule, with
        // the flows split evenly over the cells.
        let cap = 1024 + 128 * self.flows.len() / of_cell.len();
        // A cell's queue hosts the timers of the flows whose UE is ever
        // attached to it.
        let ues = &self.cfg.ues;
        let visits = |ue: usize, c: usize| {
            ues[ue].initial_cell == c || ues[ue].mobility.iter().any(|st| st.cell == c)
        };
        let mut queues: Vec<EventQueue<Event>> = of_cell
            .iter()
            .enumerate()
            .map(|(c, &o)| {
                if o == id {
                    let keys = wake_keys(&self.flows, |flow| visits(flow.ue_idx, c));
                    let slot = self.cfg.cell_config(c).slot_duration;
                    EventQueue::with_wakeups(cap, keys).with_grid(slot, slot_origin(&self.cfg, c))
                } else {
                    EventQueue::new()
                }
            })
            .collect();
        for (at, ev) in self.queue.drain_ordered() {
            let cell = match &ev {
                tick @ (Event::Sample | Event::UePoll) => {
                    let sample = matches!(tick, Event::Sample);
                    for (c, q) in queues.iter_mut().enumerate() {
                        if of_cell[c] == id {
                            let tick = if sample { Event::Sample } else { Event::UePoll };
                            q.schedule(at, tick);
                        }
                    }
                    None
                }
                ev => self.event_cell(ev).filter(|&c| of_cell[c] == id),
            };
            if let Some(c) = cell {
                requeue(&mut queues[c], at, ev);
            }
        }
        self.cells = Some(CellView {
            id,
            of_cell,
            queues,
            running: None,
        });
    }

    /// The cell that owns an event under the current attachment table:
    /// cell-borne events name it, everything flow- or UE-scoped follows
    /// the UE's serving cell. `None` for what never changes queues: the
    /// per-cell housekeeping ticks, and the wired-core events that only
    /// exist in configurations that cannot run cell-major.
    fn event_cell(&self, ev: &Event) -> Option<usize> {
        let of_flow = |flow: usize| self.serving[self.flows[flow].ue_idx];
        match ev {
            Event::Slot { cell }
            | Event::TbsAtUe { cell, .. }
            | Event::UlAtGnb { cell, .. }
            | Event::UlTbsAtGnb { cell, .. } => Some(*cell),
            Event::DlAtCu { flow, .. }
            | Event::UlAtServer { flow, .. }
            | Event::FlowStart { flow }
            | Event::FlowStop { flow }
            | Event::FlowTimer { flow }
            | Event::AppTick { flow } => Some(of_flow(*flow)),
            Event::UlStatusAtUe { ue, .. } => Some(self.serving[*ue]),
            Event::AppDeliver { pkt, .. } => self.flow_of_dl_pkt(pkt).map(of_flow),
            Event::DlAtHop { .. } | Event::HopPoll { .. } | Event::Sample | Event::UePoll => None,
        }
    }

    /// The queue of `cell`, which this replica must own and must not be
    /// running.
    fn cell_queue(&mut self, cell: usize) -> &mut EventQueue<Event> {
        let view = self.cells.as_mut().expect("cell-major world");
        debug_assert_eq!(view.of_cell[cell], view.id, "another replica's cell");
        debug_assert_ne!(
            view.running,
            Some(cell),
            "the running queue is `World::queue`"
        );
        &mut view.queues[cell]
    }

    /// The replica that owns `cell`: 0 for a one-queue world, the only
    /// replica there is.
    pub(crate) fn replica_of(&self, cell: usize) -> usize {
        self.cells.as_ref().map_or(0, |v| v.of_cell[cell])
    }

    /// The replica that owns an event (coordinator routing of mail and
    /// of re-homed events).
    pub(crate) fn event_owner(&self, ev: &Event) -> usize {
        let cell = self.event_cell(ev).expect("only cell-owned events travel");
        self.replica_of(cell)
    }

    /// After a barrier handover flipped `serving`, move every event
    /// queued on cell `src` that now belongs to another cell — the
    /// migrated UE's in-flight packets, pending timers, and future flow
    /// events — to its new owner through [`World::inject`], in
    /// `(time, seq)` order. What belongs to a cell of another replica
    /// goes to `out` instead, in the same order, for the coordinator to
    /// carry across. A one-queue world has nothing to move.
    pub(crate) fn rehome_events(&mut self, src: usize, out: &mut Vec<(Instant, Event)>) {
        if self.cells.is_none() {
            return;
        }
        for (at, ev) in self.cell_queue(src).drain_ordered() {
            match self.event_cell(&ev) {
                Some(owner) if owner != src => {
                    if self.replica_of(owner) == self.replica_of(src) {
                        self.inject(at, ev);
                    } else {
                        out.push((at, ev));
                    }
                }
                _ => requeue(self.cell_queue(src), at, ev),
            }
        }
    }

    /// Queue an event on the cell that owns it: a re-homed or mailed
    /// event at a barrier, or the straggler `UlAtServer` of a UE that
    /// just left the running cell. The fresh sequence number it takes
    /// there makes barrier-injected events win same-instant ties against
    /// anything the resumed epoch schedules afterwards — the time-major
    /// order, since in the single queue they were scheduled earlier. It
    /// loses them against whatever is already pending there, which is
    /// why [`crate::shard::plan_shards_reason`] refuses mobility
    /// schedules that bring one cell's slot grid into a queue twice.
    ///
    /// # Panics
    ///
    /// When `at` lies behind the target queue's clock: that cell has
    /// already run past the instant, which the flush barriers exist to
    /// rule out — a protocol bug, so it fails loudly instead of being
    /// moved to the queue's "now" by `EventQueue::schedule`.
    pub(crate) fn inject(&mut self, at: Instant, ev: Event) {
        let cell = self.event_cell(&ev).expect("only cell-owned events travel");
        let q = self.cell_queue(cell);
        assert!(
            at >= q.now(),
            "cell-major: event for cell {cell} at {at:?} behind its clock {:?} (missing flush barrier)",
            q.now()
        );
        requeue(q, at, ev);
    }

    /// Move this epoch's cross-replica envelopes out (buffer reuse).
    pub(crate) fn take_outbox(&mut self, out: &mut Vec<(Instant, Event)>) {
        out.append(&mut self.outbox);
    }

    /// Serving cell of `ue` (coordinator routing).
    pub(crate) fn serving_cell(&self, ue: usize) -> usize {
        self.serving[ue]
    }

    /// Events this replica processed (shard statistics).
    pub(crate) fn events_processed(&self) -> u64 {
        self.event_counts.iter().sum()
    }

    /// Per-subsystem cycle attribution of this replica.
    pub(crate) fn cycles_snapshot(&self) -> Vec<l4span_sim::CycleStat> {
        self.cycles.report()
    }

    /// Cells this replica owns (shard statistics): all of them in a
    /// one-queue world.
    pub(crate) fn cells_owned(&self) -> usize {
        match &self.cells {
            None => self.gnbs.len(),
            Some(v) => v.of_cell.iter().filter(|&&o| o == v.id).count(),
        }
    }

    /// Swap the whole live state cluster of every UE `moves` picks —
    /// stack and metric row, its flows with theirs — between two
    /// replicas. Symmetric by
    /// construction: the live copy always sits in the current owner, so
    /// ping-pong migrations stay consistent. One pass over the UEs and
    /// the flows, however many UEs move.
    pub(crate) fn swap_ue_clusters(a: &mut World, b: &mut World, moves: impl Fn(usize) -> bool) {
        use std::mem::swap;
        for ue in (0..a.ues.len()).filter(|&ue| moves(ue)) {
            swap(&mut a.ues[ue], &mut b.ues[ue]);
            Recorder::swap_ue(&mut a.rec, &mut b.rec, ue);
        }
        for f in 0..a.flows.len() {
            if !moves(a.flows[f].ue_idx) {
                continue;
            }
            swap(&mut a.flows[f], &mut b.flows[f]);
            Recorder::swap_flow(&mut a.rec, &mut b.rec, f);
        }
    }

    /// Swap cell `c` between two replicas: its gNB, both marker
    /// instances and its throughput bins.
    pub(crate) fn swap_cell(a: &mut World, b: &mut World, c: usize) {
        use std::mem::swap;
        swap(&mut a.gnbs[c], &mut b.gnbs[c]);
        swap(&mut a.markers[c], &mut b.markers[c]);
        swap(&mut a.ul_markers[c], &mut b.ul_markers[c]);
        Recorder::swap_cell(&mut a.rec, &mut b.rec, c);
    }

    /// Swap what replica `sid` owns under `of_cell` between `a` and `b`:
    /// its cells' gNBs, both markers and throughput bins, then the
    /// cluster of every UE those cells serve. On a freshly built world
    /// and a vacant replica this carves the replica out
    /// ([`World::split`]); on the primary and that replica after the run
    /// it folds the replica back ([`World::merge_sharded`]) — split and
    /// merge are one involution over the same swaps.
    fn exchange(a: &mut World, b: &mut World, sid: usize, of_cell: &[usize]) {
        for c in (0..of_cell.len()).filter(|&c| of_cell[c] == sid) {
            World::swap_cell(a, b, c);
        }
        // A UE's rows, serving-cell runs included, travel with it: the
        // replica owning its serving cell holds them.
        let served: Vec<bool> = a.serving.iter().map(|&c| of_cell[c] == sid).collect();
        World::swap_ue_clusters(a, b, |ue| served[ue]);
    }

    /// Fold every replica's owned state into the primary (shard 0)
    /// world, so `into_report` runs unchanged on the merged state.
    pub(crate) fn merge_sharded(mut worlds: Vec<World>) -> World {
        let mut primary = worlds.remove(0);
        assert!(
            primary.outbox.is_empty(),
            "shard 0: undelivered cross-shard mail at merge"
        );
        for mut w in worlds {
            let view = w.cells.take().expect("sharded world");
            assert!(
                w.outbox.is_empty(),
                "shard {}: undelivered cross-shard mail at merge",
                view.id
            );
            World::exchange(&mut primary, &mut w, view.id, &view.of_cell);
            // Disjoint work throughout: only cell 0's owner counted the
            // housekeeping ticks, and each barrier step was counted by
            // the replica that executed it.
            for (class, n) in w.event_counts.iter().enumerate() {
                primary.event_counts[class] += n;
            }
            primary.queue_depth_peak = primary.queue_depth_peak.max(w.queue_depth_peak);
            primary.ho_lost += w.ho_lost;
            primary.marker_time.0.append(&mut w.marker_time.0);
            primary.marker_time.1.append(&mut w.marker_time.1);
            primary.marker_time.2.append(&mut w.marker_time.2);
        }
        primary
    }

    // Wall-clock instrumentation for Fig. 21 / Table 1.
    fn clock_start(&self) -> Option<std::time::Instant> {
        self.cfg.measure_marker_time.then(std::time::Instant::now)
    }

    fn clock_stop(&mut self, t0: Option<std::time::Instant>, kind: usize) {
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            match kind {
                0 => self.marker_time.0.push(ns),
                1 => self.marker_time.1.push(ns),
                _ => self.marker_time.2.push(ns),
            }
        }
    }

    pub(crate) fn into_report(mut self) -> Report {
        let mut total_marks = 0;
        let mut marker_memory = 0;
        for m in &self.markers {
            if let Some(l) = m.as_l4span() {
                let s = l.stats();
                total_marks += s.dl_marks + s.tentative_marks;
                marker_memory += l.memory_bytes();
            }
        }
        // The uplink instances' marks and resident tables join the same
        // accounting (only when the uplink data plane actually ran, so
        // downlink-only reports are unchanged) — and are also reported
        // alone, so tests can tell UE-side marking actually happened.
        let mut ul_marks = 0;
        if self.has_ul_data {
            for m in &self.ul_markers {
                if let Some(l) = m.as_l4span() {
                    let s = l.stats();
                    ul_marks += s.dl_marks + s.tentative_marks;
                    marker_memory += l.memory_bytes();
                }
            }
            total_marks += ul_marks;
        }
        // Typed congestion-control transitions → fallback records, in
        // flow order (the per-flow event queues are each drained once,
        // so the order is deterministic).
        let mut fallbacks = Vec::new();
        for (f, fl) in self.flows.iter_mut().enumerate() {
            for ev in fl.endpoint.take_cc_events() {
                let CcEvent::ClassicFallback { at, reason } = ev;
                fallbacks.push(FallbackRecord {
                    flow: f as u16,
                    at_ms: at.as_micros() as f64 / 1000.0,
                    reason: reason.as_str(),
                });
            }
        }
        // FEC/ARQ ledgers: close each media stream at run end so the
        // delivered + repaired + abandoned partition covers everything
        // the sender offered, then snapshot both codecs. Bond summaries
        // ride along in the same pass. Both vectors stay empty for every
        // pre-existing scenario, keeping their fingerprints unchanged.
        let end = Instant::ZERO + self.cfg.duration;
        let mut fec = Vec::new();
        let mut bonds = Vec::new();
        for (f, fl) in self.flows.iter_mut().enumerate() {
            fec.extend(fl.endpoint.close_fec(f as u16, end));
            if let Some(b) = &fl.bond {
                bonds.push(BondStat {
                    flow: f as u16,
                    leg_pkts: b.leg_pkts,
                    coupled: b.sbd.coupled(),
                    coupled_flips: b.sbd.flips,
                    join_flushed: b.join.as_ref().map_or(0, |j| j.flushed),
                });
            }
        }
        // Table-1 accounting sums over every cell in the topology; the
        // uplink tail drops are counted by the UEs' own bearers.
        let mut g = self.ho_lost;
        g.ul.rlc_drops += self.ues.iter().map(UeStack::ul_drops).sum::<u64>();
        for gnb in &self.gnbs {
            g += gnb.stats();
        }
        let mut report = Report {
            duration: self.cfg.duration,
            bin: self.cfg.thr_bin,
            finish_ms: self
                .flows
                .iter()
                .map(|f| {
                    f.finished_at
                        .map(|t| t.saturating_since(f.start).as_millis_f64())
                })
                .collect(),
            flow_start: self.flows.iter().map(|f| f.start).collect(),
            flow_ue: self.flows.iter().map(|f| f.ue_idx as u16).collect(),
            total_marks,
            ul_marks,
            rlc_drops: g.dl.rlc_drops,
            tbs_lost: g.dl.tbs_lost,
            harq_retx: g.dl.harq_retx,
            uplink: g.ul,
            marker_memory,
            marker_time_ns: std::mem::take(&mut self.marker_time),
            cycles: self.cycles.report(),
            events: self.event_counts.iter().sum(),
            event_counts: Event::CLASSES
                .iter()
                .copied()
                .zip(self.event_counts)
                .filter(|&(_, n)| n > 0)
                .collect(),
            fading_evals: g.fading_evals,
            queue_depth_peak: self.queue_depth_peak,
            shards: Vec::new(),
            shard_reject: None,
            impairment: self
                .cfg
                .impairment
                .as_ref()
                .and(self.wired.as_ref())
                .map(WiredPlane::impairment),
            fallbacks,
            fec,
            bonds,
            ..Report::default()
        };
        // The SCReAM media source lives inside its sender, so its
        // generation counter is read back here; app-driven flows counted
        // in the store as frames were offered.
        let framing: Vec<_> = self
            .flows
            .iter()
            .map(|f| (f.endpoint.frames_generated(), f.framed.map(|(i, _)| i)))
            .collect();
        // The rest of the world is dropped at the end of this block,
        // before the recorder decodes its logs: the report's series take
        // the memory the queues and bearers held, not more of it.
        let rec = {
            let world = self;
            world.rec
        };
        rec.finish(&mut report, framing.into_iter());
        report
    }
}

/// The world as its wired plane's [`HopSink`]: a packet leaving the
/// last hop goes on to its flow's CU, recovered from the five-tuple, and
/// a queue hop's poll is its timer.
struct WiredSink<'a>(&'a mut World);

impl HopSink for WiredSink<'_> {
    fn exit(&mut self, pkt: PacketBuf, now: Instant) {
        let w = &mut *self.0;
        if let Some(flow) = w.flow_of_dl_pkt(&pkt) {
            let core = w.gnbs[w.serving[w.flows[flow].ue_idx]]
                .config()
                .core_to_cu_delay;
            w.sched(now + core, Event::DlAtCu { flow, pkt });
        }
    }

    fn poll_at(&mut self, hop: u8, at: Instant) {
        self.0.arm(Timer::Hop(hop), at);
    }
}

/// Queue an event that changes queues (installation, re-homing, mail):
/// a timer's entry goes back into its owner's wake-up slot — disarmed
/// there, since an owner has one entry and this is it — so it can still
/// be moved; anything else is scheduled.
fn requeue(q: &mut EventQueue<Event>, at: Instant, ev: Event) {
    match Timer::of(&ev) {
        Some(timer) => q.arm(timer.key(), at, || ev),
        None => q.schedule(at, ev),
    }
}

/// The queue keys of the timers of the flows `hosted` selects,
/// ascending: what a queue that may run those flows reserves slots for.
fn wake_keys(flows: &[Flow], hosted: impl Fn(&Flow) -> bool) -> Vec<usize> {
    let mut keys = Vec::new();
    for (f, flow) in flows.iter().enumerate().filter(|(_, flow)| hosted(flow)) {
        keys.push(Timer::Flow(f).key());
        if flow.has_app {
            keys.push(Timer::App(f).key());
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::scenario::{
        congested_cell, handover_cell, l4span_default, ChannelMix, MobilityStep,
    };
    use l4span_cc::WanLink;
    use l4span_core::HandoverPolicy;

    fn quick(marker: crate::marker::MarkerKind, cc: &str) -> Report {
        let cfg = congested_cell(
            2,
            cc,
            ChannelMix::Static,
            16_384,
            WanLink::east(),
            marker,
            7,
            Duration::from_secs(3),
        );
        World::new(cfg).run()
    }

    #[test]
    fn event_class_names_follow_the_numbering() {
        let name = |ev: Event| Event::CLASSES[ev.class()];
        assert_eq!(name(Event::Slot { cell: 0 }), "Slot");
        assert_eq!(name(Event::HopPoll { hop: 0 }), "HopPoll");
        assert_eq!(
            name(Event::UlAtGnb {
                cell: 0,
                ues: Vec::new()
            }),
            "UlAtGnb"
        );
        assert_eq!(name(Event::AppTick { flow: 0 }), "AppTick");
        assert_eq!(Event::CLASSES[Event::HANDOVER], "Handover");
        assert_eq!(name(Event::Sample), "Sample");
        assert_eq!(name(Event::UePoll), "UePoll");
    }

    #[test]
    fn an_event_fits_two_cache_lines() {
        // The queue's slab keeps each event in a 64-byte-aligned node:
        // past 128 bytes every node would take three lines.
        let size = std::mem::size_of::<Option<Event>>();
        assert!(size <= 128, "Option<Event> is {size} bytes");
        assert!(std::mem::size_of::<Event>() <= 128);
    }

    #[test]
    fn cubic_without_marker_bloats_the_queue() {
        let r = quick(crate::marker::MarkerKind::None, "cubic");
        // Both flows moved real data…
        for f in 0..2 {
            assert!(
                r.goodput_total_mbps(f) > 2.0,
                "flow {f}: {} Mbit/s",
                r.goodput_total_mbps(f)
            );
        }
        // …and the unmanaged RLC queue inflated the one-way delay far
        // beyond the propagation delay.
        let owd = r.owd_stats_pooled(&[0, 1]);
        assert!(
            owd.median > 100.0,
            "bufferbloat expected without L4Span: median {} ms",
            owd.median
        );
    }

    #[test]
    fn l4span_cuts_cubic_delay_keeps_throughput() {
        let bloat = quick(crate::marker::MarkerKind::None, "cubic");
        let l4s = quick(l4span_default(), "cubic");
        let owd_off = bloat.owd_stats_pooled(&[0, 1]).median;
        let owd_on = l4s.owd_stats_pooled(&[0, 1]).median;
        assert!(
            owd_on < owd_off / 3.0,
            "L4Span must slash OWD: {owd_on} vs {owd_off} ms"
        );
        let thr_off: f64 = (0..2).map(|f| bloat.goodput_total_mbps(f)).sum();
        let thr_on: f64 = (0..2).map(|f| l4s.goodput_total_mbps(f)).sum();
        assert!(
            thr_on > 0.7 * thr_off,
            "throughput preserved: {thr_on} vs {thr_off}"
        );
        assert!(l4s.total_marks > 0, "marks must actually flow");
    }

    #[test]
    fn two_cell_handover_keeps_flows_alive_and_records_interruption() {
        let cfg = handover_cell(
            2,
            "cubic",
            Duration::from_secs(1),
            HandoverPolicy::MigrateState,
            l4span_default(),
            11,
            Duration::from_secs(4),
        );
        let r = World::new(cfg).run();
        // Every UE handed over at least once…
        for ue in 0..2u16 {
            assert!(
                r.handovers.iter().filter(|h| h.ue == ue).count() >= 1,
                "ue{ue} must hand over"
            );
        }
        // …the switches actually moved cells and resolved their gaps…
        assert!(r.handovers.iter().all(|h| h.from_cell != h.to_cell));
        let gap = r.mean_interruption_ms().expect("service resumed post-HO");
        assert!((0.0..1000.0).contains(&gap), "interruption {gap} ms");
        // …both cells served traffic…
        assert!(r.cell_goodput_mbps(0) > 0.5, "{}", r.cell_goodput_mbps(0));
        assert!(r.cell_goodput_mbps(1) > 0.5, "{}", r.cell_goodput_mbps(1));
        // …and the flows kept moving end to end across the switches.
        for f in 0..2 {
            assert!(
                r.goodput_total_mbps(f) > 1.0,
                "flow {f}: {}",
                r.goodput_total_mbps(f)
            );
        }
        // Per-cell accounting tallies with the per-flow accounting.
        let per_cell: u64 = r.cell_thr_bins.iter().flatten().sum();
        let per_flow: u64 = r.thr_bins.iter().flatten().sum();
        assert_eq!(per_cell, per_flow);
    }

    #[test]
    fn handover_to_the_serving_cell_is_a_channel_change() {
        // A mobility step naming the serving cell must not produce a
        // handover record (it degrades to replace_channel).
        let mut cfg = congested_cell(
            1,
            "cubic",
            ChannelMix::Static,
            16_384,
            WanLink::east(),
            l4span_default(),
            5,
            Duration::from_secs(2),
        );
        cfg.ues[0].mobility = vec![MobilityStep::new(
            Instant::from_secs(1),
            0,
            l4span_ran::ChannelProfile::Vehicular,
            8.0,
        )];
        let r = World::new(cfg).run();
        assert!(r.handovers.is_empty());
        assert!(r.goodput_total_mbps(0) > 1.0);
    }

    #[test]
    fn heterogeneous_cells_run_and_adopt_target_timing() {
        // Cell 1 is narrower and slower-reporting than cell 0; a UE
        // migrating onto it must keep working under the target's
        // configuration (and back).
        let mut cfg = congested_cell(
            1,
            "cubic",
            ChannelMix::Static,
            16_384,
            WanLink::east(),
            l4span_default(),
            21,
            Duration::from_secs(3),
        );
        let small = l4span_ran::CellConfig {
            n_prbs: 24,
            rlc_status_period: Duration::from_millis(20),
            ..l4span_ran::CellConfig::default()
        };
        cfg.add_cell(small);
        cfg.ues[0].mobility = vec![
            MobilityStep::new(Instant::from_secs(1), 1, ChannelProfile::Static, 20.0),
            MobilityStep::new(Instant::from_secs(2), 0, ChannelProfile::Static, 24.0),
        ];
        let r = World::new(cfg).run();
        assert_eq!(r.handovers.len(), 2);
        assert!(r.goodput_total_mbps(0) > 1.0, "{}", r.goodput_total_mbps(0));
        // The narrow cell served the middle second.
        assert!(r.cell_goodput_mbps(1) > 0.1, "{}", r.cell_goodput_mbps(1));
    }

    #[test]
    fn marker_policies_diverge_after_handover() {
        let mk = |policy| {
            let cfg = handover_cell(
                2,
                "prague",
                Duration::from_secs(1),
                policy,
                l4span_default(),
                13,
                Duration::from_secs(4),
            );
            World::new(cfg).run()
        };
        let migrate = mk(HandoverPolicy::MigrateState);
        let cold = mk(HandoverPolicy::ColdStart);
        // The policies must actually change the simulation, visibly in
        // the post-handover delay distribution.
        assert_ne!(migrate.fingerprint(), cold.fingerprint());
        let w = Duration::from_millis(500);
        let m = migrate.post_handover_owd(&[0, 1], w).median;
        let c = cold.post_handover_owd(&[0, 1], w).median;
        assert!(
            (m - c).abs() > 1e-6,
            "policies must separate post-HO OWD: migrate {m} vs cold {c}"
        );
    }

    #[test]
    fn bidirectional_call_moves_data_both_ways() {
        let cfg = crate::scenario::video_call_bidir(
            2,
            "prague",
            l4span_default(),
            7,
            Duration::from_secs(3),
        );
        let r = World::new(cfg).run();
        // Flows alternate DL, UL per call.
        for call in 0..2 {
            let (dl, ul) = (2 * call, 2 * call + 1);
            assert!(
                r.frames_delivered[dl] > 30,
                "call {call}: DL leg delivered {} frames",
                r.frames_delivered[dl]
            );
            assert!(
                r.frames_delivered[ul] > 30,
                "call {call}: UL leg delivered {} frames",
                r.frames_delivered[ul]
            );
            assert!(
                !r.ul_owd_ms[ul].is_empty(),
                "call {call}: UL leg must record uplink OWD samples"
            );
            assert!(
                r.ul_owd_ms[dl].is_empty(),
                "call {call}: DL leg must not record uplink OWD"
            );
            assert!(
                r.goodput_total_mbps(ul) > 0.3,
                "{}",
                r.goodput_total_mbps(ul)
            );
        }
        // The UE-side queues were sampled.
        assert!(!r.ul_queue_series.is_empty());
    }

    #[test]
    fn uplink_marker_cuts_uplink_queuing_delay() {
        let mk = |marker| {
            let cfg =
                crate::scenario::video_call_bidir(3, "prague", marker, 11, Duration::from_secs(4));
            World::new(cfg).run()
        };
        let off = mk(crate::marker::MarkerKind::None);
        let on = mk(l4span_default());
        let ul: Vec<usize> = (0..6).filter(|f| f % 2 == 1).collect();
        let owd_off = off.ul_owd_stats_pooled(&ul).median;
        let owd_on = on.ul_owd_stats_pooled(&ul).median;
        assert!(
            owd_on < owd_off,
            "uplink L4Span must cut UL OWD: {owd_on} vs {owd_off} ms"
        );
    }

    #[test]
    fn ground_truth_is_kept_only_where_rate_error_is_sampled() {
        let run = |marker| {
            let cfg = congested_cell(
                16,
                "prague",
                ChannelMix::Mobile,
                16_384,
                WanLink::east(),
                marker,
                7,
                Duration::from_secs(3),
            );
            let mut w = World::new(cfg);
            w.run_until(Instant::MAX, Instant::ZERO + w.cfg.duration);
            w
        };
        // Without a marker nothing reads the ground truth, so no row
        // keeps one, however many SDUs went out.
        let bare = run(crate::marker::MarkerKind::None);
        assert_eq!(bare.est_window, None);
        assert!(bare.rec.dl_queue_samples() > 0, "the bearers were sampled");
        assert_eq!(bare.rec.ground_truth_log().count(), 0);
        // With L4Span each sample tick trims its UE's logs to four
        // estimation windows; later records are newer than the tick.
        let l4s = run(l4span_default());
        let window = l4s.est_window.expect("an L4Span marker samples rate error");
        let last_tick = Instant::ZERO + SAMPLE_PERIOD * l4s.event_counts[Event::SAMPLE];
        let mut kept = 0;
        for t in l4s.rec.ground_truth_log() {
            assert!(
                last_tick.saturating_since(t) <= window * 4,
                "a record at {t:?} outlived the tick at {last_tick:?}"
            );
            kept += 1;
        }
        assert!(kept > 0, "the L4Span cell compares against a live log");
    }

    #[test]
    fn the_breakdown_window_follows_the_air_not_the_queue() {
        let cfg = congested_cell(
            16,
            "prague",
            ChannelMix::Mobile,
            16_384,
            WanLink::east(),
            crate::marker::MarkerKind::None,
            7,
            Duration::from_secs(5),
        );
        let mut w = World::new(cfg);
        let end = Instant::ZERO + w.cfg.duration;
        let (mut deepest_queue, mut widest_window) = (0, 0);
        let mut t = Instant::ZERO;
        while t < end {
            t += Duration::from_millis(50);
            w.run_until(t, end);
            for (ue, spec) in w.cfg.ues.iter().enumerate() {
                for &(drb, _) in &spec.drbs {
                    let q = w.gnbs[0].rlc_queue_len(UeId(ue as u16), DrbId(drb));
                    deepest_queue = deepest_queue.max(q);
                }
            }
            widest_window = widest_window.max(w.rec.widest_in_air());
        }
        assert!(
            deepest_queue > 500,
            "the RLC queues build: {deepest_queue} SDUs"
        );
        assert!(widest_window <= 16, "a window held {widest_window} SDUs");
    }

    #[test]
    fn uplink_losses_reach_the_report_apart_from_the_downlink() {
        // Four TCP uploads ping-ponging between two cells behind short
        // RLC queues: uplink blocks die mid-air at the handovers and
        // the UE-side queues tail-drop.
        let mut cfg = handover_cell(
            4,
            "cubic",
            Duration::from_millis(300),
            HandoverPolicy::MigrateState,
            crate::marker::MarkerKind::None,
            7,
            Duration::from_secs(3),
        );
        for flow in &mut cfg.flows {
            flow.dir = FlowDir::Uplink;
        }
        cfg.cell.rlc_queue_sdus = 32;
        cfg.extra_cells[0].rlc_queue_sdus = 32;
        // Through the driver, which executes the mobility steps.
        let mut w = World::new(cfg);
        w.drive_alone();
        let dl_lost =
            w.ho_lost.dl.tbs_lost + w.gnbs.iter().map(|g| g.stats().dl.tbs_lost).sum::<u64>();
        let ul_mid_air = w.ho_lost.ul.tbs_lost;
        let r = w.into_report();
        assert!(
            ul_mid_air > 0,
            "a handover destroyed uplink blocks on the air"
        );
        assert_eq!(
            r.tbs_lost, dl_lost,
            "uplink blocks stay out of the downlink count"
        );
        let ul = r.uplink;
        assert!(ul.tbs_sent > 0 && ul.harq_retx > 0, "{ul:?}");
        assert!(ul.tbs_lost >= ul_mid_air, "{ul:?}");
        assert!(ul.rlc_drops > 0, "the UE-side queues tail-drop: {ul:?}");
        assert!(
            !r.fingerprint().contains("uplink"),
            "outside the fingerprint"
        );
    }

    /// Eight cells of three UEs, each with one TCP upload (so a live UE
    /// stack shows in its uplink bearers), carved into `n` replicas.
    fn split_metro(n: usize) -> Vec<World> {
        let mut cfg = crate::scenario::metro_city(
            8,
            3,
            "cubic",
            l4span_default(),
            7,
            Duration::from_millis(300),
        );
        for flow in &mut cfg.flows {
            flow.dir = FlowDir::Uplink;
        }
        World::new(cfg).split(n)
    }

    #[test]
    fn a_replica_holds_live_state_only_for_what_it_owns() {
        let replicas = split_metro(3);
        let mut vacant = Vec::new();
        for (s, w) in replicas.iter().enumerate() {
            let view = w.cells.as_ref().expect("cell-major");
            let owned = |cell: usize| view.of_cell[cell] == s;
            for c in 0..w.gnbs.len() {
                let ues = w.gnbs[c].ue_ids();
                let attached: Vec<usize> = ues.iter().map(|u| u.0 as usize).collect();
                let live = owned(c).then(|| w.cell_ues[c].clone());
                assert_eq!(attached, live.unwrap_or_default(), "replica {s}, cell {c}");
                assert_eq!(w.markers[c].as_l4span().is_some(), owned(c));
                assert_eq!(w.ul_markers[c].as_l4span().is_some(), owned(c));
            }
            for (ue, stack) in w.ues.iter().enumerate() {
                let live = stack.ul_drbs().next().is_some();
                assert_eq!(live, owned(w.serving[ue]), "replica {s}, UE {ue}");
            }
            let mut n = 0;
            for (f, flow) in w.flows.iter().enumerate() {
                let live = !matches!(flow.endpoint, Endpoint::Vacant);
                assert_eq!(live, owned(w.serving[flow.ue_idx]), "replica {s}, flow {f}");
                n += usize::from(!live);
            }
            vacant.push(n);
        }
        // 24 flows, one per UE, three UEs per cell; replicas 0 and 1 own
        // three cells each, replica 2 the other two.
        assert_eq!(vacant, [15, 15, 18], "vacant endpoints per replica");
    }

    #[test]
    #[should_panic(expected = "vacant endpoint driven")]
    fn driving_a_flow_another_replica_owns_panics() {
        let mut replicas = split_metro(2);
        // Flow 0's UE is homed on cell 0, which replica 0 owns.
        replicas[1].handle(Event::FlowStop { flow: 0 }, Instant::ZERO);
    }

    #[test]
    fn the_per_cell_queue_view_follows_the_serving_cell() {
        // Two UEs ping-pong between two cells every 700 ms; the marker
        // runs, so the rate-error log fills beside the queue series.
        let cfg = handover_cell(
            2,
            "prague",
            Duration::from_millis(700),
            HandoverPolicy::MigrateState,
            l4span_default(),
            7,
            Duration::from_secs(3),
        );
        let homes: Vec<u8> = cfg.ues.iter().map(|u| u.initial_cell as u8).collect();
        let r = World::new(cfg).run();
        assert!(!r.rate_err_pct.is_empty());
        let per_cell = r.cell_queue_series();
        let mut pieces = 0;
        for (&(ue, drb), series) in &r.queue_series {
            // The cell serving `ue` at sample `j`, from the handover
            // records: a step executes before the sample on its instant.
            let serving_at = |j: usize| {
                let t = Instant::ZERO + SAMPLE_PERIOD * (j as u64 + 1);
                r.handovers
                    .iter()
                    .rev()
                    .find(|h| h.ue == ue && h.at <= t)
                    .map_or(homes[ue as usize], |h| h.to_cell)
            };
            // Walking the whole series in time order takes each sample
            // from the front of its serving cell's piece, and uses every
            // piece up.
            let mut next: BTreeMap<u8, usize> = BTreeMap::new();
            for (j, &q) in series.iter().enumerate() {
                let cell = serving_at(j);
                let k = next.entry(cell).or_default();
                assert_eq!(
                    per_cell[&(cell, ue, drb)].get(*k),
                    Some(&q),
                    "ue {ue} sample {j}"
                );
                *k += 1;
            }
            assert_eq!(next.len(), 2, "ue {ue} was sampled under both cells");
            for (&cell, &n) in &next {
                assert_eq!(per_cell[&(cell, ue, drb)].len(), n, "ue {ue} cell {cell}");
            }
            pieces += next.len();
        }
        assert_eq!(per_cell.len(), pieces, "no piece without a sample");
        assert!(r.handovers.len() >= 6, "{} handovers", r.handovers.len());
    }

    /// A metro world of `cells` cells with one UE each, built but not run.
    fn metro_of(cells: usize) -> World {
        let cfg = crate::scenario::metro_city(
            cells,
            1,
            "cubic",
            crate::marker::MarkerKind::None,
            7,
            Duration::from_millis(20),
        );
        World::new(cfg)
    }

    #[test]
    fn a_256_cell_world_builds() {
        assert_eq!(metro_of(256).gnbs.len(), 256);
    }

    #[test]
    #[should_panic(expected = "257 cells exceed the limit of 256")]
    fn a_257_cell_world_is_refused() {
        metro_of(257);
    }

    #[test]
    fn prague_with_l4span_is_low_latency() {
        let r = quick(l4span_default(), "prague");
        let owd = r.owd_stats_pooled(&[0, 1]);
        // 19 ms propagation + core + a small RAN component: well under
        // the bufferbloat regime.
        assert!(
            owd.median < 120.0,
            "prague+L4Span median OWD {} ms",
            owd.median
        );
        let thr: f64 = (0..2).map(|f| r.goodput_total_mbps(f)).sum();
        assert!(thr > 5.0, "cell should still be well used: {thr}");
    }
}
