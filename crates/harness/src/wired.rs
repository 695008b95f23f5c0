//! The wired plane — the hops between content-server egress and the
//! core — and Fig. 2(a)'s wired-only topology (server → DualPi2 router
//! → client: Prague at line rate with a ~1 ms queue, CUBIC at the
//! classic ~15–20 ms PI target), which runs its router as such a hop.
//!
//! ```text
//! server ──WAN──▶ [hop 0] ─▶ … ─▶ [hop k-1] ─▶ [hop k] ─▶ CU
//!                 impairment stages             bottleneck router
//! ```
//!
//! A hop is stateless — bleach, remark, ECT drop act at once — or a
//! queue, a rate-served [`Router`] whose departures a poll passes on.
//! The plane keeps no clock: it hands what leaves the last hop, and when
//! a queue hop wants polling, to a [`HopSink`] as it happens — a poll's
//! departures first, then its re-arm.

use std::collections::HashMap;

use l4span_aqm::{DualPi2, Red, Router, RouterAqm};
use l4span_cc::tcp::TcpConfig;
use l4span_cc::{CcKind, TcpReceiver, TcpSender};
use l4span_net::{Ecn, FiveTuple, PacketBuf};
use l4span_sim::{Duration, EventQueue, Instant, SimRng};

use crate::impairment::{ImpairmentCounters, ImpairmentSpec, StageSpec, CLASSIC_QUEUE_BYTES};
use crate::metrics::Report;
use crate::scenario::ScenarioConfig;

/// Queue byte cap of a scenario's bottleneck router (4 MiB).
const BOTTLENECK_BYTES: usize = 4 << 20;

/// Where the plane's output goes: its host's event queue.
pub trait HopSink {
    /// `pkt` left the last hop at `now`.
    fn exit(&mut self, pkt: PacketBuf, now: Instant);
    /// Queue hop `hop` wants polling at `at`, its next departure.
    fn poll_at(&mut self, hop: u8, at: Instant);
}

/// One hop: a stateless impairment stage on its own RNG stream, or a
/// queue. The router is boxed to keep the stateless hops small.
#[derive(Debug)]
enum Hop {
    Bleach { prob: f64, rng: SimRng },
    Remark { from: Ecn, to: Ecn, prob: f64, rng: SimRng },
    EctDrop { prob: f64, rng: SimRng },
    /// `steps` are the rate changes still to come, latest first. The
    /// router reads its rate only when polled, so each step applies at
    /// the hop's first poll at or after its instant.
    Queue { router: Box<Router>, steps: Vec<(Instant, f64)> },
}

/// The hops between server egress and the core, in path order.
#[derive(Debug, Default)]
pub struct WiredPlane {
    hops: Vec<Hop>,
    /// Hops `0..stages` are impairment stages.
    stages: usize,
    /// What the stateless stages did; the queue stages' marks and drops
    /// are read off their routers.
    counters: ImpairmentCounters,
}

impl WiredPlane {
    /// The stages of `spec` as hops `0..k`, drawing one RNG stream per
    /// stage from `rngs` (a queue stage's AQM runs on its stream).
    ///
    /// # Panics
    /// If `spec` fails [`ImpairmentSpec::validate`] or `rngs` has the
    /// wrong length — both are configuration bugs.
    pub fn new(spec: &ImpairmentSpec, rngs: Vec<SimRng>) -> WiredPlane {
        if let Err(e) = spec.validate() {
            panic!("invalid ImpairmentSpec: {e}");
        }
        assert_eq!(rngs.len(), spec.stages.len(), "one RNG stream per stage");
        let hops = spec
            .stages
            .iter()
            .zip(rngs)
            .map(|(s, rng)| match *s {
                StageSpec::Bleach { prob } => Hop::Bleach { prob, rng },
                StageSpec::Remark { from, to, prob } => Hop::Remark { from, to, prob, rng },
                StageSpec::EctDrop { prob } => Hop::EctDrop { prob, rng },
                StageSpec::ClassicQueue { rate_bps } => Hop::Queue {
                    router: Box::new(Router::new(
                        rate_bps,
                        CLASSIC_QUEUE_BYTES,
                        RouterAqm::ClassicEcn(Red::default()),
                        rng,
                    )),
                    steps: Vec::new(),
                },
            })
            .collect();
        WiredPlane {
            hops,
            stages: spec.stages.len(),
            counters: ImpairmentCounters::default(),
        }
    }

    /// This plane with `router` as its last hop, changing rate to `bps`
    /// at each `(at, bps)` of `schedule` (steps sharing an instant apply
    /// in the order given).
    ///
    /// # Panics
    /// If the plane already has as many hops as a `u8` can number.
    #[must_use]
    pub fn then_router(mut self, router: Router, schedule: &[(Instant, f64)]) -> WiredPlane {
        assert!(self.hops.len() <= u8::MAX as usize, "hops are numbered by a u8");
        let mut steps = schedule.to_vec();
        steps.sort_by_key(|&(at, _)| at);
        steps.reverse();
        self.hops.push(Hop::Queue {
            router: Box::new(router),
            steps,
        });
        self
    }

    /// The wired plane of `cfg`, if it has one: its impairment stages,
    /// then its bottleneck. The stages draw `derive(5)` for stage 0 and
    /// `derive(40_000 + k)` for stage `k` after it, the bottleneck
    /// `derive(3)` — streams disjoint from every other the world draws,
    /// so a wired plane perturbs nothing else.
    pub(crate) fn of_scenario(cfg: &ScenarioConfig, root: &SimRng) -> Option<WiredPlane> {
        if cfg.impairment.is_none() && cfg.bottleneck.is_none() {
            return None;
        }
        let clean = ImpairmentSpec::default();
        let spec = cfg.impairment.as_ref().unwrap_or(&clean);
        let rngs = (0..spec.stages.len() as u64)
            .map(|k| root.derive(if k == 0 { 5 } else { 40_000 + k }))
            .collect();
        let plane = WiredPlane::new(spec, rngs);
        let Some(b) = &cfg.bottleneck else {
            return Some(plane);
        };
        let aqm = if b.l4s_aqm {
            RouterAqm::DualPi2(DualPi2::default())
        } else {
            RouterAqm::Droptail
        };
        let router = Router::new(b.rate_bps, BOTTLENECK_BYTES, aqm, root.derive(3));
        Some(plane.then_router(router, &b.schedule))
    }

    /// Number of hops.
    pub fn n_hops(&self) -> usize {
        self.hops.len()
    }

    /// `pkt` reaches hop `hop` at `now`. It crosses the stateless hops
    /// from there on until one drops it, a queue hop takes it (and is
    /// polled at once), or it leaves the last hop ([`HopSink::exit`]).
    pub fn arrive(
        &mut self,
        hop: usize,
        mut pkt: PacketBuf,
        now: Instant,
        sink: &mut impl HopSink,
    ) {
        for i in hop..self.hops.len() {
            match &mut self.hops[i] {
                Hop::Bleach { prob, rng } => {
                    if pkt.ecn().is_ect() && rng.chance(*prob) {
                        let bleached = pkt.ecn().bleach();
                        pkt.set_ecn(bleached);
                        self.counters.bleached += 1;
                    }
                }
                Hop::Remark { from, to, prob, rng } => {
                    if pkt.ecn() == *from && rng.chance(*prob) {
                        let to = pkt.ecn().remark_to(*to);
                        pkt.set_ecn(to);
                        self.counters.remarked += 1;
                    }
                }
                Hop::EctDrop { prob, rng } => {
                    if pkt.ecn().is_ect() && rng.chance(*prob) {
                        self.counters.ect_dropped += 1;
                        return;
                    }
                }
                Hop::Queue { router, .. } => {
                    router.enqueue(pkt, now);
                    self.poll(i, now, sink);
                    return;
                }
            }
        }
        sink.exit(pkt, now);
    }

    /// Poll queue hop `hop` at `now`: take the rate steps due, pass each
    /// packet whose service has completed to the next hop, then ask to
    /// be polled at the next departure ([`HopSink::poll_at`]). A
    /// stateless hop has nothing to poll.
    pub fn poll(&mut self, hop: usize, now: Instant, sink: &mut impl HopSink) {
        let Hop::Queue { router, steps } = &mut self.hops[hop] else {
            return;
        };
        while let Some(&(at, bps)) = steps.last() {
            if at > now {
                break;
            }
            router.set_rate(bps);
            steps.pop();
        }
        let departed = router.poll(now);
        let next = router.next_departure();
        for pkt in departed {
            self.arrive(hop + 1, pkt, now, sink);
        }
        if let Some(at) = next {
            sink.poll_at(hop as u8, at);
        }
    }

    /// What the impairment stages did ([`Report::impairment`]); a
    /// bottleneck behind them is not counted.
    pub fn impairment(&self) -> ImpairmentCounters {
        let mut c = self.counters;
        for r in routers(&self.hops[..self.stages]) {
            c.queue_marks += r.marks;
            c.queue_drops += r.drops;
        }
        c
    }

    /// Packets removed from the path at any hop: ECT drops plus every
    /// queue hop's AQM and tail drops.
    pub fn dropped(&self) -> u64 {
        self.counters.ect_dropped + routers(&self.hops).map(|r| r.drops).sum::<u64>()
    }
}

/// The routers of the queue hops among `hops`.
fn routers(hops: &[Hop]) -> impl Iterator<Item = &Router> {
    hops.iter().filter_map(|hop| match hop {
        Hop::Queue { router, .. } => Some(&**router),
        _ => None,
    })
}

/// Configuration of a wired run.
#[derive(Debug, Clone)]
pub struct WiredConfig {
    /// RNG seed.
    pub seed: u64,
    /// Run length.
    pub duration: Duration,
    /// Router line rate in bit/s (40 Mbit/s matches the cell).
    pub rate_bps: f64,
    /// One-way propagation delay on each side of the router.
    pub one_way: Duration,
    /// Flows: (typed congestion controller, start time).
    pub flows: Vec<(CcKind, Instant)>,
    /// Throughput bin.
    pub thr_bin: Duration,
}

enum Event {
    AtPlane { pkt: PacketBuf },
    HopPoll { hop: u8 },
    AtClient { flow: usize, pkt: PacketBuf },
    AtServer { flow: usize, pkt: PacketBuf },
    Timer { flow: usize },
    Start { flow: usize },
}

struct WFlow {
    sender: TcpSender,
    receiver: TcpReceiver,
    sent_at: HashMap<u16, Instant>,
}

/// Fig. 2(a)'s event queue, and the sink of its plane: a packet leaving
/// the plane crosses the far link to its flow's client, and hop `h`'s
/// poll is the wake-up key `hop_key + h`.
struct Wire {
    queue: EventQueue<Event>,
    tuple_to_flow: HashMap<FiveTuple, usize>,
    one_way: Duration,
    hop_key: usize,
}

impl HopSink for Wire {
    fn exit(&mut self, pkt: PacketBuf, now: Instant) {
        if let Some(&flow) = pkt.five_tuple().and_then(|t| self.tuple_to_flow.get(&t)) {
            self.queue
                .schedule(now + self.one_way, Event::AtClient { flow, pkt });
        }
    }

    fn poll_at(&mut self, hop: u8, at: Instant) {
        self.queue
            .arm(self.hop_key + hop as usize, at, || Event::HopPoll { hop });
    }
}

/// Run the wired scenario.
pub fn run_wired(cfg: WiredConfig) -> Report {
    let root = SimRng::new(cfg.seed);
    let mut plane = WiredPlane::default().then_router(
        Router::new(
            cfg.rate_bps,
            2 << 20,
            RouterAqm::DualPi2(DualPi2::default()),
            root.derive(1),
        ),
        &[],
    );
    // Wake-up keys: flow `f`'s sender timer is `f`, the plane's hops
    // come after the flows.
    let hop_key = cfg.flows.len();
    let mut wire = Wire {
        queue: EventQueue::with_wakeups(0, 0..hop_key + plane.n_hops()),
        tuple_to_flow: HashMap::new(),
        one_way: cfg.one_way,
        hop_key,
    };
    let mut flows = Vec::new();
    for (f, (cc, start)) in cfg.flows.iter().enumerate() {
        let controller = cc.make(1400);
        let mode = controller.ecn_mode();
        let tcfg = TcpConfig::new(0x0A00_0000 + f as u32, 0xC0A8_0000, 443, 50_000 + f as u16);
        let tuple = tcfg.downlink_tuple();
        wire.tuple_to_flow.insert(tuple, f);
        flows.push(WFlow {
            sender: TcpSender::new(tcfg, controller),
            receiver: TcpReceiver::new(tcfg, mode),
            sent_at: HashMap::new(),
        });
        wire.queue.schedule(*start, Event::Start { flow: f });
    }

    let n = flows.len();
    let mut owd_ms = vec![Vec::new(); n];
    let mut rtt_ms = vec![Vec::new(); n];
    let mut rtt_at_s = vec![Vec::new(); n];
    let mut thr_bins = vec![Vec::new(); n];
    let end = Instant::ZERO + cfg.duration;

    // Helper closures are awkward with borrows; use a small macro-like fn.
    fn route_dl(
        queue: &mut EventQueue<Event>,
        flows: &mut [WFlow],
        flow: usize,
        pkts: &mut Vec<PacketBuf>,
        one_way: Duration,
        now: Instant,
    ) {
        for pkt in pkts.drain(..) {
            flows[flow].sent_at.insert(pkt.ip().identification, now);
            queue.schedule(now + one_way, Event::AtPlane { pkt });
        }
    }

    fn arm_timer(queue: &mut EventQueue<Event>, f: &WFlow, flow: usize) {
        if let Some(at) = f.sender.next_activity() {
            queue.arm(flow, at, || Event::Timer { flow });
        }
    }

    // Sender releases, reused across events (`route_dl` drains it).
    let mut outs = Vec::new();
    while let Some(at) = wire.queue.next_at() {
        if at > end {
            break;
        }
        let (now, ev) = wire.queue.pop().expect("peeked");
        match ev {
            Event::Start { flow } => {
                let syn = flows[flow].receiver.start(now);
                // Client→server path doesn't cross the bottleneck.
                wire.queue.schedule(now + cfg.one_way * 2, Event::AtServer { flow, pkt: syn });
            }
            Event::AtPlane { pkt } => plane.arrive(0, pkt, now, &mut wire),
            Event::HopPoll { hop } => plane.poll(hop as usize, now, &mut wire),
            Event::AtClient { flow, pkt } => {
                let ident = pkt.ip().identification;
                if let Some(sent) = flows[flow].sent_at.remove(&ident) {
                    let owd = now.saturating_since(sent).as_millis_f64();
                    if pkt.payload_len() > 0 {
                        owd_ms[flow].push(owd);
                        let bin =
                            (now.as_nanos() / cfg.thr_bin.as_nanos().max(1)) as usize;
                        if thr_bins[flow].len() <= bin {
                            thr_bins[flow].resize(bin + 1, 0);
                        }
                        thr_bins[flow][bin] += pkt.payload_len() as u64;
                    }
                }
                if let Some(ack) = flows[flow].receiver.on_packet(&pkt, now) {
                    wire.queue.schedule(now + cfg.one_way * 2, Event::AtServer { flow, pkt: ack });
                }
            }
            Event::AtServer { flow, pkt } => {
                flows[flow].sender.on_packet_into(&pkt, now, &mut outs);
                if let Some(srtt) = flows[flow].sender.srtt() {
                    rtt_ms[flow].push(srtt.as_millis_f64());
                    rtt_at_s[flow].push(now.as_secs_f64());
                }
                route_dl(&mut wire.queue, &mut flows, flow, &mut outs, cfg.one_way, now);
                arm_timer(&mut wire.queue, &flows[flow], flow);
            }
            Event::Timer { flow } => {
                flows[flow].sender.poll_into(now, &mut outs);
                route_dl(&mut wire.queue, &mut flows, flow, &mut outs, cfg.one_way, now);
                arm_timer(&mut wire.queue, &flows[flow], flow);
            }
        }
    }

    Report {
        duration: cfg.duration,
        bin: cfg.thr_bin,
        flow_start: cfg.flows.iter().map(|&(_, s)| s).collect(),
        owd_ms,
        rtt_ms,
        rtt_at_s,
        thr_bins,
        finish_ms: vec![None; n],
        ..Report::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wired_l4s_matches_fig2a() {
        // One Prague and one CUBIC flow through a 40 Mbit/s DualPi2
        // router with 10 ms base RTT, as in Fig. 2(a).
        let cfg = WiredConfig {
            seed: 3,
            duration: Duration::from_secs(8),
            rate_bps: 40e6,
            one_way: Duration::from_millis(2),
            flows: vec![
                (CcKind::Prague, Instant::from_millis(0)),
                (CcKind::Cubic, Instant::from_millis(100)),
            ],
            thr_bin: Duration::from_millis(100),
        };
        let r = run_wired(cfg);
        // Prague: RTT stays near the base (~8 ms) + L-queue ~1 ms.
        let prague_rtt = l4span_sim::stats::BoxStats::from_samples(&r.rtt_ms[0]);
        assert!(
            prague_rtt.median < 25.0,
            "prague wired RTT {} ms",
            prague_rtt.median
        );
        // CUBIC: the PI controller holds around its 15 ms target, far
        // below bufferbloat but above Prague.
        let cubic_rtt = l4span_sim::stats::BoxStats::from_samples(&r.rtt_ms[1]);
        assert!(
            cubic_rtt.median > prague_rtt.median,
            "cubic {} vs prague {}",
            cubic_rtt.median,
            prague_rtt.median
        );
        assert!(
            cubic_rtt.median < 120.0,
            "cubic held near target: {} ms",
            cubic_rtt.median
        );
        // Together they fill the 40 Mbit/s line.
        let total: f64 = (0..2)
            .map(|f| r.goodput_mbps(f, Instant::from_secs(2), Instant::from_secs(8)))
            .sum();
        assert!(total > 28.0, "line utilisation {total} Mbit/s");
        // Every sample of the run, pinned: the router loop may change
        // shape, not what it simulates.
        assert_eq!(r.fingerprint_digest(), "19345bfa67011bc4");
    }
}
