//! The wired plane: the hops between content-server egress and the
//! core, run by the world's event loop.
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

use l4span_aqm::{DualPi2, Red, Router, RouterAqm};
use l4span_net::{Ecn, PacketBuf};
use l4span_sim::{Instant, SimRng};

use crate::impairment::{ImpairmentCounters, ImpairmentSpec, StageSpec, CLASSIC_QUEUE_BYTES};
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
    Bleach {
        prob: f64,
        rng: SimRng,
    },
    Remark {
        from: Ecn,
        to: Ecn,
        prob: f64,
        rng: SimRng,
    },
    EctDrop {
        prob: f64,
        rng: SimRng,
    },
    /// `steps` are the rate changes still to come, latest first. The
    /// router reads its rate only when polled, so each step applies at
    /// the hop's first poll at or after its instant.
    Queue {
        router: Box<Router>,
        steps: Vec<(Instant, f64)>,
    },
}

/// The hops between server egress and the core, in path order.
#[derive(Debug)]
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
                StageSpec::Remark { from, to, prob } => Hop::Remark {
                    from,
                    to,
                    prob,
                    rng,
                },
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
        assert!(
            self.hops.len() <= u8::MAX as usize,
            "hops are numbered by a u8"
        );
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
    ///
    /// # Panics
    /// As [`WiredPlane::new`] does, and if the bottleneck fails
    /// [`BottleneckSpec::validate`](crate::scenario::BottleneckSpec::validate).
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
        if let Err(e) = b.validate() {
            panic!("invalid BottleneckSpec: {e}");
        }
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
                Hop::Remark {
                    from,
                    to,
                    prob,
                    rng,
                } => {
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

    /// What the impairment stages did
    /// ([`Report::impairment`](crate::Report::impairment)); a
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::BottleneckSpec;
    use l4span_sim::Duration;

    #[test]
    #[should_panic(expected = "invalid BottleneckSpec: schedule step 0: rate 0 not positive")]
    fn a_bottleneck_stepping_to_zero_is_refused() {
        let mut cfg = ScenarioConfig::new(1, Duration::from_secs(1));
        cfg.bottleneck = Some(BottleneckSpec {
            rate_bps: 1e9,
            schedule: vec![(Instant::from_millis(500), 0.0)],
            l4s_aqm: true,
        });
        let _ = WiredPlane::of_scenario(&cfg, &SimRng::new(1));
    }
}
