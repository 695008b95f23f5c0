//! Mid-path internet impairments: the hostile middle between the content
//! server and the core.
//!
//! Every simulated path in earlier revisions was ECN-faithful: the
//! codepoint the server wrote was the codepoint the RAN saw. Measurement
//! ("A Fresh Look at ECN Traversal in the Wild") says real internet
//! paths are not like that — middleboxes bleach ECT to Not-ECT, mangle
//! codepoints, drop ECT traffic outright, and legacy RFC 3168 routers
//! mark `ECT(1)` with classic (deep-queue) semantics. This module models
//! that middle as a composable pipeline of [`StageSpec`] stages inserted
//! between server egress and the core, so scenarios can ask the
//! deployment question the paper leaves open: how much of the marker's
//! benefit survives a hostile path?
//!
//! ```text
//! server ──WAN──▶ [stage 0] ─▶ [stage 1] ─▶ … ─▶ (bottleneck?) ─▶ CU
//!                  bleach       RFC 3168 hop
//! ```
//!
//! Stage order matters and is preserved: bleaching *before* the classic
//! queue turns would-be CE marks into drops (the queue sees Not-ECT),
//! while bleaching *after* it erases the queue's marks. Stateless stages
//! (bleach / remark / drop) apply instantaneously; the
//! [`StageSpec::ClassicQueue`] stage is a real rate-served [`Router`]
//! running the RFC 3168 [`Red`] AQM on one shared FIFO, so it adds
//! queueing delay and is where L4S and classic flows collide.
//!
//! Each stage draws from its own derived RNG stream, so impairment
//! decisions are deterministic, independent of worker count, and
//! independent of every pre-existing stream in the world.

use l4span_aqm::{Red, Router, RouterAqm};
use l4span_net::{Ecn, PacketBuf};
use l4span_sim::{Instant, SimRng};

/// One configured impairment policy, applied in pipeline order.
#[derive(Debug, Clone, PartialEq)]
pub enum StageSpec {
    /// Rewrite ECT/CE to Not-ECT with probability `prob` per packet —
    /// the most common impairment measured in the wild. Not-ECT packets
    /// pass untouched (and uncounted).
    Bleach {
        /// Per-packet bleaching probability in `[0, 1]`.
        prob: f64,
    },
    /// Rewrite codepoint `from` to `to` with probability `prob` per
    /// packet (middlebox mangling, e.g. `ECT(1)` → `ECT(0)`). The
    /// transition must be legal per [`Ecn::transition_legal`];
    /// [`ImpairmentSpec::validate`] rejects illegal ones.
    Remark {
        /// Codepoint the stage rewrites.
        from: Ecn,
        /// Codepoint it rewrites to.
        to: Ecn,
        /// Per-packet rewrite probability in `[0, 1]`.
        prob: f64,
    },
    /// Drop ECT-marked packets with probability `prob` per packet (the
    /// ECT-hostile firewall behaviour). Not-ECT passes untouched.
    EctDrop {
        /// Per-packet drop probability in `[0, 1]`.
        prob: f64,
    },
    /// A full RFC 3168 classic-ECN hop: one shared FIFO served at
    /// `rate_bps`, RED-style marking that treats `ECT(1)` exactly like
    /// `ECT(0)` and drops Not-ECT instead of marking. The coexistence
    /// hazard: a scalable flow reads these deep-queue marks as shallow
    /// L4S signals unless it detects the pattern and falls back.
    ClassicQueue {
        /// Service rate of the hop in bits/s.
        rate_bps: f64,
    },
}

/// Queue byte cap of a [`StageSpec::ClassicQueue`] hop (1 MiB — a small
/// legacy-router buffer; the hop is an impairment, not the bottleneck).
const CLASSIC_QUEUE_BYTES: usize = 1 << 20;

/// Ordered impairment pipeline between server egress and the core.
///
/// Build with the named constructors ([`ImpairmentSpec::bleaching`],
/// [`ImpairmentSpec::classic_hop`]) and compose with
/// [`ImpairmentSpec::then`]:
///
/// ```
/// use l4span_harness::impairment::ImpairmentSpec;
/// // Bleach 30% of ECT upstream of an RFC 3168 hop at 95 Mbit/s.
/// let spec = ImpairmentSpec::bleaching(0.3).then_classic_hop(95e6);
/// assert_eq!(spec.stages.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ImpairmentSpec {
    /// The stages, applied in order.
    pub stages: Vec<StageSpec>,
}

impl ImpairmentSpec {
    /// A single bleaching stage: rewrite ECT/CE to Not-ECT with
    /// probability `prob` per packet.
    pub fn bleaching(prob: f64) -> ImpairmentSpec {
        ImpairmentSpec {
            stages: vec![StageSpec::Bleach { prob }],
        }
    }

    /// A single RFC 3168 classic-ECN hop served at `rate_bps`.
    pub fn classic_hop(rate_bps: f64) -> ImpairmentSpec {
        ImpairmentSpec {
            stages: vec![StageSpec::ClassicQueue { rate_bps }],
        }
    }

    /// A single remarking stage (`from` → `to` with probability `prob`).
    pub fn remarking(from: Ecn, to: Ecn, prob: f64) -> ImpairmentSpec {
        ImpairmentSpec {
            stages: vec![StageSpec::Remark { from, to, prob }],
        }
    }

    /// A single ECT-drop stage.
    pub fn ect_dropping(prob: f64) -> ImpairmentSpec {
        ImpairmentSpec {
            stages: vec![StageSpec::EctDrop { prob }],
        }
    }

    /// Append `stage` to the pipeline.
    #[must_use]
    pub fn then(mut self, stage: StageSpec) -> ImpairmentSpec {
        self.stages.push(stage);
        self
    }

    /// Append a bleaching stage.
    #[must_use]
    pub fn then_bleaching(self, prob: f64) -> ImpairmentSpec {
        self.then(StageSpec::Bleach { prob })
    }

    /// Append an RFC 3168 classic-ECN hop.
    #[must_use]
    pub fn then_classic_hop(self, rate_bps: f64) -> ImpairmentSpec {
        self.then(StageSpec::ClassicQueue { rate_bps })
    }

    /// Check every stage is well-formed: probabilities in `[0, 1]`,
    /// remark transitions legal, queue rates positive. Returns the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        for (i, s) in self.stages.iter().enumerate() {
            match *s {
                StageSpec::Bleach { prob } | StageSpec::EctDrop { prob } => {
                    if !(0.0..=1.0).contains(&prob) {
                        return Err(format!("stage {i}: probability {prob} outside [0,1]"));
                    }
                }
                StageSpec::Remark { from, to, prob } => {
                    if !(0.0..=1.0).contains(&prob) {
                        return Err(format!("stage {i}: probability {prob} outside [0,1]"));
                    }
                    if !Ecn::transition_legal(from, to) {
                        return Err(format!(
                            "stage {i}: illegal ECN transition {from:?} -> {to:?}"
                        ));
                    }
                }
                StageSpec::ClassicQueue { rate_bps } => {
                    if rate_bps <= 0.0 || rate_bps.is_nan() {
                        return Err(format!("stage {i}: queue rate {rate_bps} not positive"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// What the impairment pipeline did, cumulatively. Folded into
/// [`Report::impairment`](crate::metrics::Report) and — because the
/// decisions ride dedicated RNG streams — byte-identical across worker
/// counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImpairmentCounters {
    /// Packets whose ECT/CE codepoint was rewritten to Not-ECT.
    pub bleached: u64,
    /// Packets remarked by a [`StageSpec::Remark`] stage.
    pub remarked: u64,
    /// Packets dropped by a [`StageSpec::EctDrop`] stage.
    pub ect_dropped: u64,
    /// CE marks applied by classic-queue hops.
    pub queue_marks: u64,
    /// Drops (AQM + tail) at classic-queue hops.
    pub queue_drops: u64,
}

impl ImpairmentCounters {
    /// Total packets removed from the path by the pipeline.
    pub fn total_dropped(&self) -> u64 {
        self.ect_dropped + self.queue_drops
    }
}

/// What one stage did with one packet.
#[derive(Debug)]
pub enum StageOutcome {
    /// The packet continues to the next stage (possibly rewritten).
    Continue(PacketBuf),
    /// The packet was dropped and counted; processing stops.
    Dropped,
    /// The packet entered this stage's queue; it re-emerges from
    /// [`Impairment::poll_queue`] later.
    Queued,
}

/// Runtime stage: the spec plus its RNG stream / router state. The
/// router is boxed to keep the stateless variants small.
#[derive(Debug)]
enum Stage {
    Bleach { prob: f64, rng: SimRng },
    Remark { from: Ecn, to: Ecn, prob: f64, rng: SimRng },
    EctDrop { prob: f64, rng: SimRng },
    ClassicQueue { router: Box<Router> },
}

/// The instantiated pipeline (one per world; see `World::new`).
#[derive(Debug)]
pub struct Impairment {
    stages: Vec<Stage>,
    /// Cumulative counters across all stages.
    pub counters: ImpairmentCounters,
}

impl Impairment {
    /// Instantiate `spec`, drawing one RNG stream per stage from `rngs`
    /// (must supply exactly `spec.stages.len()` streams; queue stages
    /// consume theirs for the AQM).
    ///
    /// # Panics
    /// If `spec` fails [`ImpairmentSpec::validate`] or `rngs` has the
    /// wrong length — both are configuration bugs.
    pub fn new(spec: &ImpairmentSpec, rngs: Vec<SimRng>) -> Impairment {
        if let Err(e) = spec.validate() {
            panic!("invalid ImpairmentSpec: {e}");
        }
        assert_eq!(rngs.len(), spec.stages.len(), "one RNG stream per stage");
        let stages = spec
            .stages
            .iter()
            .zip(rngs)
            .map(|(s, rng)| match *s {
                StageSpec::Bleach { prob } => Stage::Bleach { prob, rng },
                StageSpec::Remark { from, to, prob } => Stage::Remark { from, to, prob, rng },
                StageSpec::EctDrop { prob } => Stage::EctDrop { prob, rng },
                StageSpec::ClassicQueue { rate_bps } => Stage::ClassicQueue {
                    router: Box::new(Router::new(
                        rate_bps,
                        CLASSIC_QUEUE_BYTES,
                        RouterAqm::ClassicEcn(Red::default()),
                        rng,
                    )),
                },
            })
            .collect();
        Impairment {
            stages,
            counters: ImpairmentCounters::default(),
        }
    }

    /// Number of pipeline stages.
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// Run stage `i` on `pkt`. Stateless stages decide immediately;
    /// a queue stage takes ownership of the packet (collect departures
    /// with [`Impairment::poll_queue`]).
    pub fn apply(&mut self, i: usize, mut pkt: PacketBuf, now: Instant) -> StageOutcome {
        match &mut self.stages[i] {
            Stage::Bleach { prob, rng } => {
                if pkt.ecn().is_ect() && rng.chance(*prob) {
                    let bleached = pkt.ecn().bleach();
                    pkt.set_ecn(bleached);
                    self.counters.bleached += 1;
                }
                StageOutcome::Continue(pkt)
            }
            Stage::Remark { from, to, prob, rng } => {
                if pkt.ecn() == *from && rng.chance(*prob) {
                    let to = pkt.ecn().remark_to(*to);
                    pkt.set_ecn(to);
                    self.counters.remarked += 1;
                }
                StageOutcome::Continue(pkt)
            }
            Stage::EctDrop { prob, rng } => {
                if pkt.ecn().is_ect() && rng.chance(*prob) {
                    self.counters.ect_dropped += 1;
                    StageOutcome::Dropped
                } else {
                    StageOutcome::Continue(pkt)
                }
            }
            Stage::ClassicQueue { router, .. } => {
                // Counter deltas are folded in at poll time (the router
                // owns the raw drop/mark counts).
                router.enqueue(pkt, now);
                StageOutcome::Queued
            }
        }
    }

    /// Poll queue stage `i`: returns the packets whose service completed
    /// by `now` and the next departure instant, if any. The caller feeds
    /// departures into stage `i + 1` and polls again at the returned
    /// instant; keeping that to one pending poll per stage is the
    /// caller's business (the world arms one wake-up slot per stage).
    pub fn poll_queue(&mut self, i: usize, now: Instant) -> (Vec<PacketBuf>, Option<Instant>) {
        let Stage::ClassicQueue { router } = &mut self.stages[i] else {
            return (Vec::new(), None);
        };
        let (marks0, drops0) = (router.marks, router.drops);
        let out = router.poll(now);
        self.counters.queue_marks += router.marks - marks0;
        self.counters.queue_drops += router.drops - drops0;
        (out, router.next_departure())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l4span_net::TcpHeader;

    fn pkt(ecn: Ecn) -> PacketBuf {
        PacketBuf::tcp(1, 2, ecn, 0, &TcpHeader::default(), 1200)
    }

    fn streams(n: usize) -> Vec<SimRng> {
        let root = SimRng::new(9);
        (0..n).map(|k| root.derive(5000 + k as u64)).collect()
    }

    fn expect_continue(out: StageOutcome) -> PacketBuf {
        match out {
            StageOutcome::Continue(p) => p,
            other => panic!("expected Continue, got {other:?}"),
        }
    }

    #[test]
    fn bleach_stage_rewrites_ect_only() {
        let spec = ImpairmentSpec::bleaching(1.0);
        let mut imp = Impairment::new(&spec, streams(1));
        for ecn in [Ecn::Ect1, Ecn::Ect0, Ecn::Ce] {
            let p = expect_continue(imp.apply(0, pkt(ecn), Instant::ZERO));
            assert_eq!(p.ecn(), Ecn::NotEct);
        }
        let p = expect_continue(imp.apply(0, pkt(Ecn::NotEct), Instant::ZERO));
        assert_eq!(p.ecn(), Ecn::NotEct);
        assert_eq!(imp.counters.bleached, 3, "Not-ECT passes uncounted");
    }

    #[test]
    fn remark_stage_matches_exact_codepoint() {
        let spec = ImpairmentSpec::remarking(Ecn::Ect1, Ecn::Ect0, 1.0);
        let mut imp = Impairment::new(&spec, streams(1));
        let p = expect_continue(imp.apply(0, pkt(Ecn::Ect1), Instant::ZERO));
        assert_eq!(p.ecn(), Ecn::Ect0);
        let q = expect_continue(imp.apply(0, pkt(Ecn::Ect0), Instant::ZERO));
        assert_eq!(q.ecn(), Ecn::Ect0, "non-matching codepoint untouched");
        assert_eq!(imp.counters.remarked, 1);
    }

    #[test]
    fn ect_drop_stage_spares_not_ect() {
        let spec = ImpairmentSpec::ect_dropping(1.0);
        let mut imp = Impairment::new(&spec, streams(1));
        assert!(matches!(
            imp.apply(0, pkt(Ecn::Ect1), Instant::ZERO),
            StageOutcome::Dropped
        ));
        let _ = expect_continue(imp.apply(0, pkt(Ecn::NotEct), Instant::ZERO));
        assert_eq!(imp.counters.ect_dropped, 1);
    }

    #[test]
    fn queue_stage_serves_and_counts() {
        // 9.6 Mbit/s, 1240-byte wire packets ≈ 1.03 ms each.
        let spec = ImpairmentSpec::classic_hop(9.6e6);
        let mut imp = Impairment::new(&spec, streams(1));
        let mut offered = 0;
        for _ in 0..5 {
            assert!(matches!(
                imp.apply(0, pkt(Ecn::Ect1), Instant::ZERO),
                StageOutcome::Queued
            ));
            offered += 1;
        }
        let mut got = 0;
        let mut now = Instant::ZERO;
        let (out, mut next) = imp.poll_queue(0, now);
        got += out.len();
        while let Some(d) = next {
            now = d;
            let (out, n) = imp.poll_queue(0, now);
            got += out.len();
            next = n;
        }
        assert_eq!(
            got as u64 + imp.counters.queue_drops,
            offered,
            "conservation at the hop"
        );
    }

    #[test]
    fn validate_rejects_illegal_remark_and_bad_prob() {
        assert!(ImpairmentSpec::remarking(Ecn::NotEct, Ecn::Ect1, 0.5)
            .validate()
            .is_err());
        assert!(ImpairmentSpec::bleaching(1.5).validate().is_err());
        assert!(ImpairmentSpec::classic_hop(0.0).validate().is_err());
        assert!(ImpairmentSpec::bleaching(0.3)
            .then_classic_hop(50e6)
            .validate()
            .is_ok());
    }
}
