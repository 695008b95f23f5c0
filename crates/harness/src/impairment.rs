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
//! [`StageSpec::ClassicQueue`] stage is a real rate-served
//! [`Router`](l4span_aqm::Router) running the RFC 3168
//! [`Red`](l4span_aqm::Red) AQM on one shared FIFO, so it adds queueing
//! delay and is where L4S and classic flows collide.
//!
//! This module holds the description; the stages run as hops `0..k` of
//! the world's [`WiredPlane`](crate::wired::WiredPlane), ahead of the
//! bottleneck router. Each stage draws from its own derived RNG stream,
//! so impairment decisions are deterministic, independent of worker
//! count, and independent of every pre-existing stream in the world.

use l4span_net::Ecn;

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
pub(crate) const CLASSIC_QUEUE_BYTES: usize = 1 << 20;

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

    /// Append an RFC 3168 classic-ECN hop.
    #[must_use]
    pub fn then_classic_hop(self, rate_bps: f64) -> ImpairmentSpec {
        self.then(StageSpec::ClassicQueue { rate_bps })
    }

    /// Check every stage is well-formed: probabilities in `[0, 1]`,
    /// remark transitions legal, queue rates positive — and that the
    /// stages leave room for a bottleneck behind them in the `u8` the
    /// wired plane numbers its hops by. Returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.stages.len() > u8::MAX as usize {
            return Err(format!(
                "{} stages: at most {} fit ahead of a bottleneck",
                self.stages.len(),
                u8::MAX
            ));
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wired::{HopSink, WiredPlane};
    use l4span_net::{PacketBuf, TcpHeader};
    use l4span_sim::{Instant, SimRng};

    fn pkt(ecn: Ecn) -> PacketBuf {
        PacketBuf::tcp(1, 2, ecn, 0, &TcpHeader::default(), 1200)
    }

    fn plane(spec: &ImpairmentSpec) -> WiredPlane {
        let root = SimRng::new(9);
        let rngs = (0..spec.stages.len())
            .map(|k| root.derive(5000 + k as u64))
            .collect();
        WiredPlane::new(spec, rngs)
    }

    /// What left the plane, and the polls it asked for.
    #[derive(Default)]
    struct Out {
        exited: Vec<PacketBuf>,
        polls: Vec<(u8, Instant)>,
    }

    impl HopSink for Out {
        fn exit(&mut self, pkt: PacketBuf, _now: Instant) {
            self.exited.push(pkt);
        }

        fn poll_at(&mut self, hop: u8, at: Instant) {
            self.polls.push((hop, at));
        }
    }

    /// Send `ecn` through `plane` at time zero; what came out, if anything.
    fn cross(plane: &mut WiredPlane, ecn: Ecn) -> Option<PacketBuf> {
        let mut out = Out::default();
        plane.arrive(0, pkt(ecn), Instant::ZERO, &mut out);
        out.exited.pop()
    }

    #[test]
    fn bleach_stage_rewrites_ect_only() {
        let mut imp = plane(&ImpairmentSpec::bleaching(1.0));
        for ecn in [Ecn::Ect1, Ecn::Ect0, Ecn::Ce, Ecn::NotEct] {
            let p = cross(&mut imp, ecn).expect("a bleach stage drops nothing");
            assert_eq!(p.ecn(), Ecn::NotEct);
        }
        assert_eq!(imp.impairment().bleached, 3, "Not-ECT passes uncounted");
    }

    #[test]
    fn remark_stage_matches_exact_codepoint() {
        let mut imp = plane(&ImpairmentSpec::remarking(Ecn::Ect1, Ecn::Ect0, 1.0));
        let p = cross(&mut imp, Ecn::Ect1).expect("passes");
        assert_eq!(p.ecn(), Ecn::Ect0);
        let q = cross(&mut imp, Ecn::Ect0).expect("passes");
        assert_eq!(q.ecn(), Ecn::Ect0, "non-matching codepoint untouched");
        assert_eq!(imp.impairment().remarked, 1);
    }

    #[test]
    fn ect_drop_stage_spares_not_ect() {
        let mut imp = plane(&ImpairmentSpec::ect_dropping(1.0));
        assert!(cross(&mut imp, Ecn::Ect1).is_none());
        assert!(cross(&mut imp, Ecn::NotEct).is_some());
        assert_eq!(imp.impairment().ect_dropped, 1);
    }

    #[test]
    fn queue_stage_serves_and_counts() {
        // 9.6 Mbit/s, 1240-byte wire packets ≈ 1.03 ms each; a burst of
        // 1000 (1.24 MB) overflows the 1 MiB buffer, and those tail
        // drops are counted too.
        let mut imp = plane(&ImpairmentSpec::classic_hop(9.6e6));
        let mut out = Out::default();
        let offered = 1000;
        for _ in 0..offered {
            imp.arrive(0, pkt(Ecn::Ect1), Instant::ZERO, &mut out);
        }
        while let Some((hop, at)) = out.polls.pop() {
            imp.poll(hop as usize, at, &mut out);
        }
        let drops = imp.impairment().queue_drops;
        assert!(drops > 0, "the burst overflows the buffer");
        assert_eq!(
            out.exited.len() as u64 + drops,
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

    #[test]
    fn validate_leaves_a_u8_hop_index_for_the_bottleneck() {
        // 255 stages are hops 0..=254 and a bottleneck hop 255; one more
        // stage would number the bottleneck 256, which wraps onto hop 0.
        let stages = |n| ImpairmentSpec {
            stages: vec![StageSpec::Bleach { prob: 0.5 }; n],
        };
        assert!(stages(255).validate().is_ok());
        assert!(stages(256).validate().is_err());
    }
}
