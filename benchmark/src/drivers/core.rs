//! `core`: the L4Span marker's three event handlers, the egress-rate
//! estimator and the marking math — the paper's Fig. 21 quantities.

use std::hint::black_box;

use l4span_core::estimator::EgressEstimator;
use l4span_core::{marking, L4SpanConfig, L4SpanLayer};
use l4span_net::{AccEcnCounters, Ecn, PacketBuf, TcpFlags, TcpHeader};
use l4span_ran::f1u::DlDataDeliveryStatus;
use l4span_ran::{DrbId, UeId};
use l4span_sim::{Duration, Instant, SimRng};

use super::{measure, measure_op, timed, Budget};

const SERVER_IP: u32 = 0x0A00_0001;
const UE_IP0: u32 = 0xC0A8_0000;
/// Per-DRB packet spacing: 1400 B every 500 µs ≈ 23 Mbit/s.
const GAP_NS: u64 = 500_000;
/// SDUs the RAN queue holds before the oldest is reported transmitted:
/// 12–28 SDUs ≈ 6–14 ms of sojourn, straddling the 10 ms target, so the
/// marking probability is neither 0 nor 1.
const LAG: u64 = 12;
/// Handler calls timed as one block (amortises the clock reads).
const BLOCK: u64 = 16;
/// Packets of the fixed pre-pass the exact mark share is read from.
const EXACT_OPS: u64 = 100_000;

/// A marker in steady state over `pairs` (UE, DRB) pairs, one L4S TCP
/// flow each, fed round-robin. Operation `i` is pair `i % pairs`'s
/// packet number `i / pairs`; the matching F1-U report says the SDU
/// `LAG` places earlier left the RAN queue.
struct Rig {
    layer: L4SpanLayer,
    pairs: u64,
    data: Vec<PacketBuf>,
    i: u64,
}

impl Rig {
    fn new(pairs: u64, seed: u64) -> Rig {
        let mut layer = L4SpanLayer::new(L4SpanConfig::default(), SimRng::new(seed));
        let mut data = Vec::with_capacity(pairs as usize);
        for p in 0..pairs {
            let synack = TcpHeader {
                src_port: 443,
                dst_port: 50_000,
                flags: TcpFlags::new().with(TcpFlags::SYN).with(TcpFlags::ACK),
                accecn: Some(AccEcnCounters::default()),
                mss: Some(1400),
                ..TcpHeader::default()
            };
            let (ue, drb) = Rig::key(p);
            let mut sp = PacketBuf::tcp(SERVER_IP, UE_IP0 + p as u32, Ecn::Ect1, 0, &synack, 0);
            layer.on_dl_packet(ue, drb, &mut sp, Instant::ZERO);
            let hdr = TcpHeader {
                src_port: 443,
                dst_port: 50_000,
                flags: TcpFlags::new().with(TcpFlags::ACK),
                ..TcpHeader::default()
            };
            data.push(PacketBuf::tcp(
                SERVER_IP,
                UE_IP0 + p as u32,
                Ecn::Ect1,
                1,
                &hdr,
                1400,
            ));
        }
        Rig {
            layer,
            pairs,
            data,
            i: 0,
        }
    }

    fn key(pair: u64) -> (UeId, DrbId) {
        (UeId((pair / 2) as u16), DrbId((pair % 2) as u8))
    }

    fn at(&self, i: u64) -> Instant {
        Instant::from_nanos((i / self.pairs) * GAP_NS + (i % self.pairs) * GAP_NS / self.pairs)
    }

    /// One block of downlink packets, then the block's F1-U reports.
    /// Returns (ns in `on_dl_packet`, ns in `on_ran_feedback`).
    fn block(&mut self) -> (u64, u64) {
        let (from, to) = (self.i, self.i + BLOCK);
        self.i = to;
        let dl = timed(|| {
            for i in from..to {
                let (ue, drb) = Rig::key(i % self.pairs);
                let mut p = self.data[(i % self.pairs) as usize];
                self.layer.on_dl_packet(ue, drb, &mut p, self.at(i));
                black_box(&p);
            }
        });
        let fb = timed(|| {
            for i in from..to {
                // Data packet k of a pair is SN k + 1: SN 0 was the SYN-ACK.
                let Some(sn) = (i / self.pairs + 1).checked_sub(LAG) else {
                    continue;
                };
                let (ue, drb) = Rig::key(i % self.pairs);
                let t = self.at(i);
                self.layer.on_ran_feedback(
                    &DlDataDeliveryStatus {
                        ue,
                        drb,
                        highest_txed_sn: Some(sn),
                        highest_delivered_sn: sn.checked_sub(4),
                        timestamp: t,
                        desired_buffer_size: 0,
                    },
                    t,
                );
            }
        });
        (dl, fb)
    }

    /// `measure` batch: `iters` packets, rounded up to whole blocks.
    fn batch(&mut self, iters: u64) -> [(u64, u64); 2] {
        let (mut dl, mut fb) = (0, 0);
        let blocks = iters.div_ceil(BLOCK);
        for _ in 0..blocks {
            let (d, f) = self.block();
            dl += d;
            fb += f;
        }
        [(dl, blocks * BLOCK), (fb, blocks * BLOCK)]
    }
}

pub fn run(budget: Budget, seed: u64) -> Vec<(&'static str, f64)> {
    // One DRB: fixed pre-pass for the exact mark share, then timing.
    let mut one = Rig::new(1, seed);
    while one.i < EXACT_OPS {
        one.block();
    }
    let s = one.layer.stats();
    let mark_pct = (s.dl_marks + s.tentative_marks) as f64 * 100.0 / s.dl_packets as f64;
    let [dl_1drb, feedback] = measure(budget, |iters| one.batch(iters));

    // Uplink ACKs of the (by now tentatively marked) flow: every one is
    // rewritten with the bookkept AccECN ledger.
    let ack_hdr = TcpHeader {
        src_port: 50_000,
        dst_port: 443,
        ack: 1400,
        flags: TcpFlags::new().with(TcpFlags::ACK),
        accecn: Some(AccEcnCounters::default()),
        ..TcpHeader::default()
    };
    let ack = PacketBuf::tcp(UE_IP0, SERVER_IP, Ecn::NotEct, 0, &ack_hdr, 0);
    let now = one.at(one.i);
    let before = one.layer.stats().ul_rewritten;
    let ul = measure_op(budget, || {
        let mut a = ack;
        one.layer.on_ul_packet(&mut a, now);
        black_box(&a);
    });
    assert!(
        one.layer.stats().ul_rewritten > before,
        "the ACK path must rewrite"
    );

    // 1000 pairs round-robin: per-DRB and per-flow tables beyond cache.
    let mut many = Rig::new(1000, seed);
    while many.i < 40 * 1000 {
        many.block();
    }
    let [dl_1kdrb, _] = measure(budget, |iters| many.batch(iters));

    let window = Duration::from_micros(12_450);
    let mut est = EgressEstimator::new(window);
    let mut t = 0u64;
    let on_txed = measure_op(budget, || {
        t += 500;
        est.on_txed(Instant::from_micros(t), 1500);
    });
    let query = measure_op(budget, || {
        black_box((
            est.attainable_rate(),
            est.rate_std(),
            est.predict_sojourn(black_box(30_000)),
        ));
    });

    let tau = Duration::from_millis(10);
    let mut n = 0usize;
    let p_l4s = measure_op(budget, || {
        n = (n + 1440) % 1_000_000;
        black_box(marking::p_l4s(n, tau, 2.5e6, 0.3e6));
    });
    let p_classic = measure_op(budget, || {
        n = (n + 1440) % 1_000_000;
        black_box(marking::p_classic(
            1400,
            1.2247,
            Duration::from_millis(50),
            2.5e6 + n as f64,
        ));
    });

    vec![
        ("core.marker.dl_packet_ns_1drb", dl_1drb),
        ("core.marker.dl_packet_ns_1kdrb", dl_1kdrb),
        ("core.marker.ran_feedback_ns", feedback),
        ("core.marker.ul_packet_ns", ul),
        ("core.marker.driver_mark_pct", mark_pct),
        ("core.estimator.on_txed_ns", on_txed),
        ("core.estimator.query_ns", query),
        ("core.marking.p_l4s_ns", p_l4s),
        ("core.marking.p_classic_ns", p_classic),
    ]
}
