//! `aqm`: a rate-served router under each AQM at 80 % load. No workload
//! has a wired bottleneck today (`wired_core` has 0 calls in all five),
//! so these move nothing end to end; they are the baseline an
//! impaired-path workload would need.

use std::hint::black_box;

use l4span_aqm::dualpi2::DualPi2;
use l4span_aqm::red::Red;
use l4span_aqm::router::{Router, RouterAqm};
use l4span_net::{Ecn, PacketBuf, TcpFlags, TcpHeader};
use l4span_sim::{Duration, Instant, SimRng};

use super::{measure, timed, Budget};

const RATE_BPS: f64 = 100e6;
/// Packets per arrival burst (a TSO-sized train): the queue has to build
/// for an AQM to have anything to decide.
const BURST: u64 = 32;
/// Packets of the fixed pre-pass the exact drop share is read from.
const EXACT_PKTS: u64 = 64_000;

/// A router fed bursts with seeded exponential gaps, mean load 80 %,
/// alternating ECT(1) and Not-ECT packets; stepped by the driver from
/// arrival to departure like the harness does.
struct Rig {
    router: Router,
    pkts: [PacketBuf; 2],
    gaps: Vec<Duration>,
    now: Instant,
    next_burst: Instant,
    offered: u64,
    delivered: u64,
}

impl Rig {
    fn new(aqm: RouterAqm, seed: u64) -> Rig {
        let hdr = TcpHeader {
            src_port: 443,
            dst_port: 50_000,
            flags: TcpFlags::new().with(TcpFlags::ACK),
            ..TcpHeader::default()
        };
        let pkt = |ecn| PacketBuf::tcp(10, 20, ecn, 1, &hdr, 1400);
        let wire_bits = pkt(Ecn::Ect1).wire_len() as f64 * 8.0;
        let mean_gap_ns = BURST as f64 * wire_bits / (0.8 * RATE_BPS) * 1e9;
        let mut rng = SimRng::new(seed);
        Rig {
            router: Router::new(RATE_BPS, 1 << 20, aqm, rng.derive(1)),
            pkts: [pkt(Ecn::Ect1), pkt(Ecn::NotEct)],
            gaps: (0..1024)
                .map(|_| Duration::from_nanos(rng.exponential(mean_gap_ns) as u64 + 1))
                .collect(),
            now: Instant::ZERO,
            next_burst: Instant::ZERO,
            offered: 0,
            delivered: 0,
        }
    }

    /// Offer `n` more packets (whole bursts), serving departures as
    /// they fall due.
    fn offer(&mut self, n: u64) {
        let target = self.offered + n;
        while self.offered < target {
            match self.router.next_departure() {
                Some(d) if d <= self.next_burst => self.now = d,
                _ => {
                    self.now = self.next_burst;
                    for k in 0..BURST {
                        self.router.enqueue(self.pkts[(k & 1) as usize], self.now);
                    }
                    self.offered += BURST;
                    self.next_burst =
                        self.now + self.gaps[(self.offered / BURST) as usize % self.gaps.len()];
                }
            }
            self.delivered += black_box(self.router.poll(self.now)).len() as u64;
        }
    }
}

pub fn run(budget: Budget, seed: u64) -> Vec<(&'static str, f64)> {
    let mut dualpi2 = Rig::new(RouterAqm::DualPi2(DualPi2::default()), seed);
    // RED on sojourn with thresholds inside what a burst builds (a
    // 32-packet train is 3.9 ms of queue), so marking and Not-ECT
    // dropping both run.
    let red = Red::with_params(Duration::from_millis(1), Duration::from_millis(5), 0.1);
    let mut red = Rig::new(RouterAqm::ClassicEcn(red), seed);

    dualpi2.offer(EXACT_PKTS);
    red.offer(EXACT_PKTS);
    let drops = dualpi2.router.drops + red.router.drops;
    let drop_pct = drops as f64 * 100.0 / (dualpi2.offered + red.offered) as f64;
    assert!(dualpi2.delivered > 0 && red.delivered > 0 && red.router.marks > 0);

    let per_pkt = |rig: &mut Rig| {
        let [ns] = measure(budget, |iters| {
            let before = rig.offered;
            [(timed(|| rig.offer(iters)), rig.offered - before)]
        });
        ns
    };
    let (dualpi2_ns, red_ns) = (per_pkt(&mut dualpi2), per_pkt(&mut red));
    vec![
        ("aqm.router.dualpi2_ns_per_pkt", dualpi2_ns),
        ("aqm.router.red_ns_per_pkt", red_ns),
        ("aqm.router.drop_pct", drop_pct),
    ]
}
