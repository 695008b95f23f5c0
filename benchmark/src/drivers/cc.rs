//! `cc`: a TCP sender/receiver pair per congestion controller, and the
//! FEC/NADA media endpoints, each over a driver-owned pipe.

use std::collections::VecDeque;

use l4span_cc::tcp::TcpConfig;
use l4span_cc::{CcKind, FecFeedback, FecMediaReceiver, FecMediaSender, TcpReceiver, TcpSender};
use l4span_net::{Ecn, PacketBuf};
use l4span_sim::{Duration, Instant, SimRng};

use super::{measure, timed, Budget};

const ONE_WAY: Duration = Duration::from_millis(10);
/// Bottleneck rate of the TCP pipe.
const RATE_BPS: f64 = 50e6;
/// Step-marking threshold for ECT(1) at the bottleneck, and the queue
/// delay at which it tail-drops.
const MARK_AT: Duration = Duration::from_millis(1);
const DROP_AT: Duration = Duration::from_millis(50);
/// A pipe is rebuilt (untimed) after this many segments, long before
/// the 32-bit wire sequence space wraps.
const SEGS_PER_PIPE: u64 = 1_000_000;
/// Segments of the fixed pre-pass `polls_per_seg` is read from; also the
/// warm-up (handshake, slow start) of every rebuilt pipe.
const EXACT_SEGS: u64 = 50_000;

/// `TcpSender` ↔ `TcpReceiver` across a rate-limited, step-marking,
/// tail-dropping bottleneck plus a fixed delay each way; stepped from
/// event to event via `next_activity` / `poll_into` / `on_packet_into`.
struct TcpPipe {
    sender: TcpSender,
    receiver: TcpReceiver,
    /// Data in flight to the receiver / ACKs in flight to the sender,
    /// each in arrival order.
    fwd: VecDeque<(Instant, PacketBuf)>,
    rev: VecDeque<(Instant, PacketBuf)>,
    busy_until: Instant,
    now: Instant,
    out: Vec<PacketBuf>,
    segs: u64,
    polls: u64,
}

impl TcpPipe {
    fn new(kind: CcKind) -> TcpPipe {
        let cfg = TcpConfig::new(0x0A00_0001, 0xC0A8_0000, 443, 50_000);
        let cc = kind.make(cfg.mss);
        let mode = cc.ecn_mode();
        let mut receiver = TcpReceiver::new(cfg, mode);
        let syn = receiver.start(Instant::ZERO);
        TcpPipe {
            sender: TcpSender::new(cfg, cc),
            receiver,
            fwd: VecDeque::new(),
            rev: VecDeque::from([(Instant::ZERO + ONE_WAY, syn)]),
            busy_until: Instant::ZERO,
            now: Instant::ZERO,
            out: Vec::new(),
            segs: 0,
            polls: 0,
        }
    }

    /// Put the sender's output through the bottleneck.
    fn transmit(&mut self) {
        for mut pkt in self.out.drain(..) {
            let start = self.busy_until.max(self.now);
            let waited = start.saturating_since(self.now);
            if waited > DROP_AT {
                continue;
            }
            if waited > MARK_AT && pkt.ecn() == Ecn::Ect1 {
                pkt.set_ecn(Ecn::Ce);
            }
            self.busy_until =
                start + Duration::from_secs_f64(pkt.wire_len() as f64 * 8.0 / RATE_BPS);
            self.fwd.push_back((self.busy_until + ONE_WAY, pkt));
        }
    }

    /// Process events until `n` more data segments reached the receiver.
    fn run(&mut self, n: u64) {
        let target = self.segs + n;
        while self.segs < target {
            let data = self.fwd.front().map_or(Instant::MAX, |e| e.0);
            let ack = self.rev.front().map_or(Instant::MAX, |e| e.0);
            let timer = self
                .sender
                .next_activity()
                .map_or(Instant::MAX, |t| t.max(self.now));
            let at = data.min(ack).min(timer);
            assert!(at != Instant::MAX, "TCP pipe ran dry");
            self.now = at;
            if at == data {
                let (_, pkt) = self.fwd.pop_front().expect("front exists");
                self.segs += u64::from(pkt.payload_len() > 0);
                if let Some(a) = self.receiver.on_packet(&pkt, at) {
                    self.rev.push_back((at + ONE_WAY, a));
                }
            } else if at == ack {
                let (_, pkt) = self.rev.pop_front().expect("front exists");
                self.sender.on_packet_into(&pkt, at, &mut self.out);
                self.transmit();
            } else {
                self.polls += 1;
                self.sender.poll_into(at, &mut self.out);
                self.transmit();
            }
        }
    }
}

/// Host ns per delivered segment for one controller, plus the exact
/// sender-timer polls per segment over the fixed pre-pass.
fn tcp(budget: Budget, kind: CcKind) -> (f64, f64) {
    let fresh = || {
        let mut p = TcpPipe::new(kind);
        p.run(EXACT_SEGS);
        p
    };
    let mut pipe = fresh();
    let polls_per_seg = pipe.polls as f64 / pipe.segs as f64;
    let [ns] = measure(budget, |iters| {
        let (mut left, mut ns) = (iters, 0);
        while left > 0 {
            if pipe.segs >= SEGS_PER_PIPE {
                pipe = fresh();
            }
            let n = left.min(SEGS_PER_PIPE - pipe.segs);
            ns += timed(|| pipe.run(n));
            left -= n;
        }
        [(ns, iters)]
    });
    (ns, polls_per_seg)
}

/// The uplink-XR media pair over a fixed-delay pipe that loses 2 % of
/// media packets (seeded); feedback returns lossless.
struct FecPipe {
    sender: FecMediaSender,
    receiver: FecMediaReceiver,
    fwd: VecDeque<(Instant, u8, PacketBuf)>,
    rev: VecDeque<(Instant, FecFeedback)>,
    rng: SimRng,
    now: Instant,
    out: Vec<(u8, PacketBuf)>,
    received: u64,
}

impl FecPipe {
    fn new(seed: u64) -> FecPipe {
        let (ue, server) = (0xC0A8_0000, 0x0A00_0001);
        FecPipe {
            // The XR upload envelope of `scenario::xr_bonding_cell`:
            // 1.2–20 Mbit/s at 60 fps, one leg.
            sender: FecMediaSender::new(
                ue,
                server,
                50_000,
                443,
                1.2e6 / 8.0,
                4e6 / 8.0,
                20e6 / 8.0,
                60.0,
                1,
            ),
            receiver: FecMediaReceiver::new(server, ue, 443, 50_000),
            fwd: VecDeque::new(),
            rev: VecDeque::new(),
            rng: SimRng::new(seed),
            now: Instant::ZERO,
            out: Vec::new(),
            received: 0,
        }
    }

    fn run(&mut self, n: u64) {
        let target = self.received + n;
        while self.received < target {
            let data = self.fwd.front().map_or(Instant::MAX, |e| e.0);
            let fb = self.rev.front().map_or(Instant::MAX, |e| e.0);
            let timer = self.sender.next_activity().max(self.now);
            let at = data.min(fb).min(timer);
            self.now = at;
            if at == data {
                let (_, leg, pkt) = self.fwd.pop_front().expect("front exists");
                self.received += 1;
                if let Some((_, f)) = self.receiver.on_packet(&pkt, leg, at) {
                    self.rev.push_back((at + ONE_WAY, f));
                }
            } else if at == fb {
                let (_, f) = self.rev.pop_front().expect("front exists");
                self.sender.on_feedback(&f, at);
            } else {
                self.sender.poll_into(at, &mut self.out);
                for (leg, pkt) in self.out.drain(..) {
                    if !self.rng.chance(0.02) {
                        self.fwd.push_back((at + ONE_WAY, leg, pkt));
                    }
                }
                // Flush feedback the prohibit interval held back.
                if let Some((_, f)) = self.receiver.poll(at) {
                    self.rev.push_back((at + ONE_WAY, f));
                }
            }
        }
    }
}

pub fn run(budget: Budget, seed: u64) -> Vec<(&'static str, f64)> {
    let (cubic, _) = tcp(budget, CcKind::Cubic);
    let (prague, polls_per_seg) = tcp(budget, CcKind::Prague);
    let (bbr2, _) = tcp(budget, CcKind::Bbr2);
    let mut fec = FecPipe::new(seed);
    fec.run(2_000);
    let [fec_ns] = measure(budget, |iters| [(timed(|| fec.run(iters)), iters)]);
    vec![
        ("cc.tcp.cubic_ns_per_seg", cubic),
        ("cc.tcp.prague_ns_per_seg", prague),
        ("cc.tcp.bbr2_ns_per_seg", bbr2),
        ("cc.tcp.polls_per_seg", polls_per_seg),
        ("cc.fec.ns_per_pkt", fec_ns),
    ]
}
