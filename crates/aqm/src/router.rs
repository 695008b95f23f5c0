//! A rate-served bottleneck router with a pluggable AQM: the wired
//! "L4S+" router of Fig. 1 and the mid-path middlebox whose rate change
//! shifts the bottleneck in Fig. 2.

use std::collections::VecDeque;

use l4span_net::{Ecn, PacketBuf};
use l4span_sim::{Duration, Instant, SimRng};

use crate::codel::CoDel;
use crate::dualpi2::DualPi2;
use crate::red::Red;
use crate::Verdict;

/// The AQM a [`Router`] runs.
#[derive(Debug, Clone)]
pub enum RouterAqm {
    /// Plain tail-drop FIFO with a byte limit.
    Droptail,
    /// RFC 9332 dual-queue coupled AQM.
    DualPi2(DualPi2),
    /// CoDel / ECN-CoDel single queue.
    CoDel(CoDel),
    /// RFC 3168 classic-ECN single queue: RED-style marking on one
    /// shared FIFO that treats `ECT(1)` exactly like `ECT(0)` and drops
    /// instead of marking for Not-ECT. The impairment subsystem's legacy
    /// hop where L4S and classic flows collide.
    ClassicEcn(Red),
}

#[derive(Debug)]
struct Queued {
    pkt: PacketBuf,
    enqueued_at: Instant,
}

/// A fixed-rate output port with a (dual) queue and an AQM.
#[derive(Debug)]
pub struct Router {
    rate_bps: f64,
    byte_limit: usize,
    aqm: RouterAqm,
    /// L-queue (ECT(1)/CE) — only used with DualPi2.
    l_queue: VecDeque<Queued>,
    /// Classic / everything queue.
    c_queue: VecDeque<Queued>,
    l_bytes: usize,
    c_bytes: usize,
    /// The packet currently on the wire and when it finishes.
    in_service: Option<(PacketBuf, Instant)>,
    /// When the wire last fell silent (RED idle-decay anchor).
    last_service_end: Instant,
    rng: SimRng,
    /// Cumulative drops (tail + AQM).
    pub drops: u64,
    /// Cumulative CE marks applied.
    pub marks: u64,
}

impl Router {
    /// Create a router serving at `rate_bps` with the given queue cap.
    pub fn new(rate_bps: f64, byte_limit: usize, aqm: RouterAqm, rng: SimRng) -> Router {
        Router {
            rate_bps,
            byte_limit,
            aqm,
            l_queue: VecDeque::new(),
            c_queue: VecDeque::new(),
            l_bytes: 0,
            c_bytes: 0,
            in_service: None,
            last_service_end: Instant::ZERO,
            rng,
            drops: 0,
            marks: 0,
        }
    }

    /// Change the service rate mid-run (the Fig. 2 bottleneck shift).
    pub fn set_rate(&mut self, rate_bps: f64) {
        self.rate_bps = rate_bps;
    }

    /// Current service rate.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// Total queued bytes (both queues, not counting the wire).
    pub fn queued_bytes(&self) -> usize {
        self.l_bytes + self.c_bytes
    }

    fn is_l4s_pkt(p: &PacketBuf) -> bool {
        matches!(p.ecn(), Ecn::Ect1 | Ecn::Ce)
    }

    /// Offer a packet to the queue. Must be followed by `poll` to collect
    /// departures.
    pub fn enqueue(&mut self, pkt: PacketBuf, now: Instant) {
        if self.queued_bytes() + pkt.wire_len() > self.byte_limit {
            self.drops += 1;
            return;
        }
        let use_l = matches!(self.aqm, RouterAqm::DualPi2(_)) && Self::is_l4s_pkt(&pkt);
        let q = Queued {
            pkt,
            enqueued_at: now,
        };
        if use_l {
            self.l_bytes += q.pkt.wire_len();
            self.l_queue.push_back(q);
        } else {
            self.c_bytes += q.pkt.wire_len();
            self.c_queue.push_back(q);
        }
    }

    fn serialization(&self, pkt: &PacketBuf) -> Duration {
        Duration::from_secs_f64(pkt.wire_len() as f64 * 8.0 / self.rate_bps)
    }

    /// Collect packets whose transmission completed by `now`, starting
    /// new transmissions as the wire frees up.
    pub fn poll(&mut self, now: Instant) -> Vec<PacketBuf> {
        let mut out = Vec::new();
        loop {
            // Finish the wire.
            if let Some((_, done)) = &self.in_service {
                if *done <= now {
                    let (pkt, done) = self.in_service.take().expect("checked");
                    self.last_service_end = done;
                    out.push(pkt);
                } else {
                    break;
                }
            }
            // Start the next transmission.
            if self.in_service.is_some() {
                break;
            }
            // DualPi2's PI controller ticks on the classic sojourn.
            if let RouterAqm::DualPi2(dp) = &mut self.aqm {
                let qd = self
                    .c_queue
                    .front()
                    .map(|q| now.saturating_since(q.enqueued_at))
                    .unwrap_or(Duration::ZERO);
                dp.update(qd, now);
            }
            // DualPi2 scheduling: time-shifted FIFO (RFC 9332 §4.1) — the
            // L-queue head gets a 50 ms (RFC default) head start: it wins
            // unless the classic head has waited 50 ms longer, which
            // keeps L latency at its step target without ever starving
            // the classic queue the way strict priority would.
            let shift = Duration::from_millis(50);
            let from_l = match (self.l_queue.front(), self.c_queue.front()) {
                (Some(l), Some(c)) => {
                    l.enqueued_at.saturating_since(Instant::ZERO)
                        <= c.enqueued_at.saturating_since(Instant::ZERO) + shift
                }
                (Some(_), None) => true,
                _ => false,
            };
            let Some(mut q) = (if from_l {
                self.l_queue.pop_front()
            } else {
                self.c_queue.pop_front()
            }) else {
                break;
            };
            if from_l {
                self.l_bytes -= q.pkt.wire_len();
            } else {
                self.c_bytes -= q.pkt.wire_len();
            }
            let sojourn = now.saturating_since(q.enqueued_at);
            let verdict = match &mut self.aqm {
                RouterAqm::Droptail => Verdict::Pass,
                RouterAqm::DualPi2(dp) => dp.decide(q.pkt.ecn(), sojourn, &mut self.rng),
                RouterAqm::CoDel(cd) => {
                    let v = cd.decide(sojourn, now);
                    // CoDel in ECN mode can only mark ECT packets.
                    if v == Verdict::Mark && !q.pkt.ecn().is_ect() {
                        Verdict::Drop
                    } else {
                        v
                    }
                }
                RouterAqm::ClassicEcn(red) => {
                    // Classic RED idle handling: if the wire sat silent
                    // before this packet arrived, decay the EWMA as if
                    // the gap's worth of typical packets had flowed with
                    // zero sojourn, so a long-drained burst isn't still
                    // punishing fresh traffic.
                    let idle = q.enqueued_at.saturating_since(self.last_service_end);
                    let typical = 1500.0 * 8.0 / self.rate_bps;
                    red.decay_idle(idle.as_secs_f64() / typical);
                    let v = red.decide(sojourn, &mut self.rng);
                    // RFC 3168 §6.1.1: mark ECT packets, drop the rest.
                    if v == Verdict::Mark && !q.pkt.ecn().is_ect() {
                        Verdict::Drop
                    } else {
                        v
                    }
                }
            };
            match verdict {
                Verdict::Drop => {
                    self.drops += 1;
                    continue;
                }
                Verdict::Mark => {
                    self.marks += 1;
                    let ce = q.pkt.ecn().remark_to(Ecn::Ce);
                    q.pkt.set_ecn(ce);
                }
                Verdict::Pass => {}
            }
            let done = now + self.serialization(&q.pkt);
            self.in_service = Some((q.pkt, done));
        }
        out
    }

    /// When the packet on the wire finishes, if any (the harness's next
    /// poll time).
    pub fn next_departure(&self) -> Option<Instant> {
        self.in_service.as_ref().map(|&(_, d)| d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l4span_net::TcpHeader;

    fn pkt(ecn: Ecn, len: usize) -> PacketBuf {
        PacketBuf::tcp(1, 2, ecn, 0, &TcpHeader::default(), len)
    }

    fn drain(r: &mut Router, until: Instant) -> Vec<PacketBuf> {
        let mut out = Vec::new();
        out.extend(r.poll(Instant::ZERO));
        while let Some(d) = r.next_departure() {
            if d > until {
                break;
            }
            out.extend(r.poll(d));
        }
        out.extend(r.poll(until));
        out
    }

    #[test]
    fn serves_at_configured_rate() {
        // 12 Mbit/s, 1500-byte packets => 1 ms each.
        let mut r = Router::new(12e6, 1 << 20, RouterAqm::Droptail, SimRng::new(1));
        for _ in 0..10 {
            r.enqueue(pkt(Ecn::NotEct, 1460), Instant::ZERO);
        }
        let out = drain(&mut r, Instant::from_millis(5));
        assert_eq!(out.len(), 5, "5 ms at 1 ms/packet");
        let out2 = drain(&mut r, Instant::from_millis(10));
        assert_eq!(out2.len() + out.len(), 10);
    }

    #[test]
    fn droptail_honours_byte_limit() {
        let mut r = Router::new(1e6, 3000, RouterAqm::Droptail, SimRng::new(1));
        for _ in 0..5 {
            r.enqueue(pkt(Ecn::NotEct, 1460), Instant::ZERO);
        }
        assert_eq!(r.drops, 3, "only two 1500-byte packets fit");
    }

    #[test]
    fn dualpi2_marks_l4s_sojourn() {
        // Slow link so queue builds: L-queue packets see > 1 ms sojourn.
        let mut r = Router::new(
            1e6,
            1 << 20,
            RouterAqm::DualPi2(DualPi2::default()),
            SimRng::new(1),
        );
        for _ in 0..20 {
            r.enqueue(pkt(Ecn::Ect1, 1460), Instant::ZERO);
        }
        let out = drain(&mut r, Instant::from_millis(300));
        assert_eq!(out.len(), 20);
        let marked = out.iter().filter(|p| p.ecn() == Ecn::Ce).count();
        assert!(marked >= 18, "all but the first see >1 ms: {marked}");
    }

    #[test]
    fn dualpi2_gives_l_queue_priority() {
        let mut r = Router::new(
            1.2e7,
            1 << 20,
            RouterAqm::DualPi2(DualPi2::default()),
            SimRng::new(1),
        );
        // Fill classic first, then L: L packets should still come out
        // ahead of most classic ones.
        for _ in 0..5 {
            r.enqueue(pkt(Ecn::Ect0, 1460), Instant::ZERO);
        }
        for _ in 0..5 {
            r.enqueue(pkt(Ecn::Ect1, 1460), Instant::ZERO);
        }
        let out = drain(&mut r, Instant::from_millis(20));
        // First out was already on the wire (classic), but the next four
        // should be L-queue.
        let l4s_positions: Vec<usize> = out
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p.ecn(), Ecn::Ect1 | Ecn::Ce))
            .map(|(i, _)| i)
            .collect();
        assert!(
            l4s_positions.iter().all(|&i| i <= 5),
            "L4S packets served first: {l4s_positions:?}"
        );
    }

    #[test]
    fn codel_marks_under_standing_queue() {
        let mut r = Router::new(
            2e6,
            1 << 20,
            RouterAqm::CoDel(CoDel::new(true)),
            SimRng::new(1),
        );
        // Feed a standing queue for 400 ms.
        let mut out = Vec::new();
        for step in 0..400u64 {
            let now = Instant::from_millis(step);
            r.enqueue(pkt(Ecn::Ect0, 1460), now);
            out.extend(r.poll(now));
        }
        let marked = out.iter().filter(|p| p.ecn() == Ecn::Ce).count();
        assert!(marked > 0, "ECN-CoDel must mark a standing queue");
        assert_eq!(r.drops, 0, "and never drop ECT packets");
    }

    #[test]
    fn classic_ecn_hop_marks_ect1_like_ect0_and_drops_not_ect() {
        // A standing queue at the RFC 3168 hop must CE-mark ECT(1)
        // exactly as it would ECT(0) — the hop predates L4S — and can
        // only signal Not-ECT traffic by dropping.
        for (ecn, expect_marks) in [(Ecn::Ect1, true), (Ecn::Ect0, true), (Ecn::NotEct, false)] {
            let mut r = Router::new(
                2e6,
                1 << 20,
                RouterAqm::ClassicEcn(Red::default()),
                SimRng::new(1),
            );
            let mut out = Vec::new();
            for step in 0..400u64 {
                let now = Instant::from_millis(step);
                r.enqueue(pkt(ecn, 1460), now);
                out.extend(r.poll(now));
            }
            let marked = out.iter().filter(|p| p.ecn() == Ecn::Ce).count();
            if expect_marks {
                assert!(marked > 0, "{ecn:?}: standing queue must mark");
                assert_eq!(r.drops, 0, "{ecn:?}: ECT is marked, not dropped");
            } else {
                assert_eq!(marked, 0, "Not-ECT can never be CE-marked");
                assert!(r.drops > 0, "Not-ECT standing queue must drop");
            }
        }
    }

    #[test]
    fn classic_ecn_hop_shares_one_fifo() {
        // Unlike DualPi2 there is no L-queue: ECT(1) arrivals queue
        // strictly behind earlier classic arrivals.
        let mut r = Router::new(
            1.2e7,
            1 << 20,
            RouterAqm::ClassicEcn(Red::default()),
            SimRng::new(1),
        );
        for _ in 0..5 {
            r.enqueue(pkt(Ecn::Ect0, 1460), Instant::ZERO);
        }
        for _ in 0..5 {
            r.enqueue(pkt(Ecn::Ect1, 1460), Instant::ZERO);
        }
        let out = drain(&mut r, Instant::from_millis(20));
        let first_l4s = out
            .iter()
            .position(|p| p.ecn() == Ecn::Ect1)
            .expect("l4s packets depart");
        assert!(
            first_l4s >= 5,
            "FIFO order: all 5 classic packets depart first (got {first_l4s})"
        );
    }

    #[test]
    fn rate_change_shifts_bottleneck() {
        let mut r = Router::new(40e6, 1 << 22, RouterAqm::Droptail, SimRng::new(1));
        r.enqueue(pkt(Ecn::NotEct, 1460), Instant::ZERO);
        r.poll(Instant::ZERO);
        let fast = r.next_departure().unwrap();
        let mut r2 = Router::new(40e6, 1 << 22, RouterAqm::Droptail, SimRng::new(1));
        r2.set_rate(20e6);
        r2.enqueue(pkt(Ecn::NotEct, 1460), Instant::ZERO);
        r2.poll(Instant::ZERO);
        let slow = r2.next_departure().unwrap();
        assert!(slow > fast);
    }
}
