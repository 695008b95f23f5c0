//! The wired-only topology of Fig. 2(a): content server(s) → an L4S
//! (DualPi2) router at a fixed line rate → fixed-delay link → client.
//! Demonstrates the status-quo baseline L4Span wants to extend into the
//! RAN: Prague at line rate with ~1 ms queue, CUBIC at the classic
//! ~15–20 ms PI target.

use std::collections::HashMap;

use l4span_aqm::{DualPi2, Router, RouterAqm};
use l4span_cc::tcp::TcpConfig;
use l4span_cc::{CcKind, TcpReceiver, TcpSender};
use l4span_net::{FiveTuple, PacketBuf};
use l4span_sim::{Duration, EventQueue, Instant, SimRng};

use crate::metrics::Report;

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
    AtRouter { pkt: PacketBuf },
    RouterPoll,
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

/// Run the wired scenario.
pub fn run_wired(cfg: WiredConfig) -> Report {
    let root = SimRng::new(cfg.seed);
    // Wake-up keys: flow `f`'s sender timer is `f`, the router's poll
    // comes after the flows.
    let router_key = cfg.flows.len();
    let mut queue: EventQueue<Event> = EventQueue::with_wakeups(0, 0..=router_key);
    let mut router = Router::new(
        cfg.rate_bps,
        2 << 20,
        RouterAqm::DualPi2(DualPi2::default()),
        root.derive(1),
    );
    let mut flows = Vec::new();
    let mut tuple_to_flow = HashMap::new();
    for (f, (cc, start)) in cfg.flows.iter().enumerate() {
        let controller = cc.make(1400);
        let mode = controller.ecn_mode();
        let tcfg = TcpConfig::new(0x0A00_0000 + f as u32, 0xC0A8_0000, 443, 50_000 + f as u16);
        let tuple = tcfg.downlink_tuple();
        tuple_to_flow.insert(tuple, f);
        flows.push(WFlow {
            sender: TcpSender::new(tcfg, controller),
            receiver: TcpReceiver::new(tcfg, mode),
            sent_at: HashMap::new(),
        });
        queue.schedule(*start, Event::Start { flow: f });
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
            queue.schedule(now + one_way, Event::AtRouter { pkt });
        }
    }

    fn drain_router(
        queue: &mut EventQueue<Event>,
        router: &mut Router,
        router_key: usize,
        tuple_to_flow: &HashMap<FiveTuple, usize>,
        one_way: Duration,
        now: Instant,
    ) {
        for pkt in router.poll(now) {
            if let Some(&flow) = pkt.five_tuple().and_then(|t| tuple_to_flow.get(&t)) {
                queue.schedule(now + one_way, Event::AtClient { flow, pkt });
            }
        }
        if let Some(at) = router.next_departure() {
            queue.arm(router_key, at, || Event::RouterPoll);
        }
    }

    fn arm_timer(queue: &mut EventQueue<Event>, f: &WFlow, flow: usize) {
        if let Some(at) = f.sender.next_activity() {
            queue.arm(flow, at, || Event::Timer { flow });
        }
    }

    // Sender releases, reused across events (`route_dl` drains it).
    let mut outs = Vec::new();
    while let Some(at) = queue.next_at() {
        if at > end {
            break;
        }
        let (now, ev) = queue.pop().expect("peeked");
        match ev {
            Event::Start { flow } => {
                let syn = flows[flow].receiver.start(now);
                // Client→server path doesn't cross the bottleneck.
                queue.schedule(now + cfg.one_way * 2, Event::AtServer { flow, pkt: syn });
            }
            Event::AtRouter { pkt } => {
                router.enqueue(pkt, now);
                drain_router(
                    &mut queue,
                    &mut router,
                    router_key,
                    &tuple_to_flow,
                    cfg.one_way,
                    now,
                );
            }
            Event::RouterPoll => drain_router(
                &mut queue,
                &mut router,
                router_key,
                &tuple_to_flow,
                cfg.one_way,
                now,
            ),
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
                    queue.schedule(now + cfg.one_way * 2, Event::AtServer { flow, pkt: ack });
                }
            }
            Event::AtServer { flow, pkt } => {
                flows[flow].sender.on_packet_into(&pkt, now, &mut outs);
                if let Some(srtt) = flows[flow].sender.srtt() {
                    rtt_ms[flow].push(srtt.as_millis_f64());
                    rtt_at_s[flow].push(now.as_secs_f64());
                }
                route_dl(&mut queue, &mut flows, flow, &mut outs, cfg.one_way, now);
                arm_timer(&mut queue, &flows[flow], flow);
            }
            Event::Timer { flow } => {
                flows[flow].sender.poll_into(now, &mut outs);
                route_dl(&mut queue, &mut flows, flow, &mut outs, cfg.one_way, now);
                arm_timer(&mut queue, &flows[flow], flow);
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
    }
}
