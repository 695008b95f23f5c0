//! `ran`: a backlogged cell (gNB slot tick, downlink enqueue, UE-side
//! transport-block ingest), the RLC entities on their own, the MAC
//! allocators and the fading channel.

use std::hint::black_box;

use l4span_net::{Ecn, PacketBuf, TcpFlags, TcpHeader};
use l4span_ran::config::SlotRole;
use l4span_ran::ids::Qfi;
use l4span_ran::mac::{self, AllocScratch, Candidate};
use l4span_ran::rlc::{RlcRx, RlcStatus, RlcTx, Segment};
use l4span_ran::ue::AppDelivery;
use l4span_ran::{
    CellConfig, ChannelProfile, DrbId, FadingChannel, Gnb, RlcMode, SchedulerKind, SlotOutput,
    UeId, UeStack,
};
use l4span_sim::{Instant, SimRng};

use super::{measure, measure_op, timed, Budget};

const DRB: DrbId = DrbId(0);

fn data_packet(ue: usize) -> PacketBuf {
    let hdr = TcpHeader {
        src_port: 443,
        dst_port: 50_000,
        flags: TcpFlags::new().with(TcpFlags::ACK),
        ..TcpHeader::default()
    };
    PacketBuf::tcp(
        0x0A00_0001,
        0xC0A8_0000 + ue as u32,
        Ecn::Ect1,
        1,
        &hdr,
        1400,
    )
}

/// The canned scenarios' UE population: alternating pedestrian and
/// vehicular channels, mean SNR spread over 19–27 dB.
fn channel(i: usize, cfg: &CellConfig, rng: &mut SimRng) -> FadingChannel {
    let profile = if i.is_multiple_of(2) {
        ChannelProfile::Pedestrian
    } else {
        ChannelProfile::Vehicular
    };
    let snr = 19.0 + 8.0 * (i as f64 * 0.618_033_988_7).fract();
    FadingChannel::new(profile, snr, cfg.carrier_hz, &mut rng.derive(i as u64))
}

/// One cell kept backlogged: every UE's RLC queue is topped up before it
/// runs dry, transport blocks go to real UE stacks, and their AM status
/// reports come back on uplink slots so acknowledged SDUs are released.
struct Cell {
    cfg: CellConfig,
    gnb: Gnb,
    ues: Vec<UeStack>,
    slot: u64,
    out: SlotOutput,
    app: Vec<AppDelivery>,
    ul_pkts: Vec<PacketBuf>,
    statuses: Vec<(DrbId, RlcStatus)>,
}

/// Per-batch section totals of [`Cell::slots`].
#[derive(Default)]
struct CellNs {
    slot: (u64, u64),
    enqueue: (u64, u64),
    on_tb: (u64, u64),
}

impl Cell {
    fn new(n_ues: usize, scheduler: SchedulerKind, seed: u64) -> Cell {
        let cfg = CellConfig::default();
        let mut rng = SimRng::new(seed);
        let mut gnb = Gnb::new(cfg.clone(), scheduler, rng.derive(1));
        let mut ues = Vec::with_capacity(n_ues);
        for i in 0..n_ues {
            let id = UeId(i as u16);
            gnb.add_ue(id, channel(i, &cfg, &mut rng), &[(DRB, RlcMode::Am)]);
            ues.push(UeStack::new(
                id,
                &[(DRB, RlcMode::Am)],
                cfg.rlc_status_period,
                cfg.ue_internal_delay,
                cfg.ul_sr_delay_max,
                rng.derive(1000 + i as u64),
            ));
        }
        Cell {
            cfg,
            gnb,
            ues,
            slot: 0,
            out: SlotOutput::default(),
            app: Vec::new(),
            ul_pkts: Vec::new(),
            statuses: Vec::new(),
        }
    }

    /// Advance `n` slots.
    fn slots(&mut self, n: u64) -> CellNs {
        let mut ns = CellNs::default();
        for _ in 0..n {
            let now = Instant::ZERO + self.cfg.slot_duration * self.slot;
            self.slot += 1;

            for i in 0..self.ues.len() {
                let id = UeId(i as u16);
                if self.gnb.rlc_queue_len(id, DRB) >= 64 {
                    continue;
                }
                let pkt = data_packet(i);
                ns.enqueue.0 += timed(|| {
                    for _ in 0..64 {
                        black_box(self.gnb.enqueue_downlink(id, Qfi(0), pkt, now));
                    }
                });
                ns.enqueue.1 += 64;
            }

            ns.slot.0 += timed(|| self.gnb.on_slot_into(now, &mut self.out));
            ns.slot.1 += 1;

            ns.on_tb.1 += self.out.deliveries.len() as u64;
            ns.on_tb.0 += timed(|| {
                for d in self.out.deliveries.drain(..) {
                    let ue = &mut self.ues[usize::from(d.tb.ue.0)];
                    let emptied = ue.on_transport_block_into(d.tb, d.deliver_at, &mut self.app);
                    self.gnb.recycle_segments(emptied);
                }
            });
            black_box(&self.app);
            self.app.clear();

            if self.out.role == Some(SlotRole::Uplink) {
                for (i, ue) in self.ues.iter_mut().enumerate() {
                    ue.on_uplink_slot_into(now, &mut self.ul_pkts, &mut self.statuses);
                    for (drb, st) in self.statuses.drain(..) {
                        black_box(self.gnb.on_rlc_status(UeId(i as u16), drb, &st, now));
                    }
                }
                self.ul_pkts.clear();
            }
        }
        ns
    }
}

/// ns per slot tick (and, for the first cell, per enqueued SDU and per
/// ingested transport block).
fn cell(budget: Budget, n_ues: usize, scheduler: SchedulerKind, seed: u64) -> [f64; 3] {
    let mut c = Cell::new(n_ues, scheduler, seed);
    c.slots(2_000); // one simulated second: HARQ, ARQ and PF averages settle
    measure(budget, |iters| {
        let ns = c.slots(iters);
        [ns.slot, ns.enqueue, ns.on_tb]
    })
}

/// `RlcTx::pull_with` feeding `RlcRx::on_segment_into`: ns per segment
/// on each side. Pull budgets cycle through transport-block sizes from a
/// cell-edge share to a whole good slot, so SDUs get segmented.
fn rlc(budget: Budget) -> [f64; 2] {
    let cfg = CellConfig::default();
    let mut tx = RlcTx::new(RlcMode::Am, cfg.rlc_queue_sdus, cfg.segment_overhead);
    let mut rx = RlcRx::new(RlcMode::Am, cfg.rlc_status_period);
    let pkt = data_packet(0);
    let budgets = [700usize, 1_900, 3_300, 9_000, 600, 2_500];
    let (mut sn, mut pulls) = (0u64, 0u64);
    let mut segs: Vec<Segment> = Vec::new();
    let mut txed = Vec::new();
    let mut delivered = Vec::new();
    measure(budget, |iters| {
        let (mut pull_ns, mut rx_ns, mut n) = (0, 0, 0);
        while n < iters {
            let now = Instant::from_micros(500 * pulls);
            while tx.queue_len_sdus() < 32 {
                tx.enqueue(sn, pkt, now);
                sn += 1;
            }
            txed.clear();
            let b = budgets[pulls as usize % budgets.len()];
            pull_ns += timed(|| {
                black_box(tx.pull_with(b, now, &mut txed, |s| segs.push(s)));
            });
            pulls += 1;
            n += segs.len() as u64;
            rx_ns += timed(|| {
                for s in segs.drain(..) {
                    rx.on_segment_into(s, now, &mut delivered);
                }
            });
            black_box(&delivered);
            delivered.clear();
            // The receiver's status report releases acknowledged SDUs.
            if let Some(st) = rx.make_status(now) {
                black_box(tx.on_status(&st, now));
            }
        }
        [(pull_ns, n), (rx_ns, n)]
    })
}

/// The MAC allocators over a static candidate set of `n` backlogged UEs.
fn alloc(budget: Budget, n: usize, pf: bool, seed: u64) -> f64 {
    let mut rng = SimRng::new(seed).derive(n as u64);
    let cands: Vec<Candidate> = (0..n)
        .map(|i| Candidate {
            ue: UeId(i as u16),
            backlog: rng.range_u64(1_000, 2_000_000) as usize,
            bytes_per_rbg: rng.range_u64(60, 400) as usize,
            avg_throughput: rng.range_f64(50.0, 3_000.0),
        })
        .collect();
    let n_rbgs = CellConfig::default().n_rbgs();
    let mut scratch = AllocScratch::default();
    let mut grants = Vec::new();
    let mut cursor = 0usize;
    measure_op(budget, || {
        if pf {
            mac::allocate_proportional_fair_into(
                black_box(&cands),
                n_rbgs,
                &mut scratch,
                &mut grants,
            );
        } else {
            mac::allocate_round_robin_into(
                black_box(&cands),
                n_rbgs,
                &mut cursor,
                &mut scratch,
                &mut grants,
            );
        }
        black_box(&grants);
    })
}

pub fn run(budget: Budget, seed: u64) -> Vec<(&'static str, f64)> {
    let [slot_16_rr, enqueue, on_tb] = cell(budget, 16, SchedulerKind::RoundRobin, seed);
    let [slot_16_pf, ..] = cell(budget, 16, SchedulerKind::ProportionalFair, seed);
    let [slot_64_pf, ..] = cell(budget, 64, SchedulerKind::ProportionalFair, seed);
    let [tx_pull, rx_segment] = rlc(budget);

    let cfg = CellConfig::default();
    let ch = channel(1, &cfg, &mut SimRng::new(seed));
    let mut slot = 0u64;
    let snr = measure_op(budget, || {
        slot += 1;
        black_box(ch.snr_db(Instant::from_micros(500 * slot)));
    });

    vec![
        ("ran.gnb.slot_ns_16ue_rr", slot_16_rr),
        ("ran.gnb.slot_ns_16ue_pf", slot_16_pf),
        ("ran.gnb.slot_ns_64ue_pf", slot_64_pf),
        ("ran.gnb.enqueue_dl_ns", enqueue),
        ("ran.rlc.tx_pull_ns_per_seg", tx_pull),
        ("ran.rlc.rx_segment_ns", rx_segment),
        ("ran.mac.alloc_rr_ns_16", alloc(budget, 16, false, seed)),
        ("ran.mac.alloc_pf_ns_16", alloc(budget, 16, true, seed)),
        ("ran.mac.alloc_pf_ns_64", alloc(budget, 64, true, seed)),
        ("ran.channel.snr_ns", snr),
        ("ran.ue.on_tb_ns", on_tb),
    ]
}
