//! Allocation-freedom proof for the steady-state packet path.
//!
//! PR 2's claim is that a simulated packet, once the world is warm,
//! costs **zero heap allocations** end to end on the downlink data path:
//! construction (inline `[u8; 80]` header store), the L4Span ECN / TCP
//! rewrites (in-place), the RLC clone into segments (`PacketBuf: Copy`),
//! and the event-queue schedule/pop cycle (events by value in a
//! pre-sized node slab). This test installs a counting global allocator
//! and asserts exactly that, operation by operation — and then (steps 8
//! to 11) for whole worlds, where nothing can be left out: the
//! allocations a run makes per *additional* delivered packet, downlink,
//! uplink and bonded, what a marker-off cell's deep queues add as the
//! run gets longer, what a longer WAN's deeper event queue adds, and
//! what each extra replica of a cell-major world adds. Step 12 bounds
//! the bytes a whole run of the paper's cell holds at once.
//!
//! Steps 1 to 7 count the test thread's own allocations; the whole
//! worlds of steps 8 to 11 run replicas on spawned threads and count
//! process-wide; step 12 runs on the test thread and counts its live
//! bytes. Everything runs in ONE `#[test]` so that no other test
//! of this binary allocates during those steps.

use l4span::net::{Ecn, PacketBuf, TcpFlags, TcpHeader};
use l4span::ran::config::RlcMode;
use l4span::ran::rlc::{RlcStatus, RlcTx, Segment, TxRecord};
use l4span::ran::{DrbId, UeId, UeStack};
use l4span::sim::{Duration, EventQueue, Instant, SimRng};
use l4span_alloctrack::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Allocation requests this thread made while running `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC.thread_count();
    let r = f();
    (ALLOC.thread_count() - before, r)
}

/// Allocation requests any thread made while running `f`.
fn process_allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC.count();
    let r = f();
    (ALLOC.count() - before, r)
}

fn data_packet(ident: u16, payload: usize) -> PacketBuf {
    let hdr = TcpHeader {
        src_port: 443,
        dst_port: 50_000,
        seq: 1000,
        ack: 7,
        flags: TcpFlags::new().with(TcpFlags::ACK),
        ..TcpHeader::default()
    };
    PacketBuf::tcp(0x0A00_0001, 0xC0A8_0001, Ecn::Ect1, ident, &hdr, payload)
}

#[test]
fn steady_state_downlink_path_makes_zero_allocations() {
    // --- 1. Packet construction, copy, and in-place rewrites ------------
    let (n, mut pkt) = allocs_during(|| data_packet(1, 1400));
    assert_eq!(n, 0, "PacketBuf::tcp must not allocate");

    let (n, copy) = allocs_during(|| pkt);
    assert_eq!(n, 0, "PacketBuf copy (the RLC clone) must not allocate");
    assert_eq!(copy, pkt);

    let (n, _) = allocs_during(|| {
        pkt.set_ecn(Ecn::Ce);
        pkt.ecn()
    });
    assert_eq!(n, 0, "ECN rewrite (L4Span marking) must not allocate");

    let (n, _) = allocs_during(|| {
        pkt.update_tcp(|h| h.flags.set(TcpFlags::ECE));
    });
    assert_eq!(n, 0, "in-flight TCP rewrite must not allocate");

    let (n, _) = allocs_during(|| (pkt.five_tuple(), pkt.identification(), pkt.is_tcp_ack()));
    assert_eq!(n, 0, "hot-path accessors must not allocate");

    // --- 2. RLC segmentation cycle (UM: no retransmission store) --------
    let mut rlc = RlcTx::new(RlcMode::Um, 4096, 8);
    let mut txed: Vec<TxRecord> = Vec::with_capacity(64);
    let mut segs: Vec<Segment> = Vec::with_capacity(64);
    // Warm-up: let the SDU VecDeque grow its ring to steady-state size.
    for sn in 0..256u64 {
        rlc.enqueue(sn, data_packet(sn as u16, 1400), Instant::ZERO);
    }
    txed.clear();
    segs.clear();
    rlc.pull_with(usize::MAX / 2, Instant::from_millis(1), &mut txed, |s| {
        segs.push(s)
    });
    segs.clear();
    txed.clear();
    // Steady state: enqueue → segment in two pulls → fully transmitted.
    let (n, _) = allocs_during(|| {
        for sn in 1000..1064u64 {
            rlc.enqueue(sn, data_packet(sn as u16, 1400), Instant::from_millis(2));
            rlc.pull_with(600, Instant::from_millis(3), &mut txed, |s| segs.push(s));
            rlc.pull_with(4096, Instant::from_millis(3), &mut txed, |s| segs.push(s));
            segs.clear();
            txed.clear();
        }
    });
    assert_eq!(
        n, 0,
        "UM enqueue/segment/pull cycle must not allocate once warm"
    );

    // --- 3. UE uplink path: enqueue → uplink slot into pooled buffers ---
    // The world pools the `UlAtGnb` payload vectors; with the buffers at
    // steady-state size, a full uplink cycle
    // (ACK enqueue with SR-delay draw, queue drain, AM status emission)
    // must not allocate.
    let mut ue = UeStack::new(
        UeId(0),
        &[(DrbId(0), RlcMode::Am)],
        Duration::from_millis(1),
        Duration::from_millis(2),
        Duration::from_millis(5),
        SimRng::new(7),
    );
    let mut ul_pkts: Vec<PacketBuf> = Vec::with_capacity(64);
    let mut ul_statuses: Vec<(DrbId, RlcStatus)> = Vec::with_capacity(8);
    // Warm-up: grow the UL queue ring and produce one status cycle.
    for i in 0..32u64 {
        ue.enqueue_uplink(data_packet(i as u16, 0), Instant::from_millis(i));
    }
    ue.on_uplink_slot_into(Instant::from_millis(100), &mut ul_pkts, &mut ul_statuses);
    ul_pkts.clear();
    ul_statuses.clear();
    // A delivered segment makes the AM receiver dirty, so the first
    // measured slot below also exercises the status-report emission path
    // (a gap-free status carries an empty NACK vec: no allocation).
    let seg = Segment {
        sn: 0,
        offset: 0,
        len: 1480,
        sdu_size: 1480,
        payload: Some(data_packet(0, 1400)),
    };
    let mut deliveries = Vec::new();
    ue.on_transport_block_into(
        l4span::ran::mac::TransportBlock {
            ue: UeId(0),
            segments: vec![(DrbId(0), seg)],
            bytes: 1480,
            attempt: 1,
            cqi: 10,
            first_tx: Instant::from_millis(150),
        },
        Instant::from_millis(150),
        &mut deliveries,
    );
    assert_eq!(deliveries.len(), 1);
    let (n, _) = allocs_during(|| {
        let mut total = 0usize;
        for k in 0..64u64 {
            let t = Instant::from_millis(200 + 10 * k);
            ue.enqueue_uplink(data_packet(k as u16, 0), t);
            ue.on_uplink_slot_into(t + Duration::from_millis(6), &mut ul_pkts, &mut ul_statuses);
            total += ul_pkts.len() + ul_statuses.len();
            ul_pkts.clear();
            ul_statuses.clear();
        }
        total
    });
    assert_eq!(
        n, 0,
        "uplink enqueue/slot cycle into pooled buffers must not allocate"
    );

    // --- 3b. UE uplink DATA path: enqueue → BSR → grant-bounded pull ----
    // The bidirectional extension adds per-DRB uplink PDCP/RLC transmit
    // entities at the UE. Once their rings and the pooled BSR buffer are
    // warm, the steady-state cycle — PDCP SN assignment, RLC enqueue
    // (with the SR-arming RNG draw), buffer-status reporting into a
    // pooled buffer, and a grant-sized pull into reused scratch — must
    // not touch the allocator.
    let mut ue_ul = UeStack::new(
        UeId(1),
        &[(DrbId(0), RlcMode::Am)],
        Duration::from_millis(1),
        Duration::from_millis(2),
        Duration::from_millis(5),
        SimRng::new(9),
    );
    ue_ul.configure_ul_drb(DrbId(0), RlcMode::Am, 4096, 8);
    let mut bsr: Vec<(DrbId, usize)> = Vec::with_capacity(8);
    // Warm-up: grow the UL queue ring, emit a BSR, drain via a TB.
    for i in 0..64u64 {
        ue_ul.enqueue_uplink_data(
            DrbId(0),
            data_packet(i as u16, 1400),
            Instant::from_millis(i),
        );
    }
    ue_ul.ul_bsr_into(Instant::from_millis(100), &mut bsr);
    bsr.clear();
    let _ = ue_ul.build_ul_tb(usize::MAX / 2, 10, Instant::from_millis(101), Vec::new());
    let (n, _) = allocs_during(|| {
        let mut total = 0usize;
        for k in 0..64u64 {
            let t = Instant::from_millis(200 + 10 * k);
            ue_ul.enqueue_uplink_data(DrbId(0), data_packet(k as u16, 1400), t);
            ue_ul.ul_bsr_into(t + Duration::from_millis(6), &mut bsr);
            total += bsr.len();
            bsr.clear();
        }
        total
    });
    assert_eq!(
        n, 0,
        "uplink data enqueue/BSR cycle into pooled buffers must not allocate"
    );

    // --- 4. Event-queue schedule/pop with a warm slab -------------------
    // Once with the index heap alone, once with the instants on the
    // queue's slot grid (its per-instant lists).
    let grid = Duration::from_millis(1);
    for mut q in [
        EventQueue::with_capacity(1024),
        EventQueue::with_capacity(1024).with_grid(grid, Instant::ZERO),
    ] {
        for i in 0..512 {
            q.schedule(Instant::from_millis(i), (i, data_packet(i as u16, 1400)));
        }
        while q.pop().is_some() {}
        let (n, _) = allocs_during(|| {
            for i in 0..512u64 {
                q.schedule(
                    q.now() + grid * (1 + i % 7),
                    (i, data_packet(i as u16, 1400)),
                );
            }
            let mut sum = 0u64;
            while let Some((_, (i, p))) = q.pop() {
                sum += i + p.wire_len() as u64;
            }
            sum
        });
        assert_eq!(
            n, 0,
            "schedule/pop on a pre-sized event queue must not allocate"
        );
    }

    // --- 5. gNB slot tick into reused SlotOutput (PR 8 shard hot loop) --
    // Each shard's epoch is dominated by per-cell slot ticks. With the
    // gNB's internal scratch warm, the TB segment buffers recycled, and
    // the caller's `SlotOutput` reused, a full enqueue → slot → recycle
    // cycle must not touch the allocator.
    use l4span::ran::channel::ChannelProfile;
    use l4span::ran::config::{CellConfig, SchedulerKind};
    use l4span::ran::ids::Qfi;
    use l4span::ran::{FadingChannel, Gnb, SlotOutput};
    let cfg = CellConfig::default();
    let slot = cfg.slot_duration;
    let mut gnb = Gnb::new(cfg.clone(), SchedulerKind::RoundRobin, SimRng::new(1));
    let seeds = SimRng::new(99);
    for u in 0..4u16 {
        let ch = FadingChannel::new(
            ChannelProfile::Static,
            25.0,
            cfg.carrier_hz,
            &mut seeds.derive(u as u64),
        );
        gnb.add_ue(UeId(u), ch, &[(DrbId(0), RlcMode::Um)]);
    }
    let mut out = SlotOutput::default();
    // Warm-up: grow RLC rings to their cap (the offered load exceeds
    // the cell rate, so steady state is a full queue), plus scheduler
    // scratch and the TB segment pool (buffers only enter the pool via
    // recycle).
    for i in 0..2048u64 {
        for u in 0..4u16 {
            for _ in 0..2 {
                gnb.enqueue_downlink(
                    UeId(u),
                    Qfi(1),
                    data_packet(i as u16, 1400),
                    Instant::ZERO + slot * i,
                );
            }
        }
        gnb.on_slot_into(Instant::ZERO + slot * i, &mut out);
        for d in out.deliveries.drain(..) {
            gnb.recycle_segments(d.tb.segments);
        }
    }
    let (n, _) = allocs_during(|| {
        let mut served = 0usize;
        for i in 2048..2304u64 {
            let t = Instant::ZERO + slot * i;
            for u in 0..4u16 {
                gnb.enqueue_downlink(UeId(u), Qfi(1), data_packet(i as u16, 1400), t);
            }
            gnb.on_slot_into(t, &mut out);
            for d in out.deliveries.drain(..) {
                served += 1;
                gnb.recycle_segments(d.tb.segments);
            }
        }
        served
    });
    assert_eq!(
        n, 0,
        "warm gNB slot tick into a reused SlotOutput must not allocate"
    );

    // --- 5b. One radio event per (cell, slot): pooled TB batches (PR 12) -
    // The world puts a slot's transport blocks on the air as *one*
    // event carrying a pooled `Vec<TransportBlock>` (`TbsAtUe`; the
    // uplink mirror `UlTbsAtGnb` draws from the same buffer pool).
    // Continuing with the warm gNB of step 5, the steady-state cycle —
    // slot output drained into a pooled batch, the batch scheduled by
    // value on the cell's slot grid, popped at the end of the slot,
    // its blocks handled in order (segment buffers recycled to the
    // gNB), the emptied batch returned to the pool — must not touch
    // the allocator. (The UE's RLC receiver is left out of this cycle;
    // step 8 covers it inside whole worlds.)
    use l4span::ran::mac::TransportBlock;
    type Batch = Vec<TransportBlock>;
    let mut air: EventQueue<Batch> = EventQueue::with_capacity(64).with_grid(slot, Instant::ZERO);
    let mut tb_pool: Vec<Batch> = Vec::with_capacity(8);
    let mut slot_cycle = |i: u64| -> usize {
        let t = Instant::ZERO + slot * i;
        for u in 0..4u16 {
            gnb.enqueue_downlink(UeId(u), Qfi(1), data_packet(i as u16, 1400), t);
        }
        gnb.on_slot_into(t, &mut out);
        if let Some(first) = out.deliveries.first() {
            let at = first.deliver_at;
            let mut tbs = tb_pool.pop().unwrap_or_default();
            tbs.extend(out.deliveries.drain(..).map(|d| d.tb));
            air.schedule(at, tbs);
        }
        let mut handled = 0;
        while air.next_at().is_some_and(|at| at <= t + slot) {
            let (_, mut tbs) = air.pop().expect("peeked");
            for tb in tbs.drain(..) {
                gnb.recycle_segments(tb.segments);
                handled += 1;
            }
            tb_pool.push(tbs);
        }
        handled
    };
    // Warm-up: the batch buffer grows to the most blocks a slot carries.
    for i in 2304..2560u64 {
        slot_cycle(i);
    }
    let (n, handled) = allocs_during(|| (2560..2816u64).map(&mut slot_cycle).sum::<usize>());
    assert!(handled > 0, "the batches must carry blocks");
    assert_eq!(
        n, 0,
        "slot → pooled TB batch → queued event → handle → recycle must not allocate"
    );

    // --- 5c. Uplink grant allocation -------------------------------------
    // An uplink slot runs the same MAC allocators as a downlink one, on
    // the gNB's own scratch; with the BSRs topped up each slot (every UE
    // stays a candidate) the grant step must not allocate.
    let mut grants: Vec<(UeId, usize, u8)> = Vec::with_capacity(8);
    let mut ul_slot = |i: u64| -> usize {
        for u in 0..4u16 {
            gnb.on_ul_bsr(UeId(u), 1 << 20);
        }
        gnb.allocate_ul_grants_into(Instant::ZERO + slot * i, &mut grants);
        grants.len()
    };
    ul_slot(2816);
    let (n, granted) = allocs_during(|| (2817..2881u64).map(&mut ul_slot).sum::<usize>());
    assert!(granted > 0, "backlogged UEs must be granted");
    assert_eq!(n, 0, "warm uplink grant allocation must not allocate");

    // --- 6. Cross-shard mailbox cycle (PR 8) ----------------------------
    // The coordinator's steady-state envelope cycle: a source shard
    // pushes events by value into its outbox, the coordinator appends
    // them into a reused buffer, wraps them as `(at, src, k)` envelopes,
    // sorts (unstable — the key is strictly total, and unlike the
    // stable sort it never allocates), and injects into a warm
    // destination queue on the cell's slot grid.
    type Mail = (u64, PacketBuf);
    let mut outbox: Vec<(Instant, Mail)> = Vec::with_capacity(64);
    let mut buf: Vec<(Instant, Mail)> = Vec::with_capacity(64);
    let mut envelopes: Vec<(Instant, usize, usize, Mail)> = Vec::with_capacity(64);
    let mut dst: EventQueue<Mail> = EventQueue::with_capacity(128).with_grid(slot, Instant::ZERO);
    // Warm the destination queue.
    for i in 0..64u64 {
        dst.schedule(Instant::from_millis(i), (i, data_packet(i as u16, 0)));
    }
    while dst.pop().is_some() {}
    let (n, _) = allocs_during(|| {
        let mut sum = 0u64;
        for round in 0..64u64 {
            let barrier = dst.now() + Duration::from_millis(1);
            // Source epoch: mail produced, some of it off the slot grid.
            for k in 0..32u64 {
                let mail = (round * 100 + k, data_packet(k as u16, 0));
                outbox.push((barrier + Duration::from_micros(k % 7 * 250), mail));
            }
            // Coordinator: take, wrap, sort, inject.
            buf.append(&mut outbox);
            for (k, (at, mail)) in buf.drain(..).enumerate() {
                envelopes.push((at, 0, k, mail));
            }
            envelopes.sort_unstable_by_key(|&(at, s, k, _)| (at, s, k));
            for (at, _, _, mail) in envelopes.drain(..) {
                dst.schedule(at, mail);
            }
            // Destination epoch: drain.
            while let Some((_, (id, _))) = dst.pop() {
                sum += id;
            }
        }
        sum
    });
    assert_eq!(
        n, 0,
        "steady-state cross-shard mailbox cycle must not allocate"
    );

    // --- 7. FEC media sender burst ---------------------------------------
    // Every emitted datagram picks its bonded leg by deficit round-robin
    // over the per-leg shares; once the per-leg RTT-probe rings reach
    // their cap, a frame burst into a reused buffer must not allocate.
    use l4span::cc::FecMediaSender;
    let mut fec = FecMediaSender::new(1, 2, 5008, 44_000, 1.5e5, 5e5, 2.5e6, 60.0, 2);
    let mut burst: Vec<(u8, PacketBuf)> = Vec::with_capacity(256);
    let frame = Duration::from_micros(16_667);
    let mut frame_burst = |k: u64| -> usize {
        burst.clear();
        fec.poll_into(Instant::ZERO + frame * k, &mut burst);
        burst.len()
    };
    for k in 0..2048u64 {
        frame_burst(k);
    }
    let (n, sent) = allocs_during(|| (2048..2304u64).map(&mut frame_burst).sum::<usize>());
    assert!(sent > 0, "the sender must emit frames");
    assert_eq!(
        n, 0,
        "warm FecMediaSender::poll_into burst must not allocate"
    );

    // --- 8. Whole worlds: allocations per additional delivered packet ----
    // The steps above prove pieces; this one leaves nothing out. Run a
    // scenario for T and for 2T simulated seconds: set-up and warm-up
    // cost the same in both, so the difference is what the steady state
    // allocates — RLC reassembly and status reports, the marker's
    // feedback path, uplink transport blocks, FEC reports, the metric
    // series. The sequence-keyed stores (TCP segments in flight, RLC
    // unacknowledged and reassembly windows, the SN → packet join) are
    // rings that only allocate to grow, so what is left is a few
    // allocations per *hundred* packets: ≤ 0.05 on a downlink TCP cell
    // (the paper's case; 0.015 today, 0.09 while every segment
    // sent churned a B-tree node), ≤ 0.02 on bidirectional TCP calls
    // (0.011; 0.091 while every video frame came in a unit list of
    // its own, 0.30 with the B-trees), ≤ 0.03 on the bonded FEC-media
    // uplink (0.024; 0.06 then, 15 before the uplink data path
    // stopped allocating per grant, per status and per SDU) and ≤ 0.02
    // on SCReAM calls, every other one uplink, whose frames complete
    // by the id their last packet carries (0.0077).
    use l4span::cc::WanLink;
    use l4span::harness::scenario::{self, ChannelMix, ScenarioConfig};
    use l4span::harness::{AppProfile, FlowDir, FlowSpec, Report, TransportSpec, UeSpec};
    let tcp_cell = |d| {
        scenario::congested_cell(
            16,
            "prague",
            ChannelMix::Mobile,
            16_384,
            WanLink::east(),
            scenario::l4span_default(),
            7,
            d,
        )
    };
    let calls = |d| scenario::video_call_bidir(4, "prague", scenario::l4span_default(), 7, d);
    let bonded_ul = |d| scenario::bonded_xr_8ue(7, d);
    let scream_calls = |d| {
        let mut cfg = ScenarioConfig::new(7, d);
        cfg.marker = scenario::l4span_default();
        for i in 0..8 {
            let snr = 20.0 + 3.0 * (i % 3) as f64;
            cfg.ues
                .push(UeSpec::simple(ChannelMix::Mobile.profile(i), snr));
            let video = AppProfile::video(25.0, 0.5e6, 2.0e6, 20.0e6);
            let start = Instant::from_millis(20 * i as u64);
            let dir = [FlowDir::Downlink, FlowDir::Uplink][i % 2];
            cfg.flows.push(
                FlowSpec::new(i, video, TransportSpec::scream(), WanLink::east(), start)
                    .direction(dir),
            );
        }
        cfg
    };
    type Scenario<'a> = &'a dyn Fn(Duration) -> ScenarioConfig;
    let worlds: [(&str, f64, Scenario); 4] = [
        ("tcp cell", 0.05, &tcp_cell),
        ("bidirectional calls", 0.02, &calls),
        ("bonded uplink", 0.03, &bonded_ul),
        ("scream calls", 0.02, &scream_calls),
    ];
    for (name, limit, cfg) in worlds {
        let run = |secs| -> (u64, Report) {
            process_allocs_during(|| l4span::harness::run(cfg(Duration::from_secs(secs))))
        };
        let ((a1, r1), (a2, r2)) = (run(3), run(6));
        let pkts = r2.delivered_packets() - r1.delivered_packets();
        assert!(
            pkts > 1000,
            "{name}: only {pkts} more packets in twice the time"
        );
        let per_pkt = a2.saturating_sub(a1) as f64 / pkts as f64;
        assert!(
            per_pkt <= limit,
            "{name}: {per_pkt:.3} allocations per additional delivered packet, \
             limit {limit} ({a1} over 3 s, {a2} over 6 s, {pkts} more packets)"
        );
    }

    // --- 9. A marker-off cell: nothing follows the run length ------------
    // Without L4Span the RLC queues hold seconds of data, so a sender's
    // retransmission timeout sits ten seconds out while every ACK pulls
    // its paced release earlier. Each pull used to leave the far timer
    // entry queued until its instant: ten thousand of them by 20 s, one
    // event box each (4 617 more allocations over 40 s than over 10 s).
    // A timer owner has one queue entry now, so the most events ever
    // pending is the traffic in flight plus a slot per flow, the same
    // at 10 s and at 40 s. The ground-truth transmit log, which only an
    // L4Span run compares against, is no longer kept without one: it
    // held every transmitted SDU and followed the run length (311 more
    // allocations over 40 s). What the longer run allocates on top now
    // is metric series doubling (245 more).
    let bare_cell = |secs| {
        let mut cfg = tcp_cell(Duration::from_secs(secs));
        cfg.marker = l4span::harness::MarkerKind::None;
        process_allocs_during(|| l4span::harness::run(cfg))
    };
    let ((a10, r10), (a40, r40)) = (bare_cell(10), bare_cell(40));
    let (d10, d40) = (r10.queue_depth_peak, r40.queue_depth_peak);
    assert!(
        d40 <= 64 + 16 * 16 && d40.abs_diff(d10) * 10 <= d10,
        "marker-off cell: {d10} events pending at most over 10 s, {d40} over 40 s"
    );
    assert!(
        a40.saturating_sub(a10) <= 280,
        "marker-off cell: {a10} allocations over 10 s, {a40} over 40 s"
    );

    // --- 10. A deeper queue costs no allocation per pending event -------
    // The west WAN's 106 ms round trip keeps about 2.8× the packets of
    // the east's 38 ms in flight, and with them the events that carry
    // them. Events live by value in the queue's node slab, which grows
    // by doubling, so the deeper queue adds a handful of allocations —
    // not one per extra pending event, as a boxed event each did.
    let bbr2_cell = |wan| {
        let cfg = scenario::congested_cell(
            8,
            "bbr2",
            ChannelMix::Mobile,
            16_384,
            wan,
            scenario::l4span_default(),
            7,
            Duration::from_secs(5),
        );
        process_allocs_during(|| l4span::harness::run(cfg))
    };
    let ((a_east, r_east), (a_west, r_west)) =
        (bbr2_cell(WanLink::east()), bbr2_cell(WanLink::west()));
    let (d_east, d_west) = (r_east.queue_depth_peak, r_west.queue_depth_peak);
    assert!(
        d_west > 4 * d_east && a_west.saturating_sub(a_east) <= 200,
        "bbr2 cell: {a_east} allocations with the east WAN ({d_east} events pending at most), \
         {a_west} with the west one ({d_west})"
    );

    // --- 11. A replica costs its share of the world, not a world --------
    // Eight cells of three UEs, run on one replica and on four. Each
    // replica past the first starts vacant — no radio, stack, marker or
    // endpoint state, only the static tables events are routed by — and
    // takes the live state of the cells it owns out of the world. What
    // an extra replica still allocates is its tables and accumulator
    // vectors, its own pools and scratch buffers warming up, and its
    // share of each epoch's worker threads: 90 with one worker, 110 with
    // four or more. Built as a whole world it cost 290.
    let metro = || {
        let cfg = scenario::metro_city(
            8,
            3,
            "cubic",
            scenario::l4span_default(),
            7,
            Duration::from_secs(1),
        );
        assert_eq!(
            l4span::harness::plan_shards_reason(&cfg, 4),
            (4, None),
            "eligible"
        );
        cfg
    };
    let (one, r1) = process_allocs_during(|| l4span::harness::run_sharded(metro(), 1));
    let (four, r4) = process_allocs_during(|| l4span::harness::run_sharded(metro(), 4));
    assert_eq!(r4.shards.len(), 4);
    assert_eq!(r1.fingerprint_digest(), r4.fingerprint_digest());
    assert!(
        four.saturating_sub(one) < 128 * 3,
        "metro_city(8, 3): {one} allocations on one replica, {four} on four"
    );

    // --- 12. The peak live heap of a whole run ----------------------------
    // The paper's cell as the benchmark runs it, 80 s, set up and run on
    // this thread (one cell, one replica), counted in bytes held at once.
    // The run's end is the peak: the world is gone, the report holds the
    // recorder's delay logs as they are and decodes only the one-way
    // delays (7 455 611 B). A report that decoded every log into `f64`
    // times and values held 8 351 267 B. Over 20 s the run itself peaks
    // higher than its end (2 369 309 B either way), so the end could
    // grow unseen.
    let cfg = tcp_cell(Duration::from_secs(80));
    ALLOC.reset_thread_peak();
    let before = ALLOC.thread_live_bytes();
    let report = l4span::harness::World::new(cfg).run();
    let peak = ALLOC.thread_peak_bytes() - before;
    assert!(report.delivered_packets() > 200_000, "the cell delivers");
    assert!(
        peak <= 7_830_000,
        "tcp cell over 80 s: {peak} bytes live at the peak, limit 7 830 000"
    );
}
