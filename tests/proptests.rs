//! Property-based tests over the core data structures and invariants,
//! spanning the net, sim, ran, and core crates.

use proptest::prelude::*;

use l4span::core::estimator::EgressEstimator;
use l4span::core::marking;
use l4span::core::profile::ProfileTable;
use l4span::net::{AccEcnCounters, Ecn, PacketBuf, TcpFlags, TcpHeader};
use l4span::ran::config::RlcMode;
use l4span::ran::rlc::{RlcRx, RlcTx, Segment};
use l4span::sim::stats::{percentile_sorted, Cdf};
use l4span::sim::{Duration, EventQueue, Instant, SimRng};

fn arb_ecn() -> impl Strategy<Value = Ecn> {
    prop_oneof![
        Just(Ecn::NotEct),
        Just(Ecn::Ect0),
        Just(Ecn::Ect1),
        Just(Ecn::Ce)
    ]
}

fn arb_flags() -> impl Strategy<Value = TcpFlags> {
    (0u16..512).prop_map(TcpFlags)
}

/// The segments one RLC pull of up to `budget` bytes at `now` emits.
fn pull_segments(tx: &mut RlcTx, budget: usize, now: Instant) -> Vec<Segment> {
    let mut segments = Vec::new();
    tx.pull_with(budget, now, &mut Vec::new(), |s| segments.push(s));
    segments
}

proptest! {
    /// TCP header emit→parse is the identity for every field we model.
    #[test]
    fn tcp_header_roundtrip(
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in arb_flags(),
        window in any::<u16>(),
        mss in proptest::option::of(any::<u16>()),
        acc in proptest::option::of((0u32..1 << 24, 0u32..1 << 24, 0u32..1 << 24)),
        payload in 0usize..2000,
    ) {
        let hdr = TcpHeader {
            src_port, dst_port, seq, ack, flags, window,
            mss,
            accecn: acc.map(|(a, b, c)| AccEcnCounters {
                ect0_bytes: a, ce_bytes: b, ect1_bytes: c,
            }),
        };
        let mut buf = [0u8; 60];
        let n = hdr.emit(&mut buf, 1, 2, payload);
        let (parsed, len) = TcpHeader::parse(&buf[..n]).unwrap();
        prop_assert_eq!(len, n);
        prop_assert_eq!(parsed, hdr);
        prop_assert!(l4span::net::tcp::verify_checksum(&buf[..n], 1, 2, n + payload));
    }

    /// Any sequence of ECN rewrites keeps both checksums valid.
    #[test]
    fn ecn_rewrites_preserve_checksums(
        initial in arb_ecn(),
        rewrites in proptest::collection::vec(arb_ecn(), 0..8),
        payload in 0usize..1500,
    ) {
        let hdr = TcpHeader {
            src_port: 443,
            dst_port: 50_000,
            flags: TcpFlags::new().with(TcpFlags::ACK),
            ..TcpHeader::default()
        };
        let mut pkt = PacketBuf::tcp(0xDEAD, 0xBEEF, initial, 7, &hdr, payload);
        for e in rewrites {
            pkt.set_ecn(e);
            prop_assert_eq!(pkt.ecn(), e);
            prop_assert!(pkt.checksums_valid());
        }
    }

    /// The event queue pops in non-decreasing time order, FIFO at ties.
    #[test]
    fn event_queue_ordering(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Instant::from_micros(t), i);
        }
        let mut last = (Instant::ZERO, 0usize);
        let mut seen = 0;
        while let Some((at, idx)) = q.pop() {
            prop_assert!(at >= last.0);
            if at == last.0 && seen > 0 {
                prop_assert!(idx > last.1, "ties must be FIFO");
            }
            last = (at, idx);
            seen += 1;
        }
        prop_assert_eq!(seen, times.len());
    }

    /// Percentiles are monotone in p and bounded by the extremes.
    #[test]
    fn percentiles_monotone(mut v in proptest::collection::vec(-1e7f64..1e7, 1..300)) {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
            let x = percentile_sorted(&v, p);
            prop_assert!(x >= last);
            prop_assert!(x >= v[0] && x <= v[v.len() - 1]);
            last = x;
        }
    }

    /// The CDF is a valid distribution function.
    #[test]
    fn cdf_is_monotone_to_one(v in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let cdf = Cdf::from_samples(&v);
        let mut last = 0.0;
        for i in -10..=10 {
            let f = cdf.fraction_at(i as f64 * 1e5);
            prop_assert!(f >= last && (0.0..=1.0).contains(&f));
            last = f;
        }
        let max = v.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert_eq!(cdf.fraction_at(max), 1.0);
    }

    /// Eq. 1 is monotone in the queue size and bounded in [0, 1].
    #[test]
    fn p_l4s_monotone_in_queue(
        rate in 1e4f64..1e8,
        std in 0.0f64..1e7,
        n1 in 0usize..10_000_000,
        n2 in 0usize..10_000_000,
    ) {
        let tau = Duration::from_millis(10);
        let (lo, hi) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
        let p_lo = marking::p_l4s(lo, tau, rate, std);
        let p_hi = marking::p_l4s(hi, tau, rate, std);
        prop_assert!((0.0..=1.0).contains(&p_lo));
        prop_assert!((0.0..=1.0).contains(&p_hi));
        prop_assert!(p_hi >= p_lo - 1e-12);
    }

    /// Eq. 2 is monotone decreasing in rate and RTT, bounded in [0, 1].
    #[test]
    fn p_classic_monotone(
        mss in 100usize..9000,
        rtt_ms in 1u64..1000,
        r1 in 1e3f64..1e9,
        r2 in 1e3f64..1e9,
    ) {
        let k = 1.2247;
        let rtt = Duration::from_millis(rtt_ms);
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let p_slow = marking::p_classic(mss, k, rtt, lo);
        let p_fast = marking::p_classic(mss, k, rtt, hi);
        prop_assert!((0.0..=1.0).contains(&p_slow));
        prop_assert!(p_fast <= p_slow + 1e-12);
    }

    /// Profile table conservation: queued bytes always equal ingress
    /// minus transmitted, regardless of the feedback pattern.
    #[test]
    fn profile_table_conserves_bytes(
        ops in proptest::collection::vec((1usize..2000, any::<bool>()), 1..300)
    ) {
        let mut t = ProfileTable::new();
        let mut total_in = 0usize;
        let mut total_out = 0usize;
        let mut now = Instant::ZERO;
        let mut highest: Option<u64> = None;
        for (size, feedback) in ops {
            now += Duration::from_micros(100);
            let sn = t.on_ingress(size, now);
            total_in += size;
            if feedback {
                t.on_feedback(Some(sn), None, now, |p| total_out += p.size);
                highest = Some(sn);
            }
            prop_assert_eq!(t.queued_bytes(), total_in - total_out);
            prop_assert_eq!(t.highest_txed(), highest);
        }
    }

    /// The egress estimator's smoothed rate never exceeds the fastest
    /// instantaneous rate nor falls below the slowest.
    #[test]
    fn estimator_rate_is_within_sample_range(
        gaps_us in proptest::collection::vec(100u64..20_000, 30..120),
        size in 200usize..2000,
    ) {
        let window = Duration::from_micros(12_450);
        let mut e = EgressEstimator::new(window);
        let mut now = Instant::ZERO;
        for g in &gaps_us {
            now += Duration::from_micros(*g);
            e.on_txed(now, size);
        }
        if let Some(r) = e.rate() {
            prop_assert!(r > 0.0);
            // Loose bound: cannot exceed everything having arrived in
            // one window.
            let upper = (gaps_us.len() * size) as f64 / window.as_secs_f64();
            prop_assert!(r <= upper + 1.0);
            let att = e.attainable_rate().unwrap();
            prop_assert!(att >= r);
        }
    }

    /// The O(1) attainable rate (front of a monotone deque) is bit for
    /// bit the fold over the full smoothed-rate history it replaced,
    /// whenever feedback timestamps never decrease — including equal
    /// stamps, idle gaps past the 100-window horizon, and byte counts
    /// that swing the rate both ways.
    #[test]
    fn attainable_rate_equals_fold_over_full_history(
        steps in proptest::collection::vec((0u32..100, 100u64..20_000, 0usize..6000), 100..500),
    ) {
        let window = Duration::from_micros(12_450);
        let horizon = window * 100;
        let mut e = EgressEstimator::new(window);
        // The reference: every smoothed sample, expired from the front.
        let mut history: std::collections::VecDeque<(Instant, f64)> = Default::default();
        let mut now = Instant::ZERO;
        for &(kind, gap_us, bytes) in &steps {
            now += match kind {
                0..=9 => Duration::ZERO,
                10..=12 => Duration::from_micros(gap_us * 100),
                _ => Duration::from_micros(gap_us),
            };
            e.on_txed(now, bytes);
            if let Some(smoothed) = e.rate() {
                history.push_back((now, smoothed));
                while history.front().is_some_and(|&(t, _)| now.saturating_since(t) > horizon) {
                    history.pop_front();
                }
            }
            let naive = e
                .rate()
                .map(|current| history.iter().map(|&(_, r)| r).fold(current, f64::max));
            prop_assert_eq!(e.attainable_rate().map(f64::to_bits), naive.map(f64::to_bits));
        }
        prop_assert!(e.attainable_rate().is_some());
    }

    /// RLC AM segmentation/reassembly delivers every SDU exactly once and
    /// in order, for arbitrary pull budgets, with losses repaired by
    /// status-driven retransmission.
    #[test]
    fn rlc_am_delivers_everything_in_order(
        sdu_sizes in proptest::collection::vec(40usize..3000, 1..40),
        budgets in proptest::collection::vec(60usize..4000, 1..400),
        loss_seed in any::<u64>(),
    ) {
        let mut tx = RlcTx::new(RlcMode::Am, 1 << 16, 8);
        let mut rx = RlcRx::new(RlcMode::Am, Duration::from_millis(5));
        let mut rng = SimRng::new(loss_seed);
        let hdr = TcpHeader::default();
        let n = sdu_sizes.len() as u64;
        for (i, &sz) in sdu_sizes.iter().enumerate() {
            let pkt = PacketBuf::tcp(1, 2, Ecn::Ect1, i as u16, &hdr, sz);
            prop_assert!(tx.enqueue(i as u64, pkt, Instant::ZERO));
        }
        let mut delivered: Vec<u64> = Vec::new();
        let mut fresh = Vec::new();
        let mut now = Instant::ZERO;
        // Drive tx/rx with random budgets and 20% segment loss until all
        // SDUs arrive (bounded iterations to catch livelock).
        for round in 0..10_000usize {
            now += Duration::from_micros(500);
            let budget = budgets[round % budgets.len()];
            let pulled = pull_segments(&mut tx, budget, now);
            for seg in pulled {
                if rng.chance(0.2) {
                    continue; // lost transport block
                }
                rx.on_segment_into(seg, now, &mut fresh);
                delivered.extend(fresh.drain(..).map(|d| d.sn));
            }
            if let Some(status) = rx.make_status(now) {
                tx.on_status(&status, now);
            }
            if delivered.len() as u64 == n {
                break;
            }
            prop_assert!(round < 9_999, "livelock: {}/{} delivered", delivered.len(), n);
        }
        prop_assert_eq!(delivered.len() as u64, n);
        for (i, &sn) in delivered.iter().enumerate() {
            prop_assert_eq!(sn, i as u64, "strict in-order delivery");
        }
    }

    /// RLC UM with losses never delivers out of order and never
    /// duplicates, even though it may drop.
    #[test]
    fn rlc_um_never_reorders(
        n_sdus in 1usize..30,
        loss_seed in any::<u64>(),
    ) {
        let mut tx = RlcTx::new(RlcMode::Um, 1 << 16, 8);
        let mut rx = RlcRx::new(RlcMode::Um, Duration::from_millis(5));
        let mut rng = SimRng::new(loss_seed);
        let hdr = TcpHeader::default();
        for i in 0..n_sdus {
            let pkt = PacketBuf::tcp(1, 2, Ecn::Ect1, i as u16, &hdr, 1000);
            tx.enqueue(i as u64, pkt, Instant::ZERO);
        }
        let mut fresh = Vec::new();
        let mut now = Instant::ZERO;
        for _ in 0..2000 {
            now += Duration::from_micros(500);
            let pulled = pull_segments(&mut tx, 1200, now);
            for seg in pulled {
                if rng.chance(0.3) {
                    continue;
                }
                rx.on_segment_into(seg, now, &mut fresh);
            }
            rx.poll_into(now, &mut fresh);
        }
        let got: Vec<u64> = fresh.iter().map(|d| d.sn).collect();
        // Strictly increasing ⇒ in order and no duplicates.
        for w in got.windows(2) {
            prop_assert!(w[1] > w[0], "order violated: {:?}", got);
        }
    }
}

proptest! {
    /// Lossless-forwarding invariant: the SDU stream reassembled at the
    /// UE is byte-identical with and without a mid-stream handover. The
    /// handover drains the source RLC entity (unacked + queued SDUs),
    /// re-enqueues the context at a fresh target entity, and
    /// re-establishes the receiver — under arbitrary SDU sizes, pull
    /// budgets, handover points, and 20% segment loss, every SDU still
    /// arrives exactly once, in order, with its exact original bytes.
    /// (The world-level five-CC counterpart lives in `tests/e2e.rs`.)
    #[test]
    fn rlc_handover_forwarding_is_lossless(
        sdu_sizes in proptest::collection::vec(40usize..2500, 1..30),
        budgets in proptest::collection::vec(100usize..3500, 1..60),
        ho_round in 0usize..40,
        loss_seed in any::<u64>(),
    ) {
        let hdr = TcpHeader::default();
        let originals: Vec<PacketBuf> = sdu_sizes
            .iter()
            .enumerate()
            .map(|(i, &sz)| PacketBuf::tcp(1, 2, Ecn::Ect1, i as u16, &hdr, sz))
            .collect();
        let n = originals.len() as u64;

        // Run the tx/rx pair to completion; at round `ho_round` (if
        // `with_ho`) migrate the transmit context to a fresh entity and
        // re-establish the receiver.
        let run = |with_ho: bool| -> Vec<(u64, PacketBuf)> {
            let mut tx = RlcTx::new(RlcMode::Am, 1 << 16, 8);
            let mut rx = RlcRx::new(RlcMode::Am, Duration::from_millis(5));
            let mut rng = SimRng::new(loss_seed);
            for (i, pkt) in originals.iter().enumerate() {
                assert!(tx.enqueue(i as u64, *pkt, Instant::ZERO));
            }
            let mut delivered: Vec<(u64, PacketBuf)> = Vec::new();
            let mut fresh = Vec::new();
            let mut now = Instant::ZERO;
            for round in 0..10_000usize {
                if with_ho && round == ho_round {
                    // --- the handover ---
                    let fwd = tx.drain_for_handover();
                    let mut target = RlcTx::new(RlcMode::Am, 1 << 16, 8);
                    for f in fwd {
                        assert!(target.enqueue_forwarded(f, now));
                    }
                    tx = target;
                    rx.reestablish();
                }
                now += Duration::from_micros(500);
                let budget = budgets[round % budgets.len()];
                let pulled = pull_segments(&mut tx, budget, now);
                for seg in pulled {
                    if rng.chance(0.2) {
                        continue; // lost transport block
                    }
                    rx.on_segment_into(seg, now, &mut fresh);
                    delivered.extend(fresh.drain(..).map(|d| (d.sn, d.pkt)));
                }
                if let Some(status) = rx.make_status(now) {
                    tx.on_status(&status, now);
                }
                if delivered.len() as u64 == n {
                    break;
                }
                assert!(round < 9_999, "livelock: {}/{}", delivered.len(), n);
            }
            delivered
        };

        let without = run(false);
        let with = run(true);
        // Byte-identical delivered stream, and both equal the original
        // SDU sequence exactly.
        prop_assert_eq!(&without, &with);
        prop_assert_eq!(with.len() as u64, n);
        for (i, (sn, pkt)) in with.iter().enumerate() {
            prop_assert_eq!(*sn, i as u64, "strict in-order delivery");
            prop_assert_eq!(pkt, &originals[i], "payload bytes survive the handover");
        }
    }
}

/// One plain segment-level check kept out of proptest: the AM path with
/// zero loss delivers with minimal rounds.
#[test]
fn rlc_am_lossless_fast_path() {
    let mut tx = RlcTx::new(RlcMode::Am, 64, 8);
    let mut rx = RlcRx::new(RlcMode::Am, Duration::from_millis(5));
    let hdr = TcpHeader::default();
    for i in 0..10u64 {
        tx.enqueue(
            i,
            PacketBuf::tcp(1, 2, Ecn::Ect1, i as u16, &hdr, 1000),
            Instant::ZERO,
        );
    }
    let mut delivered = Vec::new();
    let mut now = Instant::ZERO;
    while delivered.len() < 10 {
        now += Duration::from_micros(500);
        let pulled = pull_segments(&mut tx, 3000, now);
        for seg in pulled {
            rx.on_segment_into(seg, now, &mut delivered);
        }
    }
    let st = rx.make_status(now + Duration::from_millis(10)).unwrap();
    assert_eq!(st.ack_sn, 10);
    assert!(st.nacks.is_empty());
    let acked = tx.on_status(&st, now + Duration::from_millis(11));
    assert_eq!(acked, 10);
}

// ---------------------------------------------------------------------
// Application-layer determinism: every built-in `Application` impl is a
// pure state machine over (tick, delivered) inputs, so two instances of
// the same profile driven through the same schedule must produce
// byte-identical offer transcripts — the property that makes scenario
// fingerprints invariant to `L4SPAN_THREADS` at the workload layer.
// ---------------------------------------------------------------------

use l4span::harness::app::{AppProfile, Application, UnitKind};

/// One transcript row: `(tick_ns, offered_bytes, unit (end, is_frame)
/// list)`.
type OfferRow = (u64, u64, Vec<(u64, bool)>);

/// Drive an app with instant-delivery feedback until `horizon`.
fn app_transcript(app: &mut (dyn Application + Send), horizon: Instant) -> Vec<OfferRow> {
    let mut out = Vec::new();
    let mut offered = 0u64;
    let mut units = Vec::new();
    for _ in 0..10_000 {
        let at = app.next_activity();
        if at > horizon {
            break;
        }
        let bytes = app.on_tick(at, &mut units);
        offered += bytes;
        out.push((
            at.as_nanos(),
            bytes,
            units
                .drain(..)
                .map(|u| (u.end_byte, u.kind == UnitKind::Frame))
                .collect(),
        ));
        // Feed back a rate estimate and full delivery 1 ms later, the
        // worst case for hidden non-determinism in the think/replenish
        // paths.
        app.on_rate_estimate(5e6, at);
        app.on_delivered(offered, at + Duration::from_millis(1));
        if app.done() {
            break;
        }
    }
    out
}

fn arb_app_profile() -> impl Strategy<Value = AppProfile> {
    prop_oneof![
        proptest::option::of(1_000u64..10_000_000).prop_map(|b| match b {
            Some(n) => AppProfile::sized(n),
            None => AppProfile::bulk(),
        }),
        (10u32..60, 100u32..5_000, 0u32..40, 15u32..45).prop_map(
            |(fps, start_kbps, every, boost_tenths)| {
                let cfg = l4span::harness::app::FramedVideoCfg::new(
                    fps as f64,
                    1e5,
                    start_kbps as f64 * 1e3,
                    2e7,
                )
                .with_keyframes(every, boost_tenths as f64 / 10.0);
                AppProfile::FramedVideo(cfg)
            }
        ),
        (1u32..500, 1u64..500, proptest::option::of(0u32..10)).prop_map(
            |(resp_kb, think_ms, count)| AppProfile::request_response(
                resp_kb as u64 * 1024,
                Duration::from_millis(think_ms),
                count,
            )
        ),
        proptest::collection::vec((0u64..2_000, 0u64..100_000), 0..20).prop_map(|mut t| {
            t.sort();
            AppProfile::trace(
                t.into_iter()
                    .map(|(ms, b)| (Duration::from_millis(ms), b))
                    .collect(),
            )
        }),
    ]
}

proptest! {
    /// Two instantiations of any application profile, driven
    /// identically, offer the identical byte stream — and the stream's
    /// unit boundaries are well-formed (monotone, within the offered
    /// prefix).
    #[test]
    fn application_offer_streams_are_deterministic(
        profile in arb_app_profile(),
        start_ms in 0u64..500,
    ) {
        let start = Instant::from_millis(start_ms);
        let horizon = start + Duration::from_secs(2);
        // A Bulk profile has no application: its transport runs it.
        let (Some(mut a), Some(mut b)) = (profile.instantiate(start), profile.instantiate(start))
        else {
            return Ok(());
        };
        let ta = app_transcript(&mut *a, horizon);
        let tb = app_transcript(&mut *b, horizon);
        prop_assert_eq!(&ta, &tb, "identical transcripts for {:?}", profile);
        // Unit boundaries are monotone and never exceed offered bytes.
        let mut offered = 0u64;
        let mut last_end = 0u64;
        for (_, bytes, units) in &ta {
            offered += bytes;
            for &(end, _) in units {
                prop_assert!(end > last_end, "unit ends strictly increase");
                prop_assert!(end <= offered, "unit inside the offered prefix");
                last_end = end;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Wired-plane conservation: whatever impairment stages a path is built
// from, with or without a bottleneck router behind them, every packet
// offered to the plane is either delivered out the far end, counted as
// dropped by exactly one hop, or still queued — never duplicated, never
// silently lost — and any codepoint rewrite the plane performed composes
// to a legal ECN lattice transition. The plane runs through its own
// `arrive` / `poll`, the pair the world drives.
// ---------------------------------------------------------------------

use l4span::aqm::{DualPi2, Router, RouterAqm};
use l4span::harness::impairment::{ImpairmentSpec, StageSpec};
use l4span::harness::wired::{HopSink, WiredPlane};

fn arb_stage() -> impl Strategy<Value = StageSpec> {
    // Probabilities as permille so the strategy stays on integer ranges.
    prop_oneof![
        (0u32..=1000).prop_map(|p| StageSpec::Bleach {
            prob: p as f64 / 1000.0
        }),
        ((0u32..=1000), 0usize..6).prop_map(|(p, k)| {
            // Every legal non-identity transition a middlebox could do.
            let (from, to) = [
                (Ecn::Ect1, Ecn::Ect0),
                (Ecn::Ect0, Ecn::Ect1),
                (Ecn::Ect1, Ecn::Ce),
                (Ecn::Ect0, Ecn::Ce),
                (Ecn::Ce, Ecn::NotEct),
                (Ecn::Ect1, Ecn::NotEct),
            ][k];
            StageSpec::Remark {
                from,
                to,
                prob: p as f64 / 1000.0,
            }
        }),
        (0u32..=1000).prop_map(|p| StageSpec::EctDrop {
            prob: p as f64 / 1000.0
        }),
        (1e6f64..1e8).prop_map(|rate_bps| StageSpec::ClassicQueue { rate_bps }),
    ]
}

/// The world's event queue, reduced to what the plane asks of it: the
/// packets leaving the last hop, and one pending poll per queue hop
/// (arming it earlier moves it, arming it later changes nothing).
#[derive(Default)]
struct PlaneHost {
    delivered: Vec<PacketBuf>,
    polls: std::collections::BTreeMap<u8, Instant>,
}

impl HopSink for PlaneHost {
    fn exit(&mut self, pkt: PacketBuf, _now: Instant) {
        self.delivered.push(pkt);
    }

    fn poll_at(&mut self, hop: u8, at: Instant) {
        let due = self.polls.entry(hop).or_insert(at);
        *due = (*due).min(at);
    }
}

impl PlaneHost {
    /// Run the earliest pending poll if it is due by `until`; whether
    /// one ran.
    fn poll_next(&mut self, plane: &mut WiredPlane, until: Instant) -> bool {
        let Some((hop, at)) = self
            .polls
            .iter()
            .map(|(&h, &t)| (h, t))
            .min_by_key(|&(h, t)| (t, h))
        else {
            return false;
        };
        if at > until {
            return false;
        }
        self.polls.remove(&hop);
        plane.poll(hop as usize, at, self);
        true
    }
}

proptest! {
    /// Wired-plane conservation: offered == delivered + counted drops,
    /// no duplication, and every net codepoint change is lattice-legal.
    #[test]
    fn impairment_pipeline_conserves_packets(
        stages in proptest::collection::vec(arb_stage(), 1..5),
        bottleneck in proptest::option::of((
            1e6f64..1e8,
            any::<bool>(),
            proptest::collection::vec((0u64..200_000, 1e6f64..1e8), 0..3),
        )),
        arrivals in proptest::collection::vec((0u64..200_000, 0usize..4), 1..150),
        seed in any::<u64>(),
    ) {
        let spec = ImpairmentSpec { stages };
        prop_assert!(spec.validate().is_ok(), "generated stages are legal");
        let root = l4span::sim::SimRng::new(seed);
        let rngs = (0..spec.stages.len())
            .map(|k| root.derive(40_000 + k as u64))
            .collect();
        let mut plane = WiredPlane::new(&spec, rngs);
        if let Some((rate_bps, l4s, steps)) = bottleneck {
            let aqm = if l4s {
                RouterAqm::DualPi2(DualPi2::default())
            } else {
                RouterAqm::Droptail
            };
            let schedule: Vec<(Instant, f64)> = steps
                .into_iter()
                .map(|(t_us, bps)| (Instant::from_micros(t_us), bps))
                .collect();
            // A 64 KiB buffer, so bursts overflow it and its tail drops
            // enter the count too.
            let router = Router::new(rate_bps, 1 << 16, aqm, root.derive(3));
            plane = plane.then_router(router, &schedule);
        }

        let mut t_sorted = arrivals;
        t_sorted.sort();
        let hdr = TcpHeader::default();
        let mut host = PlaneHost::default();
        let mut sent_ecn: Vec<Ecn> = Vec::new();
        for (k, (t_us, ecn_k)) in t_sorted.into_iter().enumerate() {
            let now = Instant::from_micros(t_us);
            // Serve the queue departures due before this arrival.
            while host.poll_next(&mut plane, now) {}
            let ecn = [Ecn::NotEct, Ecn::Ect0, Ecn::Ect1, Ecn::Ce][ecn_k];
            // seq tags the packet so delivery can be matched to its send.
            let hdr = TcpHeader { seq: k as u32, ..hdr };
            sent_ecn.push(ecn);
            plane.arrive(0, PacketBuf::tcp(1, 2, ecn, 0, &hdr, 1000), now, &mut host);
        }
        // Drain every queue hop to empty (poll-driven; bounded).
        for round in 0..100_000usize {
            if !host.poll_next(&mut plane, Instant::MAX) {
                break;
            }
            prop_assert!(round < 99_999, "queue drain livelock");
        }
        // Generous settle poll of every hop: nothing further may emerge.
        let n0 = host.delivered.len();
        for hop in 0..plane.n_hops() {
            plane.poll(hop, Instant::from_secs(3600), &mut host);
        }
        prop_assert_eq!(host.delivered.len(), n0, "drain left packets queued");

        prop_assert_eq!(
            host.delivered.len() as u64 + plane.dropped(),
            sent_ecn.len() as u64,
            "conservation: {} delivered, {:?}",
            host.delivered.len(),
            plane.impairment()
        );
        // No duplication, and each packet's net rewrite is lattice-legal.
        let mut seen = std::collections::HashSet::new();
        for p in &host.delivered {
            let tcp = p.tcp_header().expect("tcp survives");
            prop_assert!(seen.insert(tcp.seq), "duplicate delivery of {}", tcp.seq);
            let sent = sent_ecn[tcp.seq as usize];
            prop_assert!(
                sent == p.ecn() || Ecn::transition_legal(sent, p.ecn()),
                "illegal net transition {:?} -> {:?}",
                sent,
                p.ecn()
            );
        }
    }
}

proptest! {
    /// Cross-shard mailbox contract (PR 8): the coordinator's delivery
    /// order is a pure function of `(time, source shard, extraction
    /// sequence)`. Each shard's extraction sequence is deterministic —
    /// `EventQueue::drain_ordered` yields `(time, seq)` order with
    /// same-instant FIFO — and sorting the pooled envelopes by that
    /// triple recovers a single total order no matter how the
    /// per-shard outboxes were interleaved when collected.
    #[test]
    fn mailbox_drain_order_is_pure(
        outboxes in proptest::collection::vec(
            proptest::collection::vec(0u64..5_000, 0..24), 1..5),
        swaps in proptest::collection::vec((0usize..96, 0usize..96), 0..96),
    ) {
        let mut envelopes = Vec::new();
        for (s, times) in outboxes.iter().enumerate() {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(Instant::ZERO + Duration::from_nanos(t), i);
            }
            let drained = q.drain_ordered();
            // Non-decreasing time; same-instant envelopes keep their
            // scheduling (FIFO) order.
            for w in drained.windows(2) {
                prop_assert!(w[0].0 <= w[1].0, "drain is time-ordered");
                if w[0].0 == w[1].0 {
                    prop_assert!(w[0].1 < w[1].1, "same-instant FIFO");
                }
            }
            for (k, (at, id)) in drained.into_iter().enumerate() {
                envelopes.push((at, s, k, id));
            }
        }
        // Any collection interleaving sorts to the same delivery order.
        let mut a = envelopes.clone();
        let mut b = envelopes;
        for &(i, j) in &swaps {
            if i < b.len() && j < b.len() {
                b.swap(i, j);
            }
        }
        a.sort_by_key(|&(at, s, k, _)| (at, s, k));
        b.sort_by_key(|&(at, s, k, _)| (at, s, k));
        prop_assert_eq!(&a, &b);
        // The key is strictly totally ordered: no two envelopes tie.
        for w in a.windows(2) {
            prop_assert!(
                (w[0].0, w[0].1, w[0].2) < (w[1].0, w[1].1, w[1].2),
                "delivery key is unique"
            );
        }
    }
}

proptest! {
    /// FEC/ARQ ledger conservation (PR 10): whatever the loss pattern —
    /// source losses, repair losses, duplicate arrivals, lost
    /// retransmissions — closing the stream partitions every offered
    /// sequence into exactly one of delivered / repaired / abandoned.
    #[test]
    fn fec_ledger_is_conserved_under_arbitrary_loss(
        lost in proptest::collection::vec(any::<bool>(), 1..200),
        repair_lost in any::<u64>(),
        dup_every in 1u64..7,
    ) {
        use l4span::cc::fec::{FecReceiverCore, FecSenderCore, NackVerdict};
        let deadline = Duration::from_millis(100);
        let mut s = FecSenderCore::new(deadline);
        let mut r = FecReceiverCore::new(deadline);
        let mut t = Instant::ZERO;
        let mut nacks = Vec::new();
        let mut repairs_sent = 0u64;
        for &l in &lost {
            let seq = s.source(t);
            if !l {
                r.on_source(seq, t);
                if seq.is_multiple_of(dup_every) {
                    // The network duplicated the packet.
                    r.on_source(seq, t);
                }
            }
            if let Some((base, end)) = s.repair_due() {
                repairs_sent += 1;
                if (repair_lost >> (repairs_sent % 64)) & 1 == 0 {
                    r.on_repair(base, end, t);
                }
            }
            t += Duration::from_millis(2);
            nacks.clear();
            r.poll_nacks(t, &mut nacks);
            for &seq in &nacks {
                // A third of the granted retransmissions get lost too.
                if s.on_nack(seq, t) == NackVerdict::Retx && seq % 3 != 0 {
                    r.on_source(seq, t);
                }
            }
        }
        let offered = s.offered;
        prop_assert_eq!(offered, lost.len() as u64);
        r.close(offered, t + Duration::from_secs(2));
        prop_assert_eq!(
            r.delivered + r.repaired + r.abandoned,
            offered,
            "partition must be exact: {} + {} + {} != {} (dups {})",
            r.delivered, r.repaired, r.abandoned, offered, r.duplicates
        );
        if lost.iter().all(|&l| !l) {
            prop_assert_eq!(r.abandoned, 0, "nothing to abandon without loss");
            prop_assert_eq!(r.delivered, offered);
        }
    }
}

// --- One queue entry per timer owner ------------------------------------

proptest! {
    /// A timer owner that asks for wake-ups in any pattern — later,
    /// earlier, past-due, repeated — through its slot in the event
    /// queue's wake-up lane: every wake-up asked for fires, at the
    /// instant asked (never later); the owner never has more than one
    /// entry queued, so every pop is one it still wants — there is no
    /// superseded pop to skip; and each standing arm yields exactly one
    /// pop, however often it moved.
    #[test]
    fn armed_wakeups_fire_every_ask_once_from_one_queue_entry(
        asks in proptest::collection::vec((0u64..40, 0u64..60, 0u64..30), 1..120),
    ) {
        // The owner's handler: note the fire, then re-arm for the
        // earliest instant still wanted (as a sender re-arms from its
        // `next_activity`).
        struct Owner {
            queue: EventQueue<()>,
            /// Instants a wake-up was asked for and has not fired at.
            wanted: Vec<Instant>,
            /// Arms that found the slot disarmed.
            standing: u64,
            pops: u64,
        }
        impl Owner {
            fn arm(&mut self, at: Instant) {
                self.standing += u64::from(self.queue.is_empty());
                self.queue.arm(0, at, || ());
                assert_eq!(self.queue.len(), 1, "one entry, moved in place");
                assert!(self.queue.next_at().is_some_and(|t| t <= at), "armed no later than asked");
            }
            fn pop_until(&mut self, until: Instant) {
                while self.queue.next_at().is_some_and(|t| t <= until) {
                    let (now, ()) = self.queue.pop().expect("peeked");
                    self.pops += 1;
                    assert!(
                        self.wanted.iter().all(|&w| w >= now),
                        "a wake-up asked for before {now:?} was missed"
                    );
                    assert!(self.wanted.contains(&now), "a pop nobody wanted at {now:?}");
                    self.wanted.retain(|&w| w != now);
                    if let Some(&next) = self.wanted.iter().min() {
                        self.arm(next);
                    }
                }
            }
        }

        let mut o = Owner {
            queue: EventQueue::with_wakeups(0, [0]),
            wanted: Vec::new(),
            standing: 0,
            pops: 0,
        };
        let mut now = Instant::ZERO;
        for (advance, ahead, behind) in asks {
            now += Duration::from_micros(advance);
            o.pop_until(now);
            // Ask for `now + ahead − behind`: often in the past, which
            // means now.
            let at = Instant::from_micros((now.as_nanos() / 1000 + ahead).saturating_sub(behind));
            o.wanted.push(at.max(now));
            o.arm(at.max(now));
        }
        o.pop_until(Instant::MAX);
        prop_assert!(o.wanted.is_empty(), "unfired: {:?}", o.wanted);
        prop_assert_eq!(o.pops, o.standing, "one pop per standing arm");
        prop_assert!(o.queue.is_empty(), "disarmed once everything fired");
    }
}
