//! RAN-layer invariants under randomised inputs: scheduler conservation,
//! PHY monotonicity, channel purity, whole-cell byte conservation, and
//! the uplink data plane's grant/BSR/ARQ contracts.

use proptest::prelude::*;

use l4span_net::{Ecn, PacketBuf, TcpHeader};
use l4span_ran::channel::{ChannelProfile, FadingChannel};
use l4span_ran::config::{CellConfig, RlcMode, SchedulerKind};
use l4span_ran::ids::{Qfi, UeId};
use l4span_ran::mac::{
    allocate_proportional_fair_into, allocate_round_robin_into, AllocScratch, Candidate,
};
use l4span_ran::phy;
use l4span_ran::{DrbId, Gnb, SlotOutput, UeStack};
use l4span_sim::{Duration, Instant, SimRng};

fn arb_candidates() -> impl Strategy<Value = Vec<Candidate>> {
    proptest::collection::vec((0usize..1_000_000, 0usize..4000, 0.0f64..1e6), 1..24).prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, (backlog, per_rbg, avg))| Candidate {
                ue: UeId(i as u16),
                backlog,
                bytes_per_rbg: per_rbg,
                avg_throughput: avg,
            })
            .collect()
    })
}

proptest! {
    /// Neither scheduler ever over-allocates RBGs, grants them to UEs
    /// without backlog, or grants zero-size allocations.
    #[test]
    fn schedulers_conserve_rbgs(cands in arb_candidates(), n_rbgs in 1usize..20) {
        let mut scratch = AllocScratch::default();
        let (mut rr, mut pf) = (Vec::new(), Vec::new());
        allocate_round_robin_into(&cands, n_rbgs, &mut 0, &mut scratch, &mut rr);
        allocate_proportional_fair_into(&cands, n_rbgs, &mut scratch, &mut pf);
        for grants in [rr, pf] {
            let total: usize = grants.iter().map(|g| g.rbgs).sum();
            prop_assert!(total <= n_rbgs, "over-allocated: {total}/{n_rbgs}");
            for g in grants {
                prop_assert!(g.rbgs > 0);
                let c = &cands[g.cand];
                prop_assert!(c.backlog > 0 && c.bytes_per_rbg > 0);
            }
        }
    }

    /// TBS grows monotonically with both CQI and PRB count.
    #[test]
    fn tbs_is_monotone(prbs in 1usize..52, cqi in 1u8..15) {
        prop_assert!(phy::tbs_bytes(cqi, prbs, 126) <= phy::tbs_bytes(cqi + 1, prbs, 126));
        prop_assert!(phy::tbs_bytes(cqi, prbs, 126) <= phy::tbs_bytes(cqi, prbs + 1, 126));
    }

    /// BLER is monotone decreasing in SNR for every CQI.
    #[test]
    fn bler_monotone_in_snr(cqi in 1u8..=15, snr10 in -100i32..300) {
        let s = snr10 as f64 / 10.0;
        prop_assert!(phy::bler(cqi, s) >= phy::bler(cqi, s + 0.5) - 1e-12);
        prop_assert!((0.0..=1.0).contains(&phy::bler(cqi, s)));
    }

    /// The fading channel is a pure function of time: whatever order
    /// instants are queried in, each answer is bit-equal to what a
    /// channel that has never been sampled before (so holds no memo)
    /// gives. Grid points 0..40 over the 8-slot memo ring force hits,
    /// look-backs past the ring and points that alias one slot.
    #[test]
    fn channel_is_pure(
        seed in any::<u64>(),
        queries in proptest::collection::vec((0u64..40, 0u64..2_000_000), 2..40),
        profile in prop_oneof![
            Just(ChannelProfile::Static),
            Just(ChannelProfile::Pedestrian),
            Just(ChannelProfile::Vehicular)
        ],
    ) {
        let fresh = || FadingChannel::new(profile, 20.0, 3.75e9, &mut SimRng::new(seed));
        let ch = fresh();
        for &(point, offset) in &queries {
            let at = Instant::from_nanos(point * 2_000_000 + offset);
            prop_assert_eq!(ch.snr_db(at).to_bits(), fresh().snr_db(at).to_bits());
        }
        let mut points: Vec<u64> = queries.iter().map(|&(p, _)| p).collect();
        points.sort_unstable();
        points.dedup();
        if profile == ChannelProfile::Static {
            prop_assert_eq!(ch.evaluations(), 0);
        } else {
            let evals = ch.evaluations() as usize;
            prop_assert!(points.len() <= evals && evals <= queries.len());
        }
    }

    /// Whole-cell conservation: every enqueued SDU is eventually either
    /// delivered (counted via segments), still queued, in flight, or was
    /// tail-dropped — bytes never appear from nowhere.
    #[test]
    fn gnb_never_creates_bytes(
        seed in any::<u64>(),
        n_pkts in 1usize..80,
        slots in 20u64..200,
    ) {
        let cfg = CellConfig::default();
        let mut g = Gnb::new(cfg.clone(), SchedulerKind::RoundRobin, SimRng::new(seed));
        let mut rng = SimRng::new(seed ^ 0xABCD);
        let ch = FadingChannel::new(ChannelProfile::Vehicular, 15.0, cfg.carrier_hz, &mut rng);
        g.add_ue(UeId(0), ch, &[(DrbId(0), RlcMode::Am)]);
        let hdr = TcpHeader::default();
        let mut enqueued_bytes = 0usize;
        for i in 0..n_pkts {
            let p = PacketBuf::tcp(1, 2, Ecn::Ect1, i as u16, &hdr, 1000);
            let w = p.wire_len();
            if g.enqueue_downlink(UeId(0), Qfi(0), p, Instant::ZERO).is_some() {
                enqueued_bytes += w;
            }
        }
        let mut segment_bytes = 0usize;
        let mut out = SlotOutput::default();
        for k in 0..slots {
            g.on_slot_into(Instant::from_micros(500 * k), &mut out);
            for d in &out.deliveries {
                for (_, seg) in &d.tb.segments {
                    // Count only first transmissions of each byte range:
                    // retransmissions may repeat ranges, so only bound-check.
                    segment_bytes += seg.len as usize;
                }
            }
        }
        let still_queued = g.rlc_backlog_bytes(UeId(0), DrbId(0));
        // Delivered (incl. retransmitted duplicates) can exceed enqueued
        // only by retransmission, which HARQ caps at max_attempts×.
        prop_assert!(
            segment_bytes <= enqueued_bytes * cfg.harq_max_attempts as usize + 1,
            "delivered {segment_bytes} vs enqueued {enqueued_bytes}"
        );
        prop_assert!(still_queued <= enqueued_bytes);
    }

    /// Uplink grant conservation: the sum of granted TBS never exceeds
    /// one uplink slot's capacity, grants only go to UEs with a reported
    /// buffer status, and every grant is debited against it.
    #[test]
    fn ul_grants_never_exceed_slot_capacity(
        bsrs in proptest::collection::vec(0usize..2_000_000, 1..12),
        seed in any::<u64>(),
    ) {
        let cfg = CellConfig::default();
        let mut g = Gnb::new(cfg.clone(), SchedulerKind::RoundRobin, SimRng::new(seed));
        let root = SimRng::new(seed ^ 0x55AA);
        for (i, &b) in bsrs.iter().enumerate() {
            let ch = FadingChannel::new(
                ChannelProfile::Pedestrian,
                18.0,
                cfg.carrier_hz,
                &mut root.derive(i as u64),
            );
            g.add_ue(UeId(i as u16), ch, &[(DrbId(0), RlcMode::Am)]);
            g.ensure_ul_drb(UeId(i as u16), DrbId(0), RlcMode::Am);
            g.on_ul_bsr(UeId(i as u16), b);
        }
        let mut grants = Vec::new();
        g.allocate_ul_grants_into(Instant::from_millis(5), &mut grants);
        // RBG rounding can over-shoot by at most one RBG of PRBs.
        let cap = phy::tbs_bytes(15, cfg.n_prbs + cfg.rbg_size, cfg.re_per_prb);
        let total: usize = grants.iter().map(|&(_, b, _)| b).sum();
        prop_assert!(total <= cap, "granted {total} > slot capacity {cap}");
        for &(ue, bytes, _) in &grants {
            prop_assert!(bytes > 0, "zero-byte grant");
            prop_assert!(
                bsrs[ue.0 as usize] > 0,
                "granted {ue} whose BSR was empty"
            );
            prop_assert!(g.ul_known_bsr(ue) <= bsrs[ue.0 as usize]);
        }
    }

    /// The BSR never under-reports: whenever a report goes out, the sum
    /// of its entries covers the UE's true RLC backlog — and bytes
    /// scheduled per grant never exceed the granted TBS.
    #[test]
    fn bsr_never_underreports_and_tbs_respect_grants(
        sizes in proptest::collection::vec(200usize..1400, 1..40),
        grant in 400usize..20_000,
        seed in any::<u64>(),
    ) {
        let mut ue = UeStack::new(
            UeId(0),
            &[(DrbId(0), RlcMode::Am)],
            Duration::from_millis(10),
            Duration::from_millis(2),
            Duration::from_millis(5),
            SimRng::new(seed),
        );
        ue.configure_ul_drb(DrbId(0), RlcMode::Am, 4096, 8);
        let hdr = TcpHeader::default();
        let mut t = Instant::from_millis(1);
        let mut bsr = Vec::new();
        for (i, &sz) in sizes.iter().enumerate() {
            let p = PacketBuf::tcp(1, 2, Ecn::Ect1, i as u16, &hdr, sz);
            ue.enqueue_uplink_data(DrbId(0), p, t);
            bsr.clear();
            ue.ul_bsr_into(t + Duration::from_millis(6), &mut bsr);
            let reported: usize = bsr.iter().map(|&(_, b)| b).sum();
            prop_assert!(
                reported >= ue.ul_backlog_bytes(),
                "BSR {reported} under-reports backlog {}",
                ue.ul_backlog_bytes()
            );
            if let Ok(tb) = ue.build_ul_tb(grant, 10, t + Duration::from_millis(6), Vec::new()) {
                prop_assert!(tb.bytes <= grant, "TB {} > grant {grant}", tb.bytes);
                let seg_total: usize = tb
                    .segments
                    .iter()
                    .map(|(_, s)| s.len as usize + 8)
                    .sum();
                prop_assert_eq!(seg_total, tb.bytes, "TB bytes ≠ segments + overhead");
            }
            t += Duration::from_millis(1);
        }
    }

    /// End-to-end uplink ARQ under random air loss: every uplink SDU is
    /// delivered to the gNB **exactly once, in SN order** — the uplink
    /// mirror of the downlink lossless-forwarding property.
    #[test]
    fn ul_rlc_delivers_exactly_once_in_order(
        sizes in proptest::collection::vec(200usize..1400, 1..40),
        loss_pct in 0u32..40,
        seed in any::<u64>(),
    ) {
        let cfg = CellConfig::default();
        let mut g = Gnb::new(cfg.clone(), SchedulerKind::RoundRobin, SimRng::new(seed));
        let ch = FadingChannel::new(
            ChannelProfile::Static,
            30.0, // near-zero BLER: losses come from our coin below
            cfg.carrier_hz,
            &mut SimRng::new(seed ^ 1),
        );
        g.add_ue(UeId(0), ch, &[(DrbId(0), RlcMode::Am)]);
        g.ensure_ul_drb(UeId(0), DrbId(0), RlcMode::Am);
        let mut ue = UeStack::new(
            UeId(0),
            &[(DrbId(0), RlcMode::Am)],
            Duration::from_millis(10),
            Duration::from_millis(2),
            Duration::from_millis(5),
            SimRng::new(seed ^ 2),
        );
        ue.configure_ul_drb(DrbId(0), RlcMode::Am, 4096, 8);
        let mut air = SimRng::new(seed ^ 3);
        let hdr = TcpHeader::default();
        let mut t = Instant::from_millis(10);
        for (i, &sz) in sizes.iter().enumerate() {
            let p = PacketBuf::tcp(1, 2, Ecn::Ect1, i as u16, &hdr, sz);
            prop_assert!(ue.enqueue_uplink_data(DrbId(0), p, t).is_some());
        }
        let mut delivered: Vec<u64> = Vec::new();
        let mut decoded = Vec::new();
        let mut bsr = Vec::new();
        let mut grants = Vec::new();
        let mut statuses = Vec::new();
        for _ in 0..4000 {
            bsr.clear();
            ue.ul_bsr_into(t, &mut bsr);
            if !bsr.is_empty() {
                g.on_ul_bsr(UeId(0), bsr.iter().map(|&(_, b)| b).sum());
            }
            g.allocate_ul_grants_into(t, &mut grants);
            for &(_, bytes, cqi) in &grants {
                if let Ok(tb) = ue.build_ul_tb(bytes, cqi, t, g.take_segments()) {
                    prop_assert!(tb.bytes <= bytes);
                    if air.chance(f64::from(loss_pct) / 100.0) {
                        continue; // the air ate it; ARQ must recover
                    }
                    // Treat HARQ retx as further loss: stresses ARQ.
                    g.receive_ul_tb(tb, t, &mut decoded);
                    delivered.extend(decoded.drain(..).map(|(_, d)| d.sn));
                }
            }
            statuses.clear();
            g.ul_statuses_into(t, &mut statuses);
            for (ue_id, drb, st) in statuses.drain(..) {
                ue.on_ul_status(drb, &st, t);
                g.recycle_ul_status(ue_id, drb, st);
            }
            t += Duration::from_micros(2500);
            if delivered.len() == sizes.len() {
                break;
            }
        }
        let expected: Vec<u64> = (0..sizes.len() as u64).collect();
        prop_assert_eq!(
            delivered, expected,
            "uplink SDUs must arrive exactly once, in SN order (loss {loss_pct}%)"
        );
    }
}
