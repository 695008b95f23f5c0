//! The gNB: CU-UP (SDAP + PDCP) and DU (RLC + MAC + PHY) composed into
//! one cell, driven by a slot clock.
//!
//! The harness owns the event loop; this struct is a passive state
//! machine in the smoltcp idiom:
//!
//! * [`Gnb::enqueue_downlink`] — a packet arrives from the core (after
//!   L4Span has seen it), is mapped by SDAP to a DRB, whose transmit
//!   bearer ([`BearerTx`], the type the UE runs for its uplink) numbers
//!   it (PDCP) and queues it (the DU's RLC);
//! * [`Gnb::on_slot_into`] — one TDD slot elapses: HARQ retransmissions
//!   are served first, then the scheduler allocates RBGs, RLC queues are
//!   drained into transport blocks, and block-error outcomes are drawn;
//! * [`Gnb::on_rlc_status`] — an RLC AM status report arrives on the
//!   uplink, acknowledging SDUs (→ F1-U *highest delivered*) and NACKing
//!   losses (→ ARQ retransmission).
//!
//! Each UE's uplink receivers are one [`RxBearers`], the type the UE
//! holds for its downlink.
//!
//! Outputs are plain data (transport-block deliveries with an arrival
//! time, F1-U status frames, per-SDU timing records) that the harness
//! routes to the UE stacks and to L4Span.

use l4span_net::PacketBuf;
use l4span_sim::{stats::Ewma, Instant, SimRng};

use crate::bearer::{BearerTx, DrbHandoverState, RxBearers};
use crate::channel::FadingChannel;
use crate::config::{CellConfig, RlcMode, SchedulerKind, SlotRole};
use crate::f1u::DlDataDeliveryStatus;
use crate::ids::{DrbId, Qfi, UeId};
use crate::mac::{self, Candidate, Grant, TransportBlock};
use crate::phy;
use crate::rlc::{RlcStatus, RxDelivery, Segment, Sn, TxRecord};
use crate::sdap::SdapEntity;
use crate::table::IdTable;

/// Gain of the proportional-fair average-throughput EWMA (per slot);
/// 1/100 ≈ a 50 ms horizon at 0.5 ms slots.
const PF_EWMA_GAIN: f64 = 0.01;

/// Chase-combining SNR gain per HARQ retransmission attempt, in dB.
const HARQ_COMBINING_GAIN_DB: f64 = 3.0;

/// A transport block scheduled for over-the-air delivery.
#[derive(Debug)]
pub struct TbDelivery {
    /// The block, with its RLC segments.
    pub tb: TransportBlock,
    /// When the UE decodes it (end of the slot).
    pub deliver_at: Instant,
}

/// Everything one downlink slot produced.
#[derive(Debug, Default)]
pub struct SlotOutput {
    /// Whether this was a DL, special, or UL slot.
    pub role: Option<SlotRole>,
    /// Successfully-decoded transport blocks to hand to UE stacks.
    pub deliveries: Vec<TbDelivery>,
    /// F1-U delivery-status frames triggered this slot (transmit side).
    pub f1u: Vec<DlDataDeliveryStatus>,
    /// Per-SDU transmit-timing records (metrics).
    pub txed_records: Vec<(UeId, DrbId, TxRecord)>,
    /// Transport blocks abandoned after max HARQ attempts this slot.
    pub lost_tbs: usize,
}

/// Everything a source gNB hands the target over Xn when a UE moves:
/// the SDAP QFI→DRB map, the CA configuration, and per-DRB PDCP/RLC
/// context (TS 38.300 §9.2.3.2 handover with data forwarding). The
/// radio channel itself does *not* travel — the target cell has its own.
#[derive(Debug)]
pub struct UeHandoverCtx {
    /// QFI→DRB mapping rules (CU-UP configuration follows the UE).
    pub sdap: SdapEntity,
    /// Carrier-aggregation factor at the source (kept unless the target
    /// reconfigures it).
    pub ca_factor: u8,
    /// Per-DRB context, in DRB-id order.
    pub drbs: Vec<DrbHandoverState>,
    /// gNB-side uplink RLC receive entities. The target applies PDCP
    /// re-establishment (drop partials, keep the in-order delivery
    /// point) before installing them, so uplink SNs — like downlink
    /// ones — are continuous across the switch.
    pub ul_rx: RxBearers,
}

/// Outcome of an uplink transport block arriving at the gNB PHY.
#[derive(Debug)]
pub enum UlTbOutcome {
    /// Decoded: the reassembled uplink SDUs, in per-DRB SN order, were
    /// appended to the caller's buffer, ready for the core (and the
    /// CU's uplink path).
    Decoded,
    /// Block error: the UE holds the block and retransmits after the
    /// HARQ round trip (chase combining raises the next attempt's SNR).
    Retx(TransportBlock),
    /// HARQ exhausted (or the UE is gone): recovery falls to RLC ARQ in
    /// AM, or the data is lost in UM — exactly as on the downlink.
    Lost,
}

/// Counters for Table-1-style accounting.
#[derive(Debug, Default, Clone, Copy)]
pub struct GnbStats {
    /// Transport blocks transmitted (first attempts).
    pub tbs_sent: u64,
    /// HARQ retransmission attempts.
    pub harq_retx: u64,
    /// Transport blocks lost after max attempts.
    pub tbs_lost: u64,
    /// Downlink SDUs tail-dropped at full RLC queues, forwarded ones at
    /// handover included: the bearers' own counts, live and detached.
    pub sdus_dropped: u64,
    /// Uplink transport blocks received (first attempts).
    pub ul_tbs_sent: u64,
    /// Uplink HARQ retransmission attempts received.
    pub ul_harq_retx: u64,
    /// Uplink transport blocks lost after max attempts (or mid-handover).
    pub ul_tbs_lost: u64,
    /// Jakes sums the cell's fading channels evaluated
    /// ([`FadingChannel::evaluations`]): the radio model's work, which
    /// should track the distinct (UE, 2 ms grid point) pairs read.
    pub fading_evals: u64,
}

#[derive(Debug)]
struct UeCtx {
    channel: FadingChannel,
    sdap: SdapEntity,
    drbs: IdTable<DrbId, BearerTx>,
    /// Link-adaptation memo: the fading grid point (plus one; 0 = none)
    /// the stale-CQI reader was last on, the CQI chosen there and the
    /// bytes one RBG of one carrier carries at it. All three follow from
    /// the grid point alone, so they are recomputed only when it moves.
    la_point: u64,
    la_cqi: u8,
    la_rbg_bytes: usize,
    /// PF average throughput in bytes/slot.
    avg_tput: Ewma,
    /// Bytes of the transport block built for this UE in the current
    /// slot (0 = none); folded into `avg_tput` at the end of the slot.
    served_bytes: usize,
    /// Intra-UE DRB round-robin cursor.
    drb_cursor: usize,
    /// Carrier-aggregation factor: 1 = primary carrier only; 2 = one
    /// secondary carrier of equal width, etc. (paper §7: "CA and MIMO
    /// only change the workflow of MAC and PHY layers, captured by
    /// L4Span's egress rate prediction").
    ca_factor: u8,
    /// Uplink RLC receive entities (empty unless the UE has UL data
    /// bearers configured).
    ul_rx: RxBearers,
    /// Most recent buffer-status report from the UE, minus bytes already
    /// granted against it (refreshed by every arriving BSR).
    ul_bsr: usize,
    /// PF average **uplink** throughput in granted bytes per UL slot —
    /// its own EWMA: coupling UL fairness to the downlink history would
    /// starve a UE's uplink because its downlink is busy.
    ul_avg_tput: Ewma,
    /// Bytes granted to this UE in the current uplink slot (0 = none);
    /// folded into `ul_avg_tput` at the end of the allocation.
    ul_granted_bytes: usize,
}

impl UeCtx {
    fn new(
        channel: FadingChannel,
        sdap: SdapEntity,
        drbs: IdTable<DrbId, BearerTx>,
        ca_factor: u8,
        ul_rx: RxBearers,
    ) -> UeCtx {
        UeCtx {
            channel,
            sdap,
            drbs,
            la_point: 0,
            la_cqi: 0,
            la_rbg_bytes: 0,
            avg_tput: Ewma::new(PF_EWMA_GAIN),
            served_bytes: 0,
            drb_cursor: 0,
            ca_factor,
            ul_rx,
            ul_bsr: 0,
            ul_avg_tput: Ewma::new(PF_EWMA_GAIN),
            ul_granted_bytes: 0,
        }
    }

    /// The scheduler's link adaptation for this UE: bring `la_cqi` (the
    /// CQI read off the channel as it was at `stale_at`) and
    /// `la_rbg_bytes` up to date. Called only for a UE the slot can
    /// grant — one with downlink backlog or a known uplink BSR: both
    /// allocators drop zero-backlog candidates before reading their
    /// rate, and the channel's SNR is a pure function of the grid
    /// point, so skipping idle UEs changes no grant, only how often the
    /// fading sum is evaluated (`GnbStats::fading_evals`).
    fn adapt_link(&mut self, stale_at: Instant, cfg: &CellConfig) {
        let point = self.channel.grid_point(stale_at) + 1;
        if self.la_point != point {
            self.la_point = point;
            self.la_cqi = phy::select_mcs(
                self.channel.snr_db(stale_at),
                cfg.link_adaptation_backoff_db,
            );
            self.la_rbg_bytes = phy::tbs_bytes(self.la_cqi, cfg.rbg_size, cfg.re_per_prb);
        }
    }
}

#[derive(Debug)]
struct PendingHarq {
    tb: TransportBlock,
    retx_at: Instant,
    rbgs: usize,
}

/// One simulated cell.
#[derive(Debug)]
pub struct Gnb {
    cfg: CellConfig,
    scheduler: SchedulerKind,
    rr_cursor: usize,
    /// Uplink-grant round-robin cursor (independent of the DL one so
    /// adding uplink traffic does not perturb downlink rotation).
    ul_rr_cursor: usize,
    ues: IdTable<UeId, UeCtx>,
    pending_harq: Vec<PendingHarq>,
    slot_index: u64,
    rng: SimRng,
    stats: GnbStats,
    // Reusable per-slot scratch (one candidate per row of `ues`, in row
    // order, rebuilt each slot) so the 2 kHz slot tick allocates nothing
    // in steady state.
    scratch_cands: Vec<Candidate>,
    scratch_txed: Vec<TxRecord>,
    /// Spare buffer ping-ponged with `pending_harq` each slot so the
    /// retransmission sweep reallocates nothing at steady state.
    scratch_harq: Vec<PendingHarq>,
    /// Pool of emptied TB segment buffers. TBs are built from here and
    /// consumers hand the drained buffers back via
    /// [`Gnb::recycle_segments`], so steady-state TB construction does
    /// not touch the allocator.
    segment_pool: Vec<Vec<(DrbId, Segment)>>,
    /// Reusable RLC-delivery scratch for the uplink TB decode path.
    scratch_rx: Vec<RxDelivery>,
    /// Reusable working sets for the MAC allocators plus the grant
    /// list they emit, so the scheduling step of the slot tick stays
    /// allocation-free (PR 8's shard epochs are slot-tick bound).
    scratch_alloc: mac::AllocScratch,
    scratch_grants: Vec<Grant>,
}

impl Gnb {
    /// Create a cell with the given configuration and scheduler.
    pub fn new(cfg: CellConfig, scheduler: SchedulerKind, rng: SimRng) -> Gnb {
        Gnb {
            cfg,
            scheduler,
            rr_cursor: 0,
            ul_rr_cursor: 0,
            ues: IdTable::default(),
            pending_harq: Vec::new(),
            slot_index: 0,
            rng,
            stats: GnbStats::default(),
            scratch_cands: Vec::new(),
            scratch_txed: Vec::new(),
            scratch_harq: Vec::new(),
            segment_pool: Vec::new(),
            scratch_rx: Vec::new(),
            scratch_alloc: mac::AllocScratch::default(),
            scratch_grants: Vec::new(),
        }
    }

    /// An emptied TB segment buffer from the pool (a fresh one while the
    /// pool is still filling). Downlink blocks are built on these, and
    /// so are the uplink blocks of this cell's UEs
    /// ([`UeStack::build_ul_tb`](crate::UeStack::build_ul_tb)): either
    /// way the buffer comes home through [`Gnb::recycle_segments`].
    pub fn take_segments(&mut self) -> Vec<(DrbId, Segment)> {
        self.segment_pool.pop().unwrap_or_default()
    }

    /// Return an emptied TB segment buffer to the pool (see
    /// [`Gnb::take_segments`]). Bounded so a burst cannot pin memory.
    pub fn recycle_segments(&mut self, mut v: Vec<(DrbId, Segment)>) {
        v.clear();
        if self.segment_pool.len() < 64 {
            self.segment_pool.push(v);
        }
    }

    /// Cell configuration.
    pub fn config(&self) -> &CellConfig {
        &self.cfg
    }

    /// Cumulative counters: those of detached UEs plus the live ones.
    pub fn stats(&self) -> GnbStats {
        let mut s = self.stats;
        for c in self.ues.values() {
            s.fading_evals += c.channel.evaluations();
            s.sdus_dropped += c.drbs.values().map(|b| b.rlc.drop_count()).sum::<u64>();
        }
        s
    }

    /// Attach a UE with its channel and DRB set. The first DRB listed
    /// becomes the SDAP default.
    pub fn add_ue(&mut self, ue: UeId, channel: FadingChannel, drbs: &[(DrbId, RlcMode)]) {
        assert!(!drbs.is_empty(), "a UE needs at least one DRB");
        let mut map = IdTable::default();
        for &(id, mode) in drbs {
            let b = BearerTx::new(mode, self.cfg.rlc_queue_sdus, self.cfg.segment_overhead);
            map.insert(id, b);
        }
        let ctx = UeCtx::new(channel, SdapEntity::new(drbs[0].0), map, 1, RxBearers::default());
        let prev = self.ues.insert(ue, ctx);
        assert!(prev.is_none(), "duplicate UE id {ue}");
    }

    /// Attached UE ids, in order.
    pub fn ue_ids(&self) -> Vec<UeId> {
        self.ues.keys().collect()
    }

    /// Replace a UE's channel in place — the intra-gNB handover of the
    /// paper's §7 discussion: "Upon handover, the buffered bytes are sent
    /// to a new RAN, and the markings are already done based on the old
    /// estimates." RLC queues, PDCP SNs, and HARQ state all survive; only
    /// the radio changes, so L4Span's next estimation window re-learns
    /// the egress rate.
    pub fn replace_channel(&mut self, ue: UeId, channel: FadingChannel) {
        let ctx = self.ues.get_mut(ue).expect("unknown UE");
        self.stats.fading_evals += ctx.channel.evaluations();
        ctx.channel = channel;
        ctx.la_point = 0;
    }

    /// Detach a UE for handover: remove it from this cell and serialize
    /// the context the target needs (PDCP SN state, RLC buffered and
    /// unacknowledged SDUs for lossless forwarding, the SDAP QFI map).
    /// Transport blocks pending HARQ retransmission die with the source
    /// cell's PHY — in AM their SDUs are in the forwarded set anyway; in
    /// UM they are genuinely lost, exactly as over the air.
    pub fn detach_ue(&mut self, ue: UeId) -> UeHandoverCtx {
        let mut ctx = self.ues.remove(ue).expect("unknown UE");
        self.stats.fading_evals += ctx.channel.evaluations();
        // Purged HARQ blocks are radio losses like any other: count them
        // (over-the-air losses increment `tbs_lost` on HARQ exhaustion,
        // and a mobility study reading Table-1 accounting must see the
        // handover-destroyed blocks too).
        let before = self.pending_harq.len();
        self.pending_harq.retain(|p| p.tb.ue != ue);
        self.stats.tbs_lost += (before - self.pending_harq.len()) as u64;
        let drbs = ctx
            .drbs
            .drain()
            .map(|(drb, b)| {
                self.stats.sdus_dropped += b.rlc.drop_count();
                b.detach(drb)
            })
            .collect();
        UeHandoverCtx {
            sdap: ctx.sdap,
            ca_factor: ctx.ca_factor,
            drbs,
            ul_rx: ctx.ul_rx,
        }
    }

    /// Attach a UE arriving by handover: re-establish PDCP (SN numbering
    /// continues) and RLC (fresh entities in this cell's configuration),
    /// re-enqueue the forwarded SDUs as new data under their original
    /// SNs, and install the migrated SDAP map. `channel` is this cell's
    /// own radio link to the UE. Forwarded SDUs that overflow this
    /// cell's RLC queue are tail-dropped and counted.
    pub fn attach_ue_handover(
        &mut self,
        ue: UeId,
        channel: FadingChannel,
        ctx: UeHandoverCtx,
        now: Instant,
    ) {
        assert!(!ctx.drbs.is_empty(), "a UE needs at least one DRB");
        let (cap, oh) = (self.cfg.rlc_queue_sdus, self.cfg.segment_overhead);
        let mut map = IdTable::default();
        for st in ctx.drbs {
            map.insert(st.drb, BearerTx::attach(st, cap, oh, now));
        }
        // Uplink receive entities migrate whole, through PDCP
        // re-establishment: partial reassembly state from the source is
        // dropped (the UE retransmits those SDUs in full), the in-order
        // delivery point survives, and the cadence adopts this cell's
        // status period. A forced status resynchronises the UE's ARQ.
        let mut ul_rx = ctx.ul_rx;
        ul_rx.reestablish(self.cfg.rlc_status_period);
        let prev = self
            .ues
            .insert(ue, UeCtx::new(channel, ctx.sdap, map, ctx.ca_factor, ul_rx));
        assert!(prev.is_none(), "UE {ue} already attached to this cell");
    }

    /// Configure carrier aggregation for a UE: `carriers` ≥ 1 equal-width
    /// component carriers. The MAC grants the UE that multiple of the
    /// per-RBG transport block, which is exactly how CA reaches L4Span —
    /// as a larger observed egress rate (§7).
    pub fn set_carrier_aggregation(&mut self, ue: UeId, carriers: u8) {
        assert!(carriers >= 1, "at least the primary carrier");
        self.ues.get_mut(ue).expect("unknown UE").ca_factor = carriers;
    }

    /// Install a QFI→DRB mapping rule for a UE.
    pub fn map_qfi(&mut self, ue: UeId, qfi: Qfi, drb: DrbId) {
        self.ues
            .get_mut(ue)
            .expect("unknown UE")
            .sdap
            .map_qfi(qfi, drb);
    }

    /// Resolve the DRB a QFI maps to (the SDAP lookup L4Span mirrors).
    pub fn drb_for(&self, ue: UeId, qfi: Qfi) -> DrbId {
        self.ues.get(ue).expect("unknown UE").sdap.drb_for(qfi)
    }

    /// RLC transmission-queue length in SDUs (Fig. 17's metric).
    pub fn rlc_queue_len(&self, ue: UeId, drb: DrbId) -> usize {
        self.drb(ue, drb).rlc.queue_len_sdus()
    }

    /// RLC backlog in bytes awaiting (re)transmission.
    pub fn rlc_backlog_bytes(&self, ue: UeId, drb: DrbId) -> usize {
        self.drb(ue, drb).rlc.backlog_bytes()
    }

    fn drb(&self, ue: UeId, drb: DrbId) -> &BearerTx {
        self.ues
            .get(ue)
            .expect("unknown UE")
            .drbs
            .get(drb)
            .expect("unknown DRB")
    }

    /// Instantaneous SNR a UE would measure right now (diagnostics and
    /// the Fig. 18 DCI-trace generator).
    pub fn snr_db(&self, ue: UeId, now: Instant) -> f64 {
        self.ues.get(ue).expect("unknown UE").channel.snr_db(now)
    }

    /// A downlink packet arrives from the core network (post-L4Span).
    /// SDAP maps it, PDCP numbers it, RLC queues it. Returns the assigned
    /// PDCP SN, or `None` if the RLC queue was full and the packet was
    /// dropped.
    pub fn enqueue_downlink(
        &mut self,
        ue: UeId,
        qfi: Qfi,
        pkt: PacketBuf,
        now: Instant,
    ) -> Option<(DrbId, Sn)> {
        let ctx = self.ues.get_mut(ue).expect("unknown UE");
        let drb = ctx.sdap.drb_for(qfi);
        let d = ctx.drbs.get_mut(drb).expect("SDAP mapped to missing DRB");
        Some((drb, d.enqueue(pkt, now)?))
    }

    /// Advance one TDD slot starting at `now`, filling the caller's
    /// `out` buffers (cleared first). The harness's event loop calls
    /// this 2000 times per simulated second; reusing the output vectors
    /// keeps the slot tick allocation-free.
    pub fn on_slot_into(&mut self, now: Instant, out: &mut SlotOutput) {
        let role = self.cfg.slot_role(self.slot_index);
        self.slot_index += 1;
        out.deliveries.clear();
        out.f1u.clear();
        out.txed_records.clear();
        out.lost_tbs = 0;
        out.role = Some(role);
        let dl_fraction = match role {
            SlotRole::Downlink => 1.0,
            SlotRole::Special => self.cfg.special_slot_dl_fraction,
            SlotRole::Uplink => return,
        };
        let mut rbgs_left = self.cfg.n_rbgs();
        let deliver_at = now + self.cfg.slot_duration;

        // --- 1. HARQ retransmissions first (they own their resources) ---
        let mut pending = std::mem::take(&mut self.pending_harq);
        let mut still_pending = std::mem::take(&mut self.scratch_harq);
        for mut p in pending.drain(..) {
            if p.retx_at > now || p.rbgs > rbgs_left {
                still_pending.push(p);
                continue;
            }
            rbgs_left -= p.rbgs;
            self.stats.harq_retx += 1;
            p.tb.attempt += 1;
            let ue = p.tb.ue;
            let snr = self.ues.get(ue).expect("ue").channel.snr_db(now)
                + HARQ_COMBINING_GAIN_DB * f64::from(p.tb.attempt - 1);
            let err = phy::bler(p.tb.cqi, snr);
            if self.rng.chance(err) {
                if p.tb.attempt >= self.cfg.harq_max_attempts {
                    self.stats.tbs_lost += 1;
                    out.lost_tbs += 1;
                    self.recycle_segments(p.tb.segments);
                } else {
                    p.retx_at = now + self.cfg.harq_rtt;
                    still_pending.push(p);
                }
            } else {
                out.deliveries.push(TbDelivery {
                    tb: p.tb,
                    deliver_at,
                });
            }
        }
        self.pending_harq = still_pending;
        self.scratch_harq = pending;

        // --- 2. Link adaptation + scheduling for new data ---
        let stale_at = Instant::from_nanos(
            now.as_nanos().saturating_sub(self.cfg.cqi_delay.as_nanos()),
        );
        self.scratch_cands.clear();
        for (ue, ctx) in self.ues.iter_mut() {
            let backlog: usize = ctx.drbs.values().map(|d| d.rlc.backlog_bytes()).sum();
            if backlog > 0 {
                ctx.adapt_link(stale_at, &self.cfg);
            }
            let per_rbg =
                (ctx.la_rbg_bytes as f64 * dl_fraction * f64::from(ctx.ca_factor)) as usize;
            self.scratch_cands.push(Candidate {
                ue,
                backlog,
                bytes_per_rbg: per_rbg,
                avg_throughput: ctx.avg_tput.get_or(0.0),
            });
        }
        let mut grants = std::mem::take(&mut self.scratch_grants);
        match self.scheduler {
            SchedulerKind::RoundRobin => mac::allocate_round_robin_into(
                &self.scratch_cands,
                rbgs_left,
                &mut self.rr_cursor,
                &mut self.scratch_alloc,
                &mut grants,
            ),
            SchedulerKind::ProportionalFair => mac::allocate_proportional_fair_into(
                &self.scratch_cands,
                rbgs_left,
                &mut self.scratch_alloc,
                &mut grants,
            ),
        }

        // --- 3. Build transport blocks from RLC queues ---
        // A grant's candidate index is its UE's row in `ues` (one
        // candidate per row, in row order), and grants come in that order.
        for &Grant { cand, rbgs: n_rbgs } in &grants {
            let (ue, ctx) = self.ues.row_mut(cand);
            let cqi = ctx.la_cqi;
            let prbs = (n_rbgs * self.cfg.rbg_size).min(self.cfg.n_prbs);
            let budget =
                (phy::tbs_bytes(cqi, prbs, self.cfg.re_per_prb) as f64 * dl_fraction) as usize;
            if budget == 0 {
                continue;
            }
            let budget = budget * usize::from(ctx.ca_factor);
            let n_drbs = ctx.drbs.len();
            // Pooled buffer (small TBs carry 1–2 segments; pooled vecs
            // keep their grown capacity, so no regrowth in practice).
            let mut segments = self.segment_pool.pop().unwrap_or_default();
            let mut left = budget;
            for k in 0..n_drbs {
                if left <= self.cfg.segment_overhead {
                    break;
                }
                let (drb_id, d) = ctx.drbs.row_mut((ctx.drb_cursor + k) % n_drbs);
                self.scratch_txed.clear();
                let consumed =
                    d.rlc
                        .pull_with(left, now, &mut self.scratch_txed, |s| {
                            segments.push((drb_id, s));
                        });
                left -= consumed;
                for rec in self.scratch_txed.drain(..) {
                    out.txed_records.push((ue, drb_id, rec));
                }
            }
            ctx.drb_cursor = (ctx.drb_cursor + 1) % n_drbs.max(1);
            if segments.is_empty() {
                self.recycle_segments(segments);
                continue;
            }
            let used = budget - left;
            ctx.served_bytes = used;
            let tb = TransportBlock {
                ue,
                segments,
                bytes: used,
                attempt: 1,
                cqi,
                first_tx: now,
            };
            self.stats.tbs_sent += 1;
            // Block-error draw at the *actual* current SNR.
            let snr = ctx.channel.snr_db(now);
            if self.rng.chance(phy::bler(cqi, snr)) {
                self.pending_harq.push(PendingHarq {
                    tb,
                    retx_at: now + self.cfg.harq_rtt,
                    rbgs: n_rbgs,
                });
            } else {
                out.deliveries.push(TbDelivery { tb, deliver_at });
            }
        }
        self.scratch_grants = grants;

        // --- 4. Per UE: the PF throughput average (every connected UE,
        // every slot) and F1-U reports for DRBs whose watermarks moved ---
        for (ue, ctx) in self.ues.iter_mut() {
            ctx.avg_tput.push(std::mem::take(&mut ctx.served_bytes) as f64);
            for (drb, d) in ctx.drbs.iter_mut() {
                out.f1u.extend(d.f1u(ue, drb, now));
            }
        }
    }

    /// An RLC AM status report arrived from a UE. Returns the F1-U
    /// frame announcing the new highest-delivered SN, if it advanced.
    pub fn on_rlc_status(
        &mut self,
        ue: UeId,
        drb: DrbId,
        status: &RlcStatus,
        now: Instant,
    ) -> Option<DlDataDeliveryStatus> {
        let ctx = self.ues.get_mut(ue).expect("unknown UE");
        let d = ctx.drbs.get_mut(drb).expect("unknown DRB");
        d.on_status(status, now);
        d.f1u(ue, drb, now)
    }

    // ------------------------------------------------------------------
    // Uplink data plane (bidirectional scenarios)
    // ------------------------------------------------------------------

    /// Configure an uplink receive bearer for an attached UE (the DU
    /// mirror of [`UeStack::configure_ul_drb`](crate::UeStack)).
    /// Idempotent per DRB.
    pub fn ensure_ul_drb(&mut self, ue: UeId, drb: DrbId, mode: RlcMode) {
        let ctx = self.ues.get_mut(ue).expect("unknown UE");
        ctx.ul_rx.ensure(drb, mode, self.cfg.rlc_status_period);
    }

    /// A buffer-status report arrived from a UE: the scheduler now knows
    /// this many bytes are buffered across the UE's UL bearers.
    pub fn on_ul_bsr(&mut self, ue: UeId, total_bytes: usize) {
        if let Some(ctx) = self.ues.get_mut(ue) {
            ctx.ul_bsr = total_bytes;
        }
    }

    /// The buffer status the scheduler currently believes for a UE
    /// (reported bytes minus grants already issued against them).
    pub fn ul_known_bsr(&self, ue: UeId) -> usize {
        self.ues.get(ue).map_or(0, |c| c.ul_bsr)
    }

    /// Allocate this uplink slot's resources across BSR-backlogged UEs:
    /// the same RBG allocators as the downlink (round-robin or
    /// proportional fair), with link adaptation from the stale CQI and a
    /// separate rotation cursor. Each entry is `(ue, granted_bytes,
    /// cqi)`; **the sum of granted TBS never exceeds the slot's
    /// capacity**, and every grant is debited against the UE's known BSR
    /// so the scheduler does not re-grant the same bytes before the next
    /// report arrives.
    pub fn allocate_ul_grants_into(
        &mut self,
        now: Instant,
        out: &mut Vec<(UeId, usize, u8)>,
    ) {
        out.clear();
        let stale_at = Instant::from_nanos(
            now.as_nanos().saturating_sub(self.cfg.cqi_delay.as_nanos()),
        );
        self.scratch_cands.clear();
        for (ue, ctx) in self.ues.iter_mut() {
            if ctx.ul_bsr > 0 {
                ctx.adapt_link(stale_at, &self.cfg);
            }
            let per_rbg = ctx.la_rbg_bytes * usize::from(ctx.ca_factor);
            self.scratch_cands.push(Candidate {
                ue,
                backlog: ctx.ul_bsr,
                bytes_per_rbg: per_rbg,
                avg_throughput: ctx.ul_avg_tput.get_or(0.0),
            });
        }
        let mut grants = std::mem::take(&mut self.scratch_grants);
        match self.scheduler {
            SchedulerKind::RoundRobin => mac::allocate_round_robin_into(
                &self.scratch_cands,
                self.cfg.n_rbgs(),
                &mut self.ul_rr_cursor,
                &mut self.scratch_alloc,
                &mut grants,
            ),
            SchedulerKind::ProportionalFair => mac::allocate_proportional_fair_into(
                &self.scratch_cands,
                self.cfg.n_rbgs(),
                &mut self.scratch_alloc,
                &mut grants,
            ),
        }
        for &Grant { cand, rbgs: n_rbgs } in &grants {
            let (ue, ctx) = self.ues.row_mut(cand);
            let cqi = ctx.la_cqi;
            let prbs = (n_rbgs * self.cfg.rbg_size).min(self.cfg.n_prbs);
            let budget = phy::tbs_bytes(cqi, prbs, self.cfg.re_per_prb)
                * usize::from(ctx.ca_factor);
            if budget == 0 {
                continue;
            }
            ctx.ul_bsr = ctx.ul_bsr.saturating_sub(budget);
            ctx.ul_granted_bytes = budget;
            out.push((ue, budget, cqi));
        }
        self.scratch_grants = grants;
        // Uplink PF averages: every attached UE, every UL slot.
        for ctx in self.ues.values_mut() {
            ctx.ul_avg_tput
                .push(std::mem::take(&mut ctx.ul_granted_bytes) as f64);
        }
    }

    /// An uplink transport block arrives at the PHY: draw the block
    /// error at the UE's actual SNR (plus chase-combining gain per HARQ
    /// attempt); on success, reassemble through the per-DRB uplink RLC
    /// receivers and append the in-order SDU deliveries to `out`.
    pub fn receive_ul_tb(
        &mut self,
        mut tb: TransportBlock,
        now: Instant,
        out: &mut Vec<(DrbId, RxDelivery)>,
    ) -> UlTbOutcome {
        let Some(snr0) = self.ues.get(tb.ue).map(|c| c.channel.snr_db(now)) else {
            self.stats.ul_tbs_lost += 1;
            self.recycle_segments(tb.segments);
            return UlTbOutcome::Lost;
        };
        if tb.attempt == 1 {
            self.stats.ul_tbs_sent += 1;
        } else {
            self.stats.ul_harq_retx += 1;
        }
        let snr = snr0 + HARQ_COMBINING_GAIN_DB * f64::from(tb.attempt - 1);
        if self.rng.chance(phy::bler(tb.cqi, snr)) {
            if tb.attempt >= self.cfg.harq_max_attempts {
                self.stats.ul_tbs_lost += 1;
                self.recycle_segments(tb.segments);
                return UlTbOutcome::Lost;
            }
            tb.attempt += 1;
            return UlTbOutcome::Retx(tb);
        }
        let ctx = self.ues.get_mut(tb.ue).expect("checked above");
        let segments = tb.segments.drain(..);
        ctx.ul_rx
            .on_segments(segments, now, &mut self.scratch_rx, |drb, d| out.push((drb, d)));
        self.recycle_segments(tb.segments);
        UlTbOutcome::Decoded
    }

    /// Collect due uplink RLC AM status reports (the DU→UE half of UL
    /// ARQ; they ride the fast downlink control channel). Cadence is
    /// governed by each receive entity's status period.
    pub fn ul_statuses_into(
        &mut self,
        now: Instant,
        out: &mut Vec<(UeId, DrbId, RlcStatus)>,
    ) {
        for (ue, ctx) in self.ues.iter_mut() {
            ctx.ul_rx.statuses(now, |drb, st| out.push((ue, drb, st)));
        }
    }

    /// A status report collected by [`Gnb::ul_statuses_into`] has been
    /// consumed by the UE: its buffer returns to the receive entity that
    /// made it (see [`RxBearers::recycle_status`]); dropped if the UE
    /// has left the cell meanwhile.
    pub fn recycle_ul_status(&mut self, ue: UeId, drb: DrbId, status: RlcStatus) {
        if let Some(c) = self.ues.get_mut(ue) {
            c.ul_rx.recycle_status(drb, status);
        }
    }

    /// Timer poll of the uplink receive entities: UM reassembly-timeout
    /// skips, mirroring the UE-side downlink poll. Appends into the
    /// caller's reusable buffer (the `_into` convention of the other
    /// uplink paths — the poll runs every 5 ms and is almost always
    /// empty).
    pub fn poll_ul_rx_into(&mut self, now: Instant, out: &mut Vec<(UeId, DrbId, RxDelivery)>) {
        for (ue, ctx) in self.ues.iter_mut() {
            ctx.ul_rx.poll(now, &mut self.scratch_rx, |drb, d| out.push((ue, drb, d)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelProfile;
    use l4span_net::{Ecn, TcpHeader};

    fn pkt(len: usize) -> PacketBuf {
        PacketBuf::tcp(1, 2, Ecn::Ect1, 0, &TcpHeader::default(), len)
    }

    fn cell(n_ues: u16) -> Gnb {
        let cfg = CellConfig::default();
        let mut g = Gnb::new(cfg.clone(), SchedulerKind::RoundRobin, SimRng::new(1));
        let rng = SimRng::new(99);
        for u in 0..n_ues {
            let ch = FadingChannel::new(
                ChannelProfile::Static,
                25.0,
                cfg.carrier_hz,
                &mut rng.derive(u as u64),
            );
            g.add_ue(UeId(u), ch, &[(DrbId(0), RlcMode::Am)]);
        }
        g
    }

    /// Drive `g` through the given slot indices (slot `i` starts at
    /// `i` slot durations), collecting outputs.
    fn run_slots(g: &mut Gnb, slots: std::ops::Range<u64>) -> Vec<SlotOutput> {
        let slot = g.config().slot_duration;
        slots
            .map(|i| {
                let mut out = SlotOutput::default();
                g.on_slot_into(Instant::ZERO + slot * i, &mut out);
                out
            })
            .collect()
    }

    #[test]
    fn single_ue_gets_full_cell_rate() {
        let mut g = cell(1);
        // Saturate the queue: 2 seconds of traffic at 40 Mbit/s ≈ 6700 pkts.
        for i in 0..7000u64 {
            g.enqueue_downlink(UeId(0), Qfi(1), pkt(1460), Instant::ZERO);
            let _ = i;
        }
        let outs = run_slots(&mut g, 0..2000); // 1 second
        let bytes: usize = outs
            .iter()
            .flat_map(|o| &o.deliveries)
            .map(|d| {
                d.tb.segments
                    .iter()
                    .map(|(_, s)| s.len as usize)
                    .sum::<usize>()
            })
            .sum();
        let mbps = bytes as f64 * 8.0 / 1e6;
        assert!(
            (30.0..=45.0).contains(&mbps),
            "saturated single-UE rate {mbps} Mbit/s should be ≈40"
        );
    }

    #[test]
    fn uplink_slots_produce_no_downlink() {
        let mut g = cell(1);
        g.enqueue_downlink(UeId(0), Qfi(1), pkt(1460), Instant::ZERO);
        let outs = run_slots(&mut g, 0..5);
        assert_eq!(outs[4].role, Some(SlotRole::Uplink));
        assert!(outs[4].deliveries.is_empty());
        assert!(outs[0].role == Some(SlotRole::Downlink));
    }

    #[test]
    fn f1u_reports_txed_progress() {
        let mut g = cell(1);
        g.enqueue_downlink(UeId(0), Qfi(1), pkt(500), Instant::ZERO);
        let outs = run_slots(&mut g, 0..2);
        let f1u: Vec<_> = outs.iter().flat_map(|o| &o.f1u).collect();
        assert!(!f1u.is_empty());
        assert_eq!(f1u[0].highest_txed_sn, Some(0));
        assert_eq!(f1u[0].highest_delivered_sn, None);
    }

    #[test]
    fn status_ack_produces_delivered_f1u() {
        let mut g = cell(1);
        g.enqueue_downlink(UeId(0), Qfi(1), pkt(500), Instant::ZERO);
        run_slots(&mut g, 0..2);
        let f1u = g.on_rlc_status(
            UeId(0),
            DrbId(0),
            &RlcStatus {
                ack_sn: 1,
                nacks: vec![],
            },
            Instant::from_millis(10),
        );
        let f = f1u.expect("highest delivered advanced");
        assert_eq!(f.highest_delivered_sn, Some(0));
    }

    #[test]
    fn two_ues_share_capacity_roughly_equally() {
        let mut g = cell(2);
        for _ in 0..4000 {
            g.enqueue_downlink(UeId(0), Qfi(1), pkt(1460), Instant::ZERO);
            g.enqueue_downlink(UeId(1), Qfi(1), pkt(1460), Instant::ZERO);
        }
        let outs = run_slots(&mut g, 0..2000);
        let mut per_ue = [0usize; 2];
        for o in &outs {
            for d in &o.deliveries {
                per_ue[d.tb.ue.0 as usize] += d.tb.bytes;
            }
        }
        let ratio = per_ue[0] as f64 / per_ue[1] as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "RR share ratio {ratio}: {per_ue:?}"
        );
    }

    #[test]
    fn queue_overflow_drops_are_counted() {
        let cfg = CellConfig {
            rlc_queue_sdus: 4,
            ..CellConfig::default()
        };
        let mut g = Gnb::new(cfg.clone(), SchedulerKind::RoundRobin, SimRng::new(1));
        let ch = FadingChannel::new(
            ChannelProfile::Static,
            25.0,
            cfg.carrier_hz,
            &mut SimRng::new(5),
        );
        g.add_ue(UeId(0), ch, &[(DrbId(0), RlcMode::Am)]);
        for _ in 0..10 {
            g.enqueue_downlink(UeId(0), Qfi(1), pkt(1000), Instant::ZERO);
        }
        assert_eq!(g.stats().sdus_dropped, 6);
        assert_eq!(g.rlc_queue_len(UeId(0), DrbId(0)), 4);
    }

    #[test]
    fn bad_channel_triggers_harq_and_recovers_via_retx() {
        // Low SNR near the bottom CQI threshold: plenty of block errors.
        let cfg = CellConfig::default();
        let mut g = Gnb::new(cfg.clone(), SchedulerKind::RoundRobin, SimRng::new(3));
        let ch = FadingChannel::new(
            ChannelProfile::Vehicular,
            6.0,
            cfg.carrier_hz,
            &mut SimRng::new(17),
        );
        g.add_ue(UeId(0), ch, &[(DrbId(0), RlcMode::Am)]);
        for _ in 0..200 {
            g.enqueue_downlink(UeId(0), Qfi(1), pkt(1460), Instant::ZERO);
        }
        let outs = run_slots(&mut g, 0..4000); // 2 s
        assert!(g.stats().harq_retx > 0, "expected HARQ retransmissions");
        let delivered_bytes: usize = outs
            .iter()
            .flat_map(|o| &o.deliveries)
            .map(|d| d.tb.bytes)
            .sum();
        assert!(delivered_bytes > 0, "data still flows despite errors");
    }

    #[test]
    fn qfi_mapping_routes_to_correct_drb() {
        let cfg = CellConfig::default();
        let mut g = Gnb::new(cfg.clone(), SchedulerKind::RoundRobin, SimRng::new(1));
        let ch = FadingChannel::new(
            ChannelProfile::Static,
            25.0,
            cfg.carrier_hz,
            &mut SimRng::new(5),
        );
        g.add_ue(
            UeId(0),
            ch,
            &[(DrbId(0), RlcMode::Am), (DrbId(1), RlcMode::Am)],
        );
        g.map_qfi(UeId(0), Qfi(7), DrbId(1));
        assert_eq!(g.drb_for(UeId(0), Qfi(7)), DrbId(1));
        assert_eq!(g.drb_for(UeId(0), Qfi(1)), DrbId(0), "default DRB");
        let (drb, sn) = g
            .enqueue_downlink(UeId(0), Qfi(7), pkt(100), Instant::ZERO)
            .unwrap();
        assert_eq!(drb, DrbId(1));
        assert_eq!(sn, 0);
        assert_eq!(g.rlc_queue_len(UeId(0), DrbId(1)), 1);
        assert_eq!(g.rlc_queue_len(UeId(0), DrbId(0)), 0);
    }

    #[test]
    fn handover_keeps_buffered_bytes_and_recovers() {
        // §7: the buffered bytes survive a channel change; service
        // continues at the new cell's rate.
        let cfg = CellConfig::default();
        let mut g = Gnb::new(cfg.clone(), SchedulerKind::RoundRobin, SimRng::new(2));
        let good = FadingChannel::new(
            ChannelProfile::Static,
            26.0,
            cfg.carrier_hz,
            &mut SimRng::new(5),
        );
        g.add_ue(UeId(0), good, &[(DrbId(0), RlcMode::Am)]);
        for _ in 0..400 {
            g.enqueue_downlink(UeId(0), Qfi(0), pkt(1460), Instant::ZERO);
        }
        run_slots(&mut g, 0..100);
        let before = g.rlc_backlog_bytes(UeId(0), DrbId(0));
        assert!(before > 0, "still draining");
        // Handover to a much worse cell-edge channel.
        let poor = FadingChannel::new(
            ChannelProfile::Static,
            6.0,
            cfg.carrier_hz,
            &mut SimRng::new(9),
        );
        g.replace_channel(UeId(0), poor);
        let outs = run_slots(&mut g, 100..400);
        let served: usize = outs.iter().flat_map(|o| &o.deliveries).map(|d| d.tb.bytes).sum();
        assert!(served > 0, "the new cell still serves the old buffer");
        assert!(
            g.rlc_backlog_bytes(UeId(0), DrbId(0)) < before,
            "backlog keeps draining after handover"
        );
    }

    #[test]
    fn xn_handover_forwards_backlog_and_continues_sns() {
        let cfg = CellConfig::default();
        let mut src = Gnb::new(cfg.clone(), SchedulerKind::RoundRobin, SimRng::new(2));
        let mut dst = Gnb::new(cfg.clone(), SchedulerKind::RoundRobin, SimRng::new(3));
        let ch_a = FadingChannel::new(
            ChannelProfile::Static,
            25.0,
            cfg.carrier_hz,
            &mut SimRng::new(5),
        );
        src.add_ue(UeId(0), ch_a, &[(DrbId(0), RlcMode::Am)]);
        src.map_qfi(UeId(0), Qfi(7), DrbId(0));
        for _ in 0..300 {
            src.enqueue_downlink(UeId(0), Qfi(0), pkt(1460), Instant::ZERO);
        }
        run_slots(&mut src, 0..50);
        let backlog_before = src.rlc_backlog_bytes(UeId(0), DrbId(0));
        assert!(backlog_before > 0, "still draining at handover time");

        // --- the handover ---
        let ctx = src.detach_ue(UeId(0));
        assert!(src.ue_ids().is_empty());
        assert!(
            !ctx.drbs[0].forwarded.is_empty(),
            "unconfirmed SDUs travel over Xn"
        );
        let sn_resume = ctx.drbs[0].next_sn;
        let ch_b = FadingChannel::new(
            ChannelProfile::Static,
            20.0,
            cfg.carrier_hz,
            &mut SimRng::new(9),
        );
        dst.attach_ue_handover(UeId(0), ch_b, ctx, Instant::from_millis(25));

        // QFI map migrated; PDCP numbering continues, no SN reuse.
        assert_eq!(dst.drb_for(UeId(0), Qfi(7)), DrbId(0));
        let (_, sn) = dst
            .enqueue_downlink(UeId(0), Qfi(0), pkt(100), Instant::from_millis(25))
            .unwrap();
        assert_eq!(sn, sn_resume);

        // The target serves the forwarded backlog.
        let outs = run_slots(&mut dst, 50..600);
        let served: usize = outs
            .iter()
            .flat_map(|o| &o.deliveries)
            .map(|d| d.tb.bytes)
            .sum();
        assert!(served > 0, "forwarded SDUs are transmitted by the target");
        // Lowest forwarded SN is retransmitted first.
        let first_sn = outs
            .iter()
            .flat_map(|o| &o.deliveries)
            .flat_map(|d| d.tb.segments.iter())
            .map(|(_, s)| s.sn)
            .next()
            .unwrap();
        assert_eq!(first_sn, 0, "retransmission restarts at the oldest unconfirmed SN");
    }

    #[test]
    fn detach_drops_pending_harq_for_the_ue() {
        // Cell-edge channel: force HARQ backlog, then detach.
        let cfg = CellConfig::default();
        let mut g = Gnb::new(cfg.clone(), SchedulerKind::RoundRobin, SimRng::new(3));
        let ch = FadingChannel::new(
            ChannelProfile::Vehicular,
            6.0,
            cfg.carrier_hz,
            &mut SimRng::new(17),
        );
        g.add_ue(UeId(0), ch, &[(DrbId(0), RlcMode::Am)]);
        for _ in 0..200 {
            g.enqueue_downlink(UeId(0), Qfi(0), pkt(1460), Instant::ZERO);
        }
        run_slots(&mut g, 0..200);
        let _ctx = g.detach_ue(UeId(0));
        // Subsequent slots must not panic on orphaned HARQ state.
        run_slots(&mut g, 200..260);
    }

    #[test]
    fn carrier_aggregation_scales_single_ue_rate() {
        // §7 extension: a second component carrier should roughly double
        // a lone UE's saturated throughput.
        let mk = |carriers: u8| {
            let cfg = CellConfig::default();
            let mut g = Gnb::new(cfg.clone(), SchedulerKind::RoundRobin, SimRng::new(4));
            let ch = FadingChannel::new(
                ChannelProfile::Static,
                25.0,
                cfg.carrier_hz,
                &mut SimRng::new(6),
            );
            g.add_ue(UeId(0), ch, &[(DrbId(0), RlcMode::Am)]);
            g.set_carrier_aggregation(UeId(0), carriers);
            for _ in 0..14_000 {
                g.enqueue_downlink(UeId(0), Qfi(0), pkt(1460), Instant::ZERO);
            }
            let outs = run_slots(&mut g, 0..2000); // 1 s
            outs.iter()
                .flat_map(|o| &o.deliveries)
                .map(|d| d.tb.bytes)
                .sum::<usize>() as f64
                * 8.0
                / 1e6
        };
        let single = mk(1);
        let dual = mk(2);
        assert!(
            dual > 1.7 * single,
            "CA x2 should ~double the rate: {single} -> {dual} Mbit/s"
        );
    }

    #[test]
    fn ul_grants_respect_bsr_and_slot_capacity() {
        let mut g = cell(2);
        g.ensure_ul_drb(UeId(0), DrbId(0), RlcMode::Am);
        g.ensure_ul_drb(UeId(1), DrbId(0), RlcMode::Am);
        let mut grants = Vec::new();
        // No BSR yet: nothing granted.
        g.allocate_ul_grants_into(Instant::from_millis(2), &mut grants);
        assert!(grants.is_empty(), "no grants before a BSR: {grants:?}");
        // One UE reports a small backlog, the other a huge one.
        g.on_ul_bsr(UeId(0), 500);
        g.on_ul_bsr(UeId(1), 10_000_000);
        g.allocate_ul_grants_into(Instant::from_millis(2), &mut grants);
        assert_eq!(grants.len(), 2, "both backlogged UEs served: {grants:?}");
        let cfg = CellConfig::default();
        let slot_cap = crate::phy::tbs_bytes(15, cfg.n_prbs, cfg.re_per_prb);
        let total: usize = grants.iter().map(|&(_, b, _)| b).sum();
        assert!(
            total <= slot_cap + cfg.rbg_size * cfg.re_per_prb,
            "granted {total} exceeds slot capacity {slot_cap}"
        );
        // Grants are debited against the known BSR.
        assert_eq!(g.ul_known_bsr(UeId(0)), 0);
        assert!(g.ul_known_bsr(UeId(1)) < 10_000_000);
    }

    #[test]
    fn ul_tb_roundtrip_delivers_in_order_through_gnb_rlc() {
        use crate::ue::UeStack;
        use l4span_sim::Duration;
        let mut g = cell(1);
        g.ensure_ul_drb(UeId(0), DrbId(0), RlcMode::Am);
        let mut ue = UeStack::new(
            UeId(0),
            &[(DrbId(0), RlcMode::Am)],
            Duration::from_millis(10),
            Duration::from_millis(2),
            Duration::from_millis(5),
            SimRng::new(3),
        );
        ue.configure_ul_drb(DrbId(0), RlcMode::Am, 1024, 8);
        let mut delivered = Vec::new();
        let mut decoded = Vec::new();
        let mut t = Instant::from_millis(10);
        for k in 0..20u16 {
            ue.enqueue_uplink_data(DrbId(0), pkt(960), t);
            let _ = k;
        }
        let mut grants = Vec::new();
        for _ in 0..200 {
            g.on_ul_bsr(UeId(0), ue.ul_backlog_bytes());
            g.allocate_ul_grants_into(t, &mut grants);
            for &(gu, bytes, cqi) in &grants {
                assert_eq!(gu, UeId(0));
                if let Ok(tb) = ue.build_ul_tb(bytes, cqi, t, g.take_segments()) {
                    assert!(tb.bytes <= bytes, "TB exceeds grant");
                    let mut next = Some(tb);
                    while let Some(tb) = next.take() {
                        match g.receive_ul_tb(tb, t, &mut decoded) {
                            UlTbOutcome::Decoded => {
                                delivered.extend(decoded.drain(..).map(|(_, d)| d.sn));
                            }
                            UlTbOutcome::Retx(tb) => next = Some(tb),
                            UlTbOutcome::Lost => {}
                        }
                    }
                }
            }
            t += Duration::from_micros(2500);
            if delivered.len() == 20 {
                break;
            }
        }
        assert_eq!(delivered.len(), 20, "all uplink SDUs arrive");
        let sorted: Vec<u64> = (0..20).collect();
        assert_eq!(delivered, sorted, "exactly once, in SN order");
        assert!(g.stats().ul_tbs_sent > 0);
    }

    #[test]
    fn pdcp_sns_are_per_drb_dense() {
        let mut g = cell(1);
        let (_, sn0) = g
            .enqueue_downlink(UeId(0), Qfi(1), pkt(100), Instant::ZERO)
            .unwrap();
        let (_, sn1) = g
            .enqueue_downlink(UeId(0), Qfi(1), pkt(100), Instant::ZERO)
            .unwrap();
        assert_eq!((sn0, sn1), (0, 1));
    }
}
