//! Cell-major execution and intra-scenario sharding: independent cells
//! with deterministic slot-boundary exchange.
//!
//! Because a per-cell CU deployment (`cu_per_cell`) keeps *all* marker,
//! RLC, and channel state cell-local, the only couplings between cells
//! are:
//!
//! 1. **Handover** — Xn context transfer plus the UE's whole state
//!    cluster, executed at the step's barrier;
//! 2. **In-flight events of a migrated UE** — queued packets and
//!    timers re-homed in `(time, seq)` order right after the flip
//!    (`World::rehome_events`);
//! 3. **Post-handover uplink stragglers** — feedback that was on the
//!    air toward the old cell when the UE left; the old cell still
//!    processes it (exactly as in time order), and the resulting server
//!    arrival goes to the new cell's queue.
//!
//! Every world runs through `drive`, and one rule holds on every
//! path: a mobility step runs at its barrier, before every event at its
//! instant, and counts as one `Handover` in [`Report::event_counts`].
//!
//! Between barriers the cells are completely independent, so an
//! eligible world keeps **one event queue per cell** and `drive` runs
//! each cell up to the next barrier in turn, in which order a cell's
//! state stays in cache while it runs. `World::run_on` — the body of
//! both [`World::run`] and [`run_sharded`] — does that on `n`
//! replicas, each holding live state only for the cells assigned to it
//! and the UEs they serve, whose epochs run in parallel on up to
//! `L4SPAN_THREADS` threads (the runner's convention); one replica is the
//! one world owning every cell. What crosses replicas travels as
//! envelopes that drain in `(slot-boundary time, source shard,
//! sequence)` order. Either way barrier-injected events
//! take fresh sequence numbers *before* the receiving cell resumes —
//! reproducing the one-queue FIFO order, which is what makes
//! [`Report::fingerprint`] byte-invariant to the execution order and
//! the replica count.
//!
//! Anything outside the eligible shape — a central CU marker, a wired
//! plane (whose queue hops serialize all flows), a single cell, a
//! mobility step whose re-homed events would lose a tie — is one
//! replica that keeps its single queue: time-major, with nothing to
//! re-home.

use std::collections::BTreeSet;

use l4span_ran::config::{CellConfig, RlcMode};
use l4span_sim::{Duration, Instant};

use crate::metrics::{Report, ShardStat};
use crate::scenario::{FlowDir, MobilityStep, ScenarioConfig, TransportSpec};
use crate::world::{Event, World, TICK_PHASE_PER_CELL_CU, UE_POLL_PERIOD};

/// How many shards a scenario actually supports: `want`, capped at the
/// cell count — or 1 when the scenario is ineligible (central CU
/// marker, wired plane, a single cell, …), in which case [`run_sharded`]
/// is [`World::run`] on one queue.
pub fn plan_shards(cfg: &ScenarioConfig, want: usize) -> usize {
    plan_shards_reason(cfg, want).0
}

/// The property that makes a scenario's cells non-independent: why
/// [`plan_shards_reason`] forced it to one shard, and [`World::run`] onto
/// one queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardReject {
    /// A wired plane — impairment stages or a bottleneck router —
    /// serializes every downlink flow through hops shared across cells.
    WiredPlane,
    /// A bonded flow spans two cells by construction (the legs feed one
    /// sender/receiver pair), so its cells can never simulate
    /// independently.
    BondedFlow,
    /// There is nothing to split.
    SingleCell,
    /// One marker instance holds state for every cell.
    CentralCuMarker,
    /// A mobility step shares its instant with a housekeeping tick: an
    /// event re-homed at its barrier would take a fresh sequence number
    /// behind the same-instant tick it precedes on one queue.
    StepOnTick,
    /// Mobility steps bring one cell's slot grid into a queue twice
    /// within a wired round trip.
    CellReusedWithinRoundTrip,
    /// A UE that changes cells carries uplink traffic the `UePoll` tick
    /// paces.
    StepUnderTickPacedUplink,
}

impl std::fmt::Display for ShardReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShardReject::WiredPlane => "wired plane",
            ShardReject::BondedFlow => "bonded flow",
            ShardReject::SingleCell => "single cell",
            ShardReject::CentralCuMarker => "central CU marker",
            ShardReject::StepOnTick => "mobility step on a housekeeping tick",
            ShardReject::CellReusedWithinRoundTrip => {
                "mobility steps reuse a cell within a round trip"
            }
            ShardReject::StepUnderTickPacedUplink => {
                "mobility step under tick-paced uplink traffic"
            }
        })
    }
}

/// [`plan_shards`] plus *why* a scenario was forced to one shard,
/// surfaced in [`Report::shard_reject`] so a scenario silently falling
/// off the fast path is visible. `None` when
/// the plan honored the request (including the trivial `want <= 1`).
///
/// `plan_shards_reason(cfg, 2).1.is_none()` is the eligibility test of
/// the cell-major [`World::run`].
pub fn plan_shards_reason(cfg: &ScenarioConfig, want: usize) -> (usize, Option<ShardReject>) {
    if want <= 1 {
        return (1, None);
    }
    let reject = if cfg.impairment.is_some() || cfg.bottleneck.is_some() {
        Some(ShardReject::WiredPlane)
    } else if cfg.flows.iter().any(|f| f.bond.is_some()) {
        Some(ShardReject::BondedFlow)
    } else if cfg.n_cells() < 2 {
        Some(ShardReject::SingleCell)
    } else if !cfg.cu_per_cell {
        Some(ShardReject::CentralCuMarker)
    } else if step_on_tick(cfg) {
        Some(ShardReject::StepOnTick)
    } else if steps_reuse_a_grid(cfg) {
        Some(ShardReject::CellReusedWithinRoundTrip)
    } else if tick_paced_uplink_moves(cfg) {
        Some(ShardReject::StepUnderTickPacedUplink)
    } else {
        None
    };
    match reject {
        Some(_) => (1, reject),
        None => (want.min(cfg.n_cells()), None),
    }
}

/// Does some mobility step land on the housekeeping grid? An event
/// re-homed at the step's barrier takes a fresh sequence number in its
/// new cell's queue — behind that cell's same-instant tick, which it
/// precedes on one queue. `UePoll`'s 5 ms grid contains `Sample`'s
/// 10 ms one; both sit [`TICK_PHASE_PER_CELL_CU`] off the round
/// instants.
fn step_on_tick(cfg: &ScenarioConfig) -> bool {
    let (period, phase) = (UE_POLL_PERIOD.as_nanos(), TICK_PHASE_PER_CELL_CU.as_nanos());
    let on_tick =
        |at: Instant| at.as_nanos() > phase && (at.as_nanos() - phase).is_multiple_of(period);
    cfg.ues
        .iter()
        .flat_map(|u| &u.mobility)
        .any(|st| on_tick(st.at))
}

/// Do two cell changes carry one cell's slot grid into one queue twice?
/// Every delay of the model is a whole number of slots, so an
/// ACK-clocked flow's wired events sit on the slot grid of the cell
/// whose radio last carried them — same-instant ties with that cell's
/// `Slot` tick, and between the UEs acknowledged in one uplink slot, are
/// the norm, and the queue resolves them by sequence number. Re-homed
/// events take *fresh* numbers at their barrier. That is harmless while
/// every grid enters a queue once (the per-cell phase keeps different
/// grids apart), and loses ties the single queue would have resolved
/// the other way when
///
/// * a UE steps back onto a cell it left less than a wired round trip
///   (plus the flush window) before — its events still in flight from
///   before it left meet that cell's own; or
/// * two UEs leave the same cell within that span — should they meet
///   again, their events of one uplink slot arrive through two
///   barriers.
///
/// One wired round trip after a UE leaves a cell, every such chain has
/// passed through another radio and sits on another grid.
fn steps_reuse_a_grid(cfg: &ScenarioConfig) -> bool {
    let core = longest(cfg, |c| c.core_to_cu_delay);
    let Some(wan) = cfg.flows.iter().map(|f| f.wan.one_way).max() else {
        return false;
    };
    let guard = (wan + core) * 2 + longest(cfg, |c| c.slot_duration) * 2;
    // Every cell change as (cell left, when, who).
    let mut departures: Vec<(usize, Instant, usize)> = Vec::new();
    for (ue, spec) in cfg.ues.iter().enumerate() {
        let mut steps: Vec<&MobilityStep> = spec.mobility.iter().collect();
        steps.sort_by_key(|st| st.at);
        let first = departures.len();
        let mut cur = spec.initial_cell;
        for st in steps {
            if st.cell == cur {
                continue;
            }
            let back_early = departures[first..]
                .iter()
                .any(|&(c, at, _)| c == st.cell && st.at <= at + guard);
            if back_early {
                return true;
            }
            departures.push((cur, st.at, ue));
            cur = st.cell;
        }
    }
    departures.sort_unstable();
    departures
        .windows(2)
        .any(|w| w[0].0 == w[1].0 && w[0].2 != w[1].2 && w[1].1 <= w[0].1 + guard)
}

/// The longest of a per-cell delay over the topology.
fn longest(cfg: &ScenarioConfig, of: impl Fn(&CellConfig) -> Duration) -> Duration {
    (0..cfg.n_cells())
        .map(|c| of(cfg.cell_config(c)))
        .max()
        .expect("at least one cell")
}

/// Does a UE that changes cells carry uplink traffic the `UePoll` tick
/// paces? The server-side receiver of a non-TCP uplink flow reports on
/// that tick, and the gNB-side reassembly timeout of a UM uplink bearer
/// fires on it; with the model's whole-millisecond delays what they send
/// lands on the tick grid again — and ties there, with the ticks
/// themselves and with what the tick sent for other UEs. A re-homed
/// event loses those ties like any other (see [`steps_reuse_a_grid`]),
/// and every cell's ticks share one grid.
fn tick_paced_uplink_moves(cfg: &ScenarioConfig) -> bool {
    cfg.flows.iter().any(|f| {
        let Some(ue) = cfg.ues.get(f.ue) else {
            return false;
        };
        let um = ue.drbs.iter().any(|&(d, m)| d == f.drb && m == RlcMode::Um);
        f.dir == FlowDir::Uplink
            && (um || !matches!(f.transport, TransportSpec::Tcp { .. }))
            && ue.mobility.iter().any(|st| st.cell != ue.initial_cell)
    })
}

/// The mobility schedule of a run: what [`drive`] executes between
/// epochs.
pub(crate) struct BarrierSchedule {
    /// Every step at or before `end`, with its UE, in `(at, ue)` order.
    steps: Vec<(usize, MobilityStep)>,
    /// Epoch barriers, ascending: every step instant `t`, then `t +
    /// slot` and `t + 2·slot`. Flush horizon: one cell slot. Straggler
    /// feedback toward an old cell is all in flight at handover time,
    /// so it lands within one air hop (< a slot) of the barrier; two
    /// flush barriers per step collect the resulting cross-cell events
    /// long before their server-arrival time.
    barriers: Vec<Instant>,
    /// End of the run.
    end: Instant,
}

/// Derive the [`BarrierSchedule`] of `cfg`.
pub(crate) fn barrier_schedule(cfg: &ScenarioConfig) -> BarrierSchedule {
    let end = Instant::ZERO + cfg.duration;
    let slot = longest(cfg, |c| c.slot_duration);
    let mut steps: Vec<(usize, MobilityStep)> = Vec::new();
    for (ue, spec) in cfg.ues.iter().enumerate() {
        for st in &spec.mobility {
            if st.at <= end {
                steps.push((ue, *st));
            }
        }
    }
    steps.sort_by_key(|&(ue, st)| (st.at, ue));
    let mut barriers: BTreeSet<Instant> = BTreeSet::new();
    for &(_, st) in &steps {
        barriers.insert(st.at);
        barriers.insert(st.at + slot);
        barriers.insert(st.at + slot + slot);
    }
    BarrierSchedule {
        steps,
        barriers: barriers.into_iter().collect(),
        end,
    }
}

/// Run `cfg` on `want` replicas (cells assigned round-robin, capped at
/// the cell count) and return the merged report, with
/// [`Report::shards`] carrying the per-replica statistics when there
/// was more than one: [`World::run`]'s body with the replica count
/// given instead of taken from the cores.
pub fn run_sharded(cfg: ScenarioConfig, want: usize) -> Report {
    World::new(cfg).run_on(want)
}

/// Drive `worlds` — the cell-major replicas of one scenario, or the one
/// world that owns every cell, cell-major or on one queue — through
/// `schedule` on `workers` threads: for each barrier, run every cell up
/// to it, deliver the mail, execute the steps due at it in `(at, ue)`
/// order; then run to the end. Nothing at a barrier's instant has run
/// when its steps do. Returns each replica's statistics.
pub(crate) fn drive(
    worlds: &mut [World],
    schedule: &BarrierSchedule,
    workers: usize,
) -> Vec<ShardStat> {
    let end = schedule.end;
    // Wall-clock and mailbox totals accumulate as the run goes; the
    // rest is read off each replica at the end.
    let mut tally: Vec<ShardStat> = (0..worlds.len())
        .map(|shard| ShardStat {
            shard,
            ..ShardStat::default()
        })
        .collect();
    let mut moved: Vec<(Instant, Event)> = Vec::new();
    let mut envelopes: Vec<(Instant, usize, usize, Event)> = Vec::new();

    let mut steps = schedule.steps.iter().peekable();
    for &barrier in &schedule.barriers {
        run_epoch(worlds, barrier, end, workers, &mut tally);
        deliver_mail(worlds, barrier, &mut envelopes, &mut tally);
        while let Some(&(ue, st)) = steps.next_if(|(_, st)| st.at == barrier) {
            apply_step(worlds, ue, st, &mut moved, &mut tally);
        }
    }
    run_epoch(worlds, Instant::MAX, end, workers, &mut tally);
    // Transient post-handover mail was all collected by the flush
    // barriers; whatever a replica's final epoch still produced can
    // only target events beyond the run end (delivered for the merge
    // invariant, never popped).
    deliver_mail(worlds, end, &mut envelopes, &mut tally);
    for (w, t) in worlds.iter().zip(&mut tally) {
        t.cells = w.cells_owned();
        t.events = w.events_processed();
        t.cycles = w.cycles_snapshot();
    }
    tally
}

/// Run every replica up to (not including) `until` on `workers`
/// threads — the calling one and `workers − 1` spawned — each taking a
/// strided subset of the replicas, so a box with fewer cores than
/// shards never has a replica's busy clock counting time its thread sat
/// descheduled. Per-replica wall time accumulates into `tally` — under
/// parallel execution each entry is still that shard's own busy time,
/// which is what the aggregate-rate computation needs.
fn run_epoch(
    worlds: &mut [World],
    until: Instant,
    end: Instant,
    workers: usize,
    tally: &mut [ShardStat],
) {
    let run = |w: &mut World, t: &mut ShardStat| {
        let t0 = std::time::Instant::now();
        w.run_until(until, end);
        t.busy_ns += t0.elapsed().as_nanos() as u64;
    };
    if workers <= 1 {
        for (w, t) in worlds.iter_mut().zip(tally.iter_mut()) {
            run(w, t);
        }
        return;
    }
    let mut lanes: Vec<Vec<(&mut World, &mut ShardStat)>> =
        (0..workers).map(|_| Vec::new()).collect();
    for (s, wt) in worlds.iter_mut().zip(tally.iter_mut()).enumerate() {
        lanes[s % workers].push(wt);
    }
    let run_lane = move |lane: Vec<(&mut World, &mut ShardStat)>| {
        for (w, t) in lane {
            run(w, t);
        }
    };
    std::thread::scope(|sc| {
        let mut lanes = lanes.into_iter();
        let first = lanes.next().expect("two lanes or more");
        for lane in lanes {
            sc.spawn(move || run_lane(lane));
        }
        run_lane(first);
    });
}

/// Drain every replica's outbox and inject the envelopes at their
/// targets in `(time, source shard, sequence)` order. The order is a
/// pure function of those three keys — the mailbox contract the
/// property test pins down. One world has no mail: what crosses its
/// cells goes straight into the owner's queue.
fn deliver_mail(
    worlds: &mut [World],
    barrier: Instant,
    envelopes: &mut Vec<(Instant, usize, usize, Event)>,
    tally: &mut [ShardStat],
) {
    envelopes.clear();
    let mut buf = Vec::new();
    for (s, w) in worlds.iter_mut().enumerate() {
        let t0 = std::time::Instant::now();
        w.take_outbox(&mut buf);
        for (k, (at, ev)) in buf.drain(..).enumerate() {
            tally[s].mailed += 1;
            envelopes.push((at, s, k, ev));
        }
        tally[s].drain_ns += t0.elapsed().as_nanos() as u64;
    }
    if envelopes.is_empty() {
        return;
    }
    // Unstable sort: the key is strictly total (no two envelopes share
    // `(at, s, k)`), and unlike the stable sort it never allocates.
    envelopes.sort_unstable_by_key(|&(at, s, k, _)| (at, s, k));
    for (at, s, _, ev) in envelopes.drain(..) {
        // An envelope in the past would be silently clamped by the
        // queue — a protocol bug (a flush barrier missed it), so fail
        // loudly instead.
        assert!(
            at >= barrier,
            "cross-shard envelope for t={at:?} delivered late at barrier {barrier:?}"
        );
        let t0 = std::time::Instant::now();
        let dst = worlds[s].event_owner(&ev);
        worlds[dst].inject(at, ev);
        tally[dst].drain_ns += t0.elapsed().as_nanos() as u64;
    }
}

/// Execute one mobility step at its barrier, in the replica that holds
/// the UE ([`World::apply_mobility_step`]). For a handover to a cell of
/// another replica that replica lends it the target cell for the step,
/// and the UE's cluster then moves to it. A cell change then flips the
/// attachment in every replica and re-homes the UE's queued events.
fn apply_step(
    worlds: &mut [World],
    ue: usize,
    st: MobilityStep,
    moved: &mut Vec<(Instant, Event)>,
    tally: &mut [ShardStat],
) {
    let src_cell = worlds[0].serving_cell(ue);
    let (src_s, dst_s) = (
        worlds[0].replica_of(src_cell),
        worlds[0].replica_of(st.cell),
    );
    if src_s == dst_s {
        worlds[src_s].apply_mobility_step(ue, st);
    } else {
        let (src_w, dst_w) = pair_mut(worlds, src_s, dst_s);
        World::swap_cell(src_w, dst_w, st.cell);
        src_w.apply_mobility_step(ue, st);
        World::swap_cell(src_w, dst_w, st.cell);
        World::swap_ue_clusters(src_w, dst_w, |u| u == ue);
    }
    if src_cell == st.cell {
        return;
    }
    // The flip reaches every replica (ownership is derived from
    // `serving`) *before* events re-route, so re-homing and mail
    // routing below already see the new owner.
    for w in worlds.iter_mut() {
        w.set_serving(ue, st.cell);
    }
    let t0 = std::time::Instant::now();
    moved.clear();
    worlds[src_s].rehome_events(src_cell, moved);
    for (at, ev) in moved.drain(..) {
        tally[src_s].mailed += 1;
        let dst = worlds[src_s].event_owner(&ev);
        worlds[dst].inject(at, ev);
    }
    tally[src_s].drain_ns += t0.elapsed().as_nanos() as u64;
}

/// Disjoint mutable borrows of two distinct slice elements.
fn pair_mut(v: &mut [World], i: usize, j: usize) -> (&mut World, &mut World) {
    debug_assert_ne!(i, j);
    if i < j {
        let (l, r) = v.split_at_mut(j);
        (&mut l[i], &mut r[0])
    } else {
        let (l, r) = v.split_at_mut(i);
        (&mut r[0], &mut l[j])
    }
}

#[cfg(test)]
mod tests {
    //! The cell-major order against the same world run off one queue,
    //! `World::run_time_major`.

    use l4span_cc::WanLink;
    use l4span_core::HandoverPolicy;
    use l4span_ran::ChannelProfile;
    use l4span_sim::Duration;
    use proptest::prelude::*;

    use super::*;
    use crate::app::AppProfile;
    use crate::scenario::{self, FlowSpec, TransportSpec, UeSpec};

    /// Everything that must not depend on the execution order.
    fn outcome(r: &Report) -> (String, u64, Vec<(&'static str, u64)>, u64) {
        (
            r.fingerprint_digest(),
            r.events,
            r.event_counts.clone(),
            r.fading_evals,
        )
    }

    /// `World::run` — which must have taken the cell-major path, on as
    /// many replicas as the host's cores allow — against the time-major
    /// reference. Returns the cell-major report.
    fn assert_orders_agree(cfg: ScenarioConfig, what: &str) -> Report {
        let cell_major = World::new(cfg.clone()).run();
        assert_eq!(cell_major.shard_reject, None, "{what}: must run cell-major");
        let time_major = World::new(cfg).run_time_major();
        assert_eq!(outcome(&cell_major), outcome(&time_major), "{what}");
        cell_major
    }

    // `cell_major_matches_time_major`, one test per world shape so the
    // matrix spreads over the test threads.

    #[test]
    fn cell_major_matches_time_major_handover_cell() {
        for cc in ["prague", "cubic", "bbr2"] {
            for policy in [HandoverPolicy::MigrateState, HandoverPolicy::ColdStart] {
                let mut cfg = scenario::handover_cell(
                    4,
                    cc,
                    Duration::from_secs(1),
                    policy,
                    scenario::l4span_default(),
                    7,
                    Duration::from_millis(1_600),
                );
                // One step exactly at the end, which runs, and one after
                // it, which does not.
                let step = |ms, cell| {
                    MobilityStep::new(
                        Instant::from_millis(ms),
                        cell,
                        ChannelProfile::Pedestrian,
                        17.0,
                    )
                };
                cfg.ues[0].mobility.push(step(1_600, 0));
                cfg.ues[1].mobility.push(step(1_700, 1));
                let what = format!("handover_cell {cc} {policy:?}");
                // A central CU marker keeps the world on one queue.
                let r = assert_rejected(cfg.clone(), Some(ShardReject::CentralCuMarker), &what);
                assert_steps_executed(&cfg, &r, &format!("{what}, central CU"));
                cfg.cu_per_cell = true;
                let r = assert_orders_agree(cfg.clone(), &what);
                assert_steps_executed(&cfg, &r, &what);
            }
        }
    }

    /// `r` counts one `Handover` per step of `cfg` at or before the end,
    /// and records one handover per cell change among them.
    fn assert_steps_executed(cfg: &ScenarioConfig, r: &Report, what: &str) {
        let end = Instant::ZERO + cfg.duration;
        let (mut steps, mut changes) = (0, Vec::new());
        for (ue, spec) in cfg.ues.iter().enumerate() {
            let mut cur = spec.initial_cell;
            let mut due: Vec<&MobilityStep> =
                spec.mobility.iter().filter(|st| st.at <= end).collect();
            due.sort_by_key(|st| st.at);
            steps += due.len() as u64;
            for st in due {
                if st.cell != cur {
                    changes.push((ue as u16, st.at, cur as u8, st.cell as u8));
                    cur = st.cell;
                }
            }
        }
        let counted = r
            .event_counts
            .iter()
            .find(|(class, _)| *class == "Handover");
        assert_eq!(
            counted.map_or(0, |&(_, n)| n),
            steps,
            "{what}: Handover count"
        );
        let mut recorded: Vec<_> = r
            .handovers
            .iter()
            .map(|h| (h.ue, h.at, h.from_cell, h.to_cell))
            .collect();
        recorded.sort_unstable();
        changes.sort_unstable();
        assert_eq!(recorded, changes, "{what}: handover records");
    }

    #[test]
    fn cell_major_matches_time_major_metro_city() {
        for cc in ["prague", "cubic", "bbr2"] {
            // 2.3 s: the mover's step out at 152.5 ms and back at 2 152.5 ms.
            let metro = scenario::metro_city(
                8,
                3,
                cc,
                scenario::l4span_default(),
                11,
                Duration::from_millis(2_300),
            );
            assert_orders_agree(metro, &format!("metro_city(8, 3) {cc}"));
        }
    }

    #[test]
    fn cell_major_matches_time_major_metro_1000ue_50cell() {
        assert_orders_agree(
            scenario::metro_1000ue_50cell("prague", 11, Duration::from_millis(400)),
            "metro_1000ue_50cell",
        );
    }

    #[test]
    fn cell_major_matches_time_major_when_nobody_moves() {
        // Two cells, zero barriers: one epoch per cell.
        let xr = scenario::xr_bonding_cell(
            4,
            "fec-media",
            scenario::l4span_default(),
            false,
            7,
            Duration::from_secs(1),
        );
        assert!(barrier_schedule(&xr).barriers.is_empty());
        assert_orders_agree(xr, "xr_bonding_cell single-leg");
    }

    const SLOT: Duration = Duration::from_micros(500);

    /// Three cells, two UEs (homed on cells 0 and 1) with one greedy
    /// download each, and the given trajectories.
    fn three_cells(cc: &str, mobility: [Vec<MobilityStep>; 2]) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::new(5, Duration::from_millis(500));
        cfg.marker = scenario::l4span_default();
        cfg.cu_per_cell = true;
        for _ in 0..2 {
            cfg.add_cell(cfg.cell.clone());
        }
        for (i, steps) in mobility.into_iter().enumerate() {
            let ue = UeSpec::simple(ChannelProfile::Pedestrian, 18.0 + 4.0 * i as f64);
            cfg.ues.push(ue.on_cell(i).with_mobility(steps));
            cfg.flows.push(FlowSpec::new(
                i,
                AppProfile::bulk(),
                TransportSpec::tcp_named(cc).expect("known controller"),
                WanLink::east(),
                start_of(i),
            ));
        }
        cfg
    }

    /// The start instant of flow `i` of [`three_cells`].
    fn start_of(i: usize) -> Instant {
        Instant::from_micros(137 + 3_000 * i as u64)
    }

    /// One generated move: at slot-aligned instant number `k` (≡ 2.5 ms
    /// mod 5 ms, from 100 ms on, when both flows are moving data, and
    /// 45 ms apart — just past the 41 ms round-trip guard, so a UE may
    /// come back to a cell on its very next move), `who` (UE 0, UE 1, or
    /// both on the same instant) steps `by` cells on — 0 is a step to
    /// the serving cell — and, with `hop`, again to the remaining cell
    /// that many slots later: inside the flush window, while stragglers
    /// toward the first cell are still landing.
    type Move = (u64, usize, usize, Option<u64>);

    /// The generated moves, after UE `lead` (if any) stepped one cell on
    /// at its own flow's start.
    fn trajectories(mut moves: Vec<Move>, lead: Option<usize>) -> [Vec<MobilityStep>; 2] {
        moves.sort_by_key(|m| m.0);
        moves.dedup_by_key(|m| m.0);
        let mut cur = [0, 1];
        let mut out = [Vec::new(), Vec::new()];
        let step = |at, cell| MobilityStep::new(at, cell, ChannelProfile::Pedestrian, 17.0);
        if let Some(ue) = lead {
            cur[ue] = (cur[ue] + 1) % 3;
            out[ue].push(step(start_of(ue), cur[ue]));
        }
        for (k, who, by, hop) in moves {
            let at = Instant::from_micros(102_500 + 45_000 * k);
            // Two UEs leaving one cell together would reuse its grid —
            // so would a second hop out of the cell the other just left.
            let who = if who == 2 && cur[0] == cur[1] { 0 } else { who };
            let hop = hop.filter(|_| who != 2);
            for ue in (0..2).filter(|ue| who == 2 || who == *ue) {
                let to = (cur[ue] + by) % 3;
                out[ue].push(step(at, to));
                if let Some(slots) = hop {
                    // Neither where it was nor where it just went.
                    let third = if by == 0 { to } else { 3 - cur[ue] - to };
                    out[ue].push(step(at + SLOT * slots, third));
                    cur[ue] = third;
                } else {
                    cur[ue] = to;
                }
            }
        }
        out
    }

    proptest! {
        /// Any aligned mobility schedule: same bytes, same event counts,
        /// on one world, on two replicas, and on one cell per replica —
        /// the most vacant slots a split makes (explicit counts, so the
        /// host's cores do not pick what is covered). With `edge`, UE
        /// `who` also steps at its flow's start, or its flow stops at its
        /// first step.
        #[test]
        fn random_mobility_schedules_match_time_major(
            moves in proptest::collection::vec(
                (0u64..9, 0usize..3, 0usize..3, proptest::option::of(1u64..4)),
                1..6,
            ),
            cubic in any::<bool>(),
            upload in any::<bool>(),
            edge in proptest::option::of((0usize..2, any::<bool>())),
        ) {
            let cc = if cubic { "cubic" } else { "prague" };
            let lead = edge.and_then(|(who, stop)| (!stop).then_some(who));
            let mut cfg = three_cells(cc, trajectories(moves.clone(), lead));
            if let Some((who, true)) = edge {
                cfg.flows[who].stop = cfg.ues[who].mobility.first().map(|st| st.at);
            }
            if upload {
                cfg.flows[1].dir = FlowDir::Uplink;
            }
            let time_major = outcome(&World::new(cfg.clone()).run_time_major());
            for replicas in 1..=cfg.n_cells() {
                let cell_major = World::new(cfg.clone()).run_on(replicas);
                prop_assert_eq!(cell_major.shard_reject, None, "{moves:?}");
                prop_assert_eq!(cell_major.shards.len(), if replicas > 1 { replicas } else { 0 });
                prop_assert_eq!(
                    outcome(&cell_major),
                    time_major,
                    "{cc} upload={upload} {edge:?} on {replicas} {moves:?}: {:?} != {:?}",
                    outcome(&cell_major),
                    time_major
                );
            }
        }
    }

    #[test]
    fn misaligned_steps_are_rejected_and_run_time_major() {
        let step = |at| vec![MobilityStep::new(at, 2, ChannelProfile::Pedestrian, 17.0)];
        let aligned = three_cells("cubic", [step(Instant::from_micros(102_500)), Vec::new()]);
        assert_eq!(plan_shards_reason(&aligned, 2), (2, None));

        // On the `UePoll` grid.
        let on_tick = three_cells(
            "cubic",
            [Vec::new(), step(Instant::from_nanos(105_000_500))],
        );
        assert_rejected(on_tick, Some(ShardReject::StepOnTick), "tick");

        // On the UE's own flow start or stop, or somebody else's: the step
        // runs first on either order.
        let on_start = three_cells("cubic", [step(start_of(0)), Vec::new()]);
        let mut on_stop = aligned.clone();
        on_stop.flows[0].stop = Some(Instant::from_micros(102_500));
        let mut others_stop = aligned.clone();
        others_stop.flows[1].stop = Some(Instant::from_micros(102_500));
        for (cfg, what) in [
            (on_start, "start"),
            (on_stop, "stop"),
            (others_stop, "other's stop"),
        ] {
            assert_orders_agree(cfg, what);
        }
    }

    #[test]
    fn a_return_within_a_round_trip_is_rejected_and_runs_time_major() {
        const WHY: Option<ShardReject> = Some(ShardReject::CellReusedWithinRoundTrip);
        let step = |us, cell| {
            MobilityStep::new(
                Instant::from_micros(us),
                cell,
                ChannelProfile::Pedestrian,
                17.0,
            )
        };
        // East WAN 19 ms + core 1 ms, both ways, + two slots: 41 ms.
        let just_past = vec![step(102_500, 2), step(144_000, 0)];
        let just_past = three_cells("cubic", [just_past, Vec::new()]);
        assert_eq!(plan_shards_reason(&just_past, 2), (2, None));
        let on_the_guard = vec![step(102_500, 2), step(143_500, 0)];
        assert_rejected(
            three_cells("cubic", [on_the_guard, Vec::new()]),
            WHY,
            "41 ms",
        );
        // A ping-pong inside the flush window, listed out of order; the
        // detour over a third cell does not reset the clock.
        let ping_pong = vec![step(104_000, 1), step(102_500, 0), step(103_000, 2)];
        assert_rejected(
            three_cells("prague", [Vec::new(), ping_pong]),
            WHY,
            "ping-pong",
        );
    }

    #[test]
    fn tick_paced_uplink_traffic_of_a_mover_is_rejected_and_runs_time_major() {
        const WHY: Option<ShardReject> = Some(ShardReject::StepUnderTickPacedUplink);
        let step = vec![MobilityStep::new(
            Instant::from_micros(102_500),
            2,
            ChannelProfile::Pedestrian,
            17.0,
        )];
        let media = TransportSpec::fec_media(1.5e5, 5e5, 2.5e6, 60.0);
        // The mover's media upload reports on the `UePoll` tick …
        let mut upload = three_cells("cubic", [step.clone(), Vec::new()]);
        upload.flows[0].dir = FlowDir::Uplink;
        upload.flows[0].transport = media.clone();
        assert_rejected(upload, WHY, "media upload");
        // … and a UM uplink bearer's reassembly timeout fires on it.
        let mut um = three_cells("cubic", [step.clone(), Vec::new()]);
        um.ues[0].drbs = vec![(0, RlcMode::Um)];
        um.flows[0].dir = FlowDir::Uplink;
        assert_rejected(um, WHY, "UM upload");
        // Somebody else's upload, or the mover's paced *download*, is fine.
        let mut others = three_cells("cubic", [step.clone(), Vec::new()]);
        others.flows[1].dir = FlowDir::Uplink;
        others.flows[1].transport = media;
        others.flows[0].transport = TransportSpec::udp_prague(1e5, 5e5, 5e6);
        assert_orders_agree(others, "paced download moves, media upload stays");
    }

    /// `cfg` must be refused for `why` — and then both entry points run
    /// it off one queue and say so. Returns `World::run`'s report.
    fn assert_rejected(cfg: ScenarioConfig, why: Option<ShardReject>, what: &str) -> Report {
        assert_eq!(plan_shards_reason(&cfg, 3), (1, why), "{what}");
        let reference = outcome(&World::new(cfg.clone()).run_time_major());
        let one_world = World::new(cfg.clone()).run();
        assert_eq!(one_world.shard_reject, why, "{what}");
        assert_eq!(outcome(&one_world), reference, "{what}: World::run");
        let sharded = run_sharded(cfg, 3);
        assert_eq!(sharded.shard_reject, why, "{what}");
        assert!(sharded.shards.is_empty(), "{what}: no replicas");
        assert_eq!(outcome(&sharded), reference, "{what}: run_sharded");
        one_world
    }

    #[test]
    #[should_panic(expected = "cell-major: event for cell 1 at")]
    fn an_event_behind_a_cells_clock_is_a_panic_not_a_clamp() {
        let cfg = three_cells("cubic", [Vec::new(), Vec::new()]);
        let end = Instant::ZERO + cfg.duration;
        let mut w = World::new(cfg);
        w.cell_major_install(0, vec![0; 3]);
        w.run_until(Instant::from_millis(5), end);
        // Flow 1's UE lives on cell 1, which has run to 5 ms.
        w.inject(Instant::from_millis(1), Event::FlowTimer { flow: 1 });
    }
}
