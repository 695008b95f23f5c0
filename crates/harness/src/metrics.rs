//! Measurement plumbing and the final [`Report`].
//!
//! A world writes its samples and counters into one `Recorder` — the
//! only code that knows how they are stored — and the recorder assembles
//! them into the report's series at the end of the run. Each sample is stored once, at
//! the width its information needs: a one-way delay or RTT as two
//! varints in its flow's `SampleLog`, a queue length as a `u32` beside
//! the runs of its serving cell, an estimation error as a tick delta and
//! an `f64` in its bearer's log. The report keeps the delay logs as they
//! are: only the one-way delays are decoded at the end of the run, the
//! sample times and RTTs when asked for.

use std::cmp::Reverse;
use std::collections::{binary_heap::PeekMut, BTreeMap, BinaryHeap, VecDeque};
use std::fmt;
use std::marker::PhantomData;

use l4span_ran::rlc::{Sn, TxRecord};
use l4span_ran::LinkStats;
use l4span_sim::{stats::BoxStats, CycleStat, Duration, Instant};

use crate::app::UnitKind;
use crate::impairment::ImpairmentCounters;
use crate::scenario::{FlowDir, FlowSpec, ScenarioConfig};
use crate::shard::ShardReject;

/// One congestion-control classic-fallback transition: a Prague sender
/// detected a hostile path (classic-AQM CE pattern or bleached feedback)
/// and switched to Reno-friendly dynamics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FallbackRecord {
    /// Flow index in the scenario's flow list.
    pub flow: u16,
    /// When the transition happened, milliseconds into the run.
    pub at_ms: f64,
    /// Why (`"classic-ecn"` or `"bleached"`).
    pub reason: &'static str,
}

/// Per-packet delay breakdown (Fig. 10's stacked bars), in milliseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Breakdown {
    /// WAN + core propagation.
    pub propagation: f64,
    /// RLC queueing: enqueue → head of queue.
    pub queuing: f64,
    /// Scheduling: head of queue → first byte scheduled.
    pub scheduling: f64,
    /// Everything else: transmission, HARQ, reassembly, UE internal.
    pub other: f64,
}

/// Running mean of breakdowns.
#[derive(Debug, Default, Clone, Copy)]
pub struct BreakdownAvg {
    sums: Breakdown,
    n: u64,
}

impl BreakdownAvg {
    /// Fold one packet's breakdown in.
    pub fn push(&mut self, b: Breakdown) {
        self.sums.propagation += b.propagation;
        self.sums.queuing += b.queuing;
        self.sums.scheduling += b.scheduling;
        self.sums.other += b.other;
        self.n += 1;
    }

    /// Mean components (zeros when empty).
    pub fn mean(&self) -> Breakdown {
        if self.n == 0 {
            return Breakdown::default();
        }
        let n = self.n as f64;
        Breakdown {
            propagation: self.sums.propagation / n,
            queuing: self.sums.queuing / n,
            scheduling: self.sums.scheduling / n,
            other: self.sums.other / n,
        }
    }

    /// Sample count.
    pub fn count(&self) -> u64 {
        self.n
    }
}

/// One handover as the world executed it, with the delivery-gap
/// endpoints that define the interruption time.
#[derive(Debug, Default, Clone, Copy)]
pub struct HandoverRecord {
    /// UE that moved.
    pub ue: u16,
    /// When the handover executed.
    pub at: Instant,
    /// Source cell.
    pub from_cell: u8,
    /// Target cell.
    pub to_cell: u8,
    /// Last application delivery to this UE before the switch (`None`
    /// when nothing had been delivered yet).
    pub last_delivery_before: Option<Instant>,
    /// First application delivery after the switch (`None` when the run
    /// ended, or the next handover hit, before service resumed).
    pub first_delivery_after: Option<Instant>,
}

impl HandoverRecord {
    /// Handover interruption time: the gap in delivered bytes around the
    /// switch (3GPP's mobility-interruption metric, measured at the
    /// application). `None` when either endpoint is missing.
    pub fn interruption(&self) -> Option<Duration> {
        match (self.last_delivery_before, self.first_delivery_after) {
            (Some(b), Some(a)) => Some(a.saturating_since(b)),
            _ => None,
        }
    }
}

/// Everything measured in one run. Flows are indexed by their position
/// in the scenario's flow list.
#[derive(Debug, Default)]
pub struct Report {
    /// Scenario duration.
    pub duration: Duration,
    /// Throughput bin width.
    pub bin: Duration,
    /// Per-flow one-way delays (server app → UE app), milliseconds,
    /// decoded from the flow's delay log at the end of the run; their
    /// times are [`Report::owd_at_s`].
    pub owd_ms: Vec<Vec<f64>>,
    /// Per-flow **uplink** one-way delays (UE-side sender → server app),
    /// milliseconds, decoded like `owd_ms`; their times are
    /// [`Report::ul_owd_at_s`]. Empty for downlink flows.
    pub ul_owd_ms: Vec<Vec<f64>>,
    /// The recorder's per-flow delay logs as it kept them, in integer
    /// ns: the source of `owd_ms` and `ul_owd_ms`, and of the sample
    /// times and RTTs the accessors ([`Report::rtt_ms`], …) decode on
    /// demand.
    pub(crate) delays: Vec<DelayLogs>,
    /// Per-flow received payload bytes per bin (UE side).
    pub thr_bins: Vec<Vec<u64>>,
    /// RLC queue-length samples (SDUs, `u32`) per (ue, drb), read from
    /// the UE's *serving* cell at each tick. A `BTreeMap` so both
    /// serialisation and the fingerprint iterate in key order regardless
    /// of hash state.
    pub queue_series: BTreeMap<(u16, u8), Vec<u32>>,
    /// The serving-cell runs of each `queue_series` entry, in time
    /// order: `(index of the run's first sample, cell)`, one run per
    /// attachment. [`Report::cell_queue_series`] derives the per-cell
    /// view from them.
    pub queue_cell_runs: BTreeMap<(u16, u8), Vec<(u32, u8)>>,
    /// **Uplink** RLC transmission-queue samples (SDUs, `u32`) per
    /// (ue, drb), read from the UE-side transmit entity at each tick.
    /// Empty unless the scenario carries uplink data flows.
    pub ul_queue_series: BTreeMap<(u16, u8), Vec<u32>>,
    /// Delivered payload bytes per bin, attributed to the cell serving
    /// the receiving UE at delivery time (per-cell throughput series).
    pub cell_thr_bins: Vec<Vec<u64>>,
    /// Every handover executed, in time order.
    pub handovers: Vec<HandoverRecord>,
    /// Per-flow delay breakdown means.
    pub breakdown: Vec<BreakdownAvg>,
    /// Egress-rate estimation errors in percent (Fig. 20), if L4Span ran,
    /// in (sample tick, UE, DRB) order.
    pub rate_err_pct: Vec<f64>,
    /// Bytes the bearers' estimation-error logs held at the end of the
    /// run ([`Report::sample_store`]). Outside [`Report::fingerprint`]:
    /// it measures the store, not the model.
    pub rate_err_bytes: usize,
    /// Per-frame one-way delays (encoder capture → complete frame at the
    /// UE application), milliseconds, per flow in delivery order. Empty
    /// for flows without a framed application.
    pub frame_owd_ms: Vec<Vec<f64>>,
    /// Frames the application generated, per flow.
    pub frames_generated: Vec<u64>,
    /// Frames delivered complete to the UE, per flow. Completion is
    /// joined on delivery of the frame's *last* byte/packet; over a
    /// reliable (RLC AM) bearer that implies the whole frame arrived.
    /// Over UM, a mid-frame loss is not detected — the frame counts as
    /// delivered if its final packet arrives.
    pub frames_delivered: Vec<u64>,
    /// Frames that missed their deadline: delivered late, dropped by the
    /// encoder, or never delivered by run end. Per flow.
    pub frames_missed: Vec<u64>,
    /// Playback stall time per flow, milliseconds: the summed deadline
    /// excess of late frames plus one frame interval for every frame
    /// that never arrived.
    pub stall_ms: Vec<f64>,
    /// Request/burst completion times (issue → fully delivered at the
    /// UE), milliseconds, per flow in completion order.
    pub request_ms: Vec<Vec<f64>>,
    /// Per-flow finish time (app-limited flows), milliseconds from start.
    pub finish_ms: Vec<Option<f64>>,
    /// Per-flow start times.
    pub flow_start: Vec<Instant>,
    /// UE index each flow terminates at (joins flows to
    /// [`HandoverRecord::ue`]; empty in hand-built reports, in which
    /// case per-UE attribution is skipped).
    pub flow_ue: Vec<u16>,
    /// CE marks on downlink headers + tentative marks (L4Span), across
    /// both marker instances.
    pub total_marks: u64,
    /// CE marks applied by the **UE-side uplink** marker instance alone
    /// (zero in downlink-only scenarios; a subset of `total_marks`).
    pub ul_marks: u64,
    /// Downlink SDUs dropped at full RLC queues.
    pub rlc_drops: u64,
    /// Downlink transport blocks lost after HARQ exhaustion or
    /// destroyed mid-air by a handover.
    pub tbs_lost: u64,
    /// Downlink HARQ retransmission attempts.
    pub harq_retx: u64,
    /// The uplink's transport-block and RLC counters, summed over the
    /// cells and UEs (all zero unless a flow carries uplink data): the
    /// downlink's three above are the same type's fields. Outside
    /// [`Report::fingerprint`]: the uplink's outcome already reaches it
    /// through `ul_owd_ms` and `ul_queue_series`.
    pub uplink: LinkStats,
    /// L4Span resident table memory at end of run, bytes (if it ran).
    pub marker_memory: usize,
    /// Wall-clock nanoseconds spent inside marker event handlers,
    /// (dl, ul, feedback) — Fig. 21 / Table 1 material.
    pub marker_time_ns: (Vec<u64>, Vec<u64>, Vec<u64>),
    /// Per-subsystem wall-clock totals recorded when
    /// `ScenarioConfig::measure_cycles` was set (the `fig_breakdown`
    /// attribution table), summed over the run's replicas; empty
    /// otherwise. Excluded from the
    /// fingerprint for the same reason as `marker_time_ns`: wall-clock
    /// readings legitimately vary between runs.
    pub cycles: Vec<CycleStat>,
    /// Discrete events processed by the world's run loop. Deterministic
    /// and invariant to shard count and to `measure_cycles`, but outside
    /// [`Report::fingerprint`]: it counts the simulator's work, so it
    /// moves when the event loop gets leaner while the output does not.
    pub events: u64,
    /// [`Report::events`] broken down by event class, in the world's
    /// declaration order, classes that never fired left out: `("Slot",
    /// n)`, `("UlAtGnb", n)`, … Sums to `events`, and like it is
    /// deterministic, shard-count-invariant and outside the fingerprint.
    pub event_counts: Vec<(&'static str, u64)>,
    /// Jakes sums the cells' fading channels evaluated — the radio
    /// model's work, equal to the distinct (UE, 2 ms grid point) pairs
    /// the slot loops read. Deterministic, and outside the fingerprint
    /// for the same reason as `events`.
    pub fading_evals: u64,
    /// The most events any one queue held when the run loop went to pop
    /// it ([`l4span_sim::EventQueue::len`]): the largest over the cell
    /// queues of a cell-major world and over the replicas of a sharded
    /// one. Deterministic and outside the fingerprint like `events`; it
    /// tracks the timers and packets in flight, not the run length.
    pub queue_depth_peak: usize,
    /// Per-replica execution statistics when the world ran on more than
    /// one replica ([`crate::World::run`] on a multi-core host, or
    /// [`crate::run_sharded`]); empty for one-world runs.
    /// Excluded from the fingerprint like `cycles`: the deterministic
    /// `events` column aside, these are wall-clock readings, and the
    /// fingerprint must stay byte-invariant to shard count.
    pub shards: Vec<ShardStat>,
    /// Why the world ran time-major off a single queue — the reason
    /// [`crate::plan_shards_reason`] gives for refusing to treat its
    /// cells as independent (single cell, central CU marker, wired
    /// plane, bonded flow, a mobility step the barrier order would
    /// misplace). `None` for a world that ran
    /// cell-major, in one world or sharded. Excluded from the
    /// fingerprint like `shards`: it describes execution planning, not
    /// simulation.
    pub shard_reject: Option<ShardReject>,
    /// Cumulative impairment-pipeline counters, present exactly when the
    /// scenario configured an [`crate::ImpairmentSpec`]. Joins the
    /// fingerprint only in that case, so impairment-free runs stay
    /// byte-identical to the pre-impairment corpus.
    pub impairment: Option<ImpairmentCounters>,
    /// Prague classic-fallback transitions, in flow order. Empty unless
    /// a fallback-enabled sender actually fell back; joins the
    /// fingerprint only when non-empty (same reasoning as `impairment`).
    pub fallbacks: Vec<FallbackRecord>,
    /// Per-flow FEC/ARQ media-endpoint ledgers, in flow order. Empty
    /// unless the scenario ran `TransportSpec::FecMedia` flows; joins
    /// the fingerprint only when non-empty (same reasoning as
    /// `impairment`).
    pub fec: Vec<FecStat>,
    /// Per-bonded-flow leg and coupling summaries, in flow order. Empty
    /// unless the scenario bonded flows ([`crate::scenario::FlowSpec::bond`]);
    /// joins the fingerprint only when non-empty.
    pub bonds: Vec<BondStat>,
}

/// End-of-run ledger of one FEC/ARQ media flow: what the codec offered
/// and how every source packet was ultimately resolved at the receiver
/// (conservation: `delivered + repaired + abandoned == offered` once the
/// run is closed out).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FecStat {
    /// Flow index.
    pub flow: u16,
    /// Source packets the sender's codec offered.
    pub offered: u64,
    /// Source packets that arrived on their own.
    pub delivered: u64,
    /// Losses recovered by a repair packet or an ARQ retransmission.
    pub repaired: u64,
    /// Losses past the playout deadline (skipped, unrecoverable).
    pub abandoned: u64,
    /// Duplicate source arrivals (ARQ raced the original).
    pub duplicates: u64,
    /// ARQ retransmissions the sender emitted.
    pub retx: u64,
    /// Sliding-window repair packets the sender emitted.
    pub repairs: u64,
    /// Repair packets that arrived with nothing to repair.
    pub repairs_unused: u64,
}

/// One series family's share of a run's sample store
/// ([`Report::sample_store`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreShare {
    /// Which series.
    pub family: &'static str,
    /// Samples stored.
    pub samples: usize,
    /// Bytes they take as stored.
    pub bytes: usize,
}

/// End-of-run summary of one bonded (dual-connectivity) flow.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BondStat {
    /// Flow index.
    pub flow: u16,
    /// Data packets that reached the server per leg (0 = primary UE).
    pub leg_pkts: [u64; 2],
    /// Shared-bottleneck verdict at end of run.
    pub coupled: bool,
    /// Verdict transitions over the run (either direction).
    pub coupled_flips: u64,
    /// Join-buffer gap releases (timeout or occupancy cap); always zero
    /// for FEC media flows, whose receiver is its own join point.
    pub join_flushed: u64,
}

/// Execution statistics of one shard of a sharded run: the replica's
/// event count, its wall-clock busy time summed over epochs, the time
/// spent draining/routing cross-shard mailboxes on its behalf, and how
/// many envelopes it exchanged. `cycles` carries the shard's own
/// per-subsystem attribution when `measure_cycles` was on.
#[derive(Debug, Clone, Default)]
pub struct ShardStat {
    /// Shard index.
    pub shard: usize,
    /// Number of cells this shard owns.
    pub cells: usize,
    /// Events this replica's run loop processed (including its copy of
    /// the replicated housekeeping ticks). Deterministic.
    pub events: u64,
    /// Wall-clock nanoseconds this replica spent inside its epochs.
    pub busy_ns: u64,
    /// Wall-clock nanoseconds spent extracting, sorting, and injecting
    /// cross-shard envelopes for this shard.
    pub drain_ns: u64,
    /// Cross-shard envelopes this shard sent (outbox + migrated events).
    pub mailed: u64,
    /// Per-subsystem cycle attribution of this replica (empty unless
    /// `ScenarioConfig::measure_cycles`).
    pub cycles: Vec<CycleStat>,
}

impl Report {
    /// Mean goodput of a flow over the stated window, in Mbit/s.
    pub fn goodput_mbps(&self, flow: usize, from: Instant, to: Instant) -> f64 {
        let bin_s = self.bin.as_secs_f64();
        let lo = (from.as_nanos() / self.bin.as_nanos().max(1)) as usize;
        let hi =
            ((to.as_nanos() / self.bin.as_nanos().max(1)) as usize).min(self.thr_bins[flow].len());
        if hi <= lo {
            return 0.0;
        }
        let bytes: u64 = self.thr_bins[flow][lo..hi].iter().sum();
        bytes as f64 * 8.0 / ((hi - lo) as f64 * bin_s) / 1e6
    }

    /// Data packets delivered end to end, both directions (one one-way
    /// delay sample each): the denominator of "events per delivered
    /// packet", the run-length-independent measure of event-loop work.
    pub fn delivered_packets(&self) -> usize {
        let n = |v: &[Vec<f64>]| v.iter().map(Vec::len).sum::<usize>();
        n(&self.owd_ms) + n(&self.ul_owd_ms)
    }

    /// [`Report::events`] per [`Report::delivered_packets`].
    pub fn events_per_packet(&self) -> f64 {
        self.events as f64 / self.delivered_packets().max(1) as f64
    }

    /// Mean goodput over the whole run.
    pub fn goodput_total_mbps(&self, flow: usize) -> f64 {
        self.goodput_mbps(flow, Instant::ZERO, Instant::ZERO + self.duration)
    }

    /// Throughput time series in Mbit/s, aggregated to `agg` bins.
    pub fn throughput_series_mbps(&self, flow: usize, agg: usize) -> Vec<(f64, f64)> {
        let agg = agg.max(1);
        let bin_s = self.bin.as_secs_f64();
        self.thr_bins[flow]
            .chunks(agg)
            .enumerate()
            .map(|(i, c)| {
                let t = (i * agg) as f64 * bin_s;
                let mbps = c.iter().sum::<u64>() as f64 * 8.0 / (c.len() as f64 * bin_s) / 1e6;
                (t, mbps)
            })
            .collect()
    }

    /// Box statistics of a flow's one-way delay.
    pub fn owd_stats(&self, flow: usize) -> BoxStats {
        BoxStats::from_samples(&self.owd_ms[flow])
    }

    /// Times (seconds) of a flow's [`Report::owd_ms`] samples, decoded
    /// from its log.
    pub fn owd_at_s(&self, flow: usize) -> impl ExactSizeIterator<Item = f64> + '_ {
        decode(&self.delays[flow].owd).map(|(t, _)| t)
    }

    /// Times (seconds) of a flow's [`Report::ul_owd_ms`] samples,
    /// decoded from its log (none for a downlink flow).
    pub fn ul_owd_at_s(&self, flow: usize) -> impl ExactSizeIterator<Item = f64> + '_ {
        decode(&self.delays[flow].ul_owd).map(|(t, _)| t)
    }

    /// A flow's smoothed-RTT samples at ACK arrival, milliseconds,
    /// decoded from its log.
    pub fn rtt_ms(&self, flow: usize) -> impl ExactSizeIterator<Item = f64> + '_ {
        decode(&self.delays[flow].rtt).map(|(_, ms)| ms)
    }

    /// Times (seconds) of a flow's [`Report::rtt_ms`] samples.
    pub fn rtt_at_s(&self, flow: usize) -> impl ExactSizeIterator<Item = f64> + '_ {
        decode(&self.delays[flow].rtt).map(|(t, _)| t)
    }

    /// Box statistics of a flow's RTT samples.
    pub fn rtt_stats(&self, flow: usize) -> BoxStats {
        BoxStats::from_samples(&self.rtt_ms(flow).collect::<Vec<_>>())
    }

    /// RTT time series `(t_seconds, rtt_ms)` averaged into `bin_s`-second
    /// bins (Fig. 2's RTT traces).
    pub fn rtt_series(&self, flow: usize, bin_s: f64) -> Vec<(f64, f64)> {
        let mut sums: Vec<(f64, u32)> = Vec::new();
        for (t, v) in decode(&self.delays[flow].rtt) {
            let idx = (t / bin_s) as usize;
            if sums.len() <= idx {
                sums.resize(idx + 1, (0.0, 0));
            }
            sums[idx].0 += v;
            sums[idx].1 += 1;
        }
        sums.iter()
            .enumerate()
            .filter(|(_, &(_, n))| n > 0)
            .map(|(i, &(s, n))| (i as f64 * bin_s, s / n as f64))
            .collect()
    }

    /// Pooled one-way-delay statistics across a set of flows.
    pub fn owd_stats_pooled(&self, flows: &[usize]) -> BoxStats {
        let mut all = Vec::new();
        for &f in flows {
            all.extend_from_slice(&self.owd_ms[f]);
        }
        BoxStats::from_samples(&all)
    }

    /// Pooled uplink one-way-delay statistics across a set of flows.
    pub fn ul_owd_stats_pooled(&self, flows: &[usize]) -> BoxStats {
        let mut all = Vec::new();
        for &f in flows {
            if let Some(v) = self.ul_owd_ms.get(f) {
                all.extend_from_slice(v);
            }
        }
        BoxStats::from_samples(&all)
    }

    /// Pooled one-way delay over the `window` following each handover —
    /// the metric that separates the `MigrateState` and `ColdStart`
    /// marker policies (a stale migrated estimate under-marks against
    /// the new cell until its peak memory ages out). Each flow's samples
    /// are attributed only to handovers of its *own* UE (when `flow_ue`
    /// is populated) and counted at most once even when staggered
    /// handovers open overlapping windows.
    pub fn post_handover_owd(&self, flows: &[usize], window: Duration) -> BoxStats {
        debug_assert!(
            self.handovers.windows(2).all(|h| h[0].at <= h[1].at),
            "handovers out of time order"
        );
        let w = window.as_secs_f64();
        let mut all = Vec::new();
        for &f in flows {
            let ue = self.flow_ue.get(f).copied();
            let times: Vec<f64> = self.owd_at_s(f).collect();
            // The windows open in time order and are equally wide, so
            // they close in order too: each takes its samples from where
            // it opens, or where the one before closed if later, to
            // where it closes.
            let mut taken = 0;
            for h in &self.handovers {
                if ue.is_some_and(|u| u != h.ue) {
                    continue; // another UE moved; this flow is unaffected
                }
                let t0 = h.at.as_secs_f64();
                let from = taken.max(times.partition_point(|&t| t < t0));
                let to = times.partition_point(|&t| t < t0 + w);
                if from < to {
                    all.extend_from_slice(&self.owd_ms[f][from..to]);
                }
                taken = taken.max(to);
            }
        }
        BoxStats::from_samples(&all)
    }

    /// Box statistics of a flow's per-frame one-way delay (empty stats
    /// for flows without a framed application).
    pub fn frame_owd_stats(&self, flow: usize) -> BoxStats {
        BoxStats::from_samples(self.frame_owd_ms.get(flow).map_or(&[][..], |v| &v[..]))
    }

    /// Pooled per-frame one-way-delay statistics across flows.
    pub fn frame_owd_stats_pooled(&self, flows: &[usize]) -> BoxStats {
        let mut all = Vec::new();
        for &f in flows {
            if let Some(v) = self.frame_owd_ms.get(f) {
                all.extend_from_slice(v);
            }
        }
        BoxStats::from_samples(&all)
    }

    /// Fraction of a flow's frames that missed their deadline (late,
    /// dropped, or never delivered). `None` when the flow generated no
    /// frames.
    pub fn frame_deadline_miss_rate(&self, flow: usize) -> Option<f64> {
        let generated = *self.frames_generated.get(flow)?;
        if generated == 0 {
            return None;
        }
        Some(*self.frames_missed.get(flow)? as f64 / generated as f64)
    }

    /// Playback stall time of a flow, milliseconds.
    pub fn stall_time_ms(&self, flow: usize) -> f64 {
        self.stall_ms.get(flow).copied().unwrap_or(0.0)
    }

    /// Box statistics of a flow's request completion times.
    pub fn request_stats(&self, flow: usize) -> BoxStats {
        BoxStats::from_samples(self.request_ms.get(flow).map_or(&[][..], |v| &v[..]))
    }

    /// Mean handover interruption time in milliseconds over the records
    /// that resolved (`None` when no handover resolved at all).
    pub fn mean_interruption_ms(&self) -> Option<f64> {
        let gaps: Vec<f64> = self
            .handovers
            .iter()
            .filter_map(|h| h.interruption())
            .map(|d| d.as_millis_f64())
            .collect();
        if gaps.is_empty() {
            return None;
        }
        Some(gaps.iter().sum::<f64>() / gaps.len() as f64)
    }

    /// The queue samples broken out per serving cell, derived from
    /// [`Report::queue_series`] and its [`Report::queue_cell_runs`]:
    /// (cell, ue, drb) → the lengths sampled while that cell served the
    /// UE, every run of that attachment in time order. Series lengths
    /// differ per key exactly by attachment time.
    pub fn cell_queue_series(&self) -> BTreeMap<(u8, u16, u8), Vec<u32>> {
        let mut out: BTreeMap<(u8, u16, u8), Vec<u32>> = BTreeMap::new();
        for (&(ue, drb), runs) in &self.queue_cell_runs {
            let series = &self.queue_series[&(ue, drb)];
            for (k, &(first, cell)) in runs.iter().enumerate() {
                let end = runs
                    .get(k + 1)
                    .map_or(series.len(), |&(next, _)| next as usize);
                out.entry((cell, ue, drb))
                    .or_default()
                    .extend_from_slice(&series[first as usize..end]);
            }
        }
        out
    }

    /// The run's sample store per series family — the OWD/RTT logs,
    /// queue samples with their serving-cell runs, the estimation-error
    /// logs — as the recorder kept it: the delay logs this report holds,
    /// the estimation-error logs' bytes as [`Report::rate_err_bytes`]
    /// read them at the end of the run, the queue samples counted from
    /// this report's series at their stored width (growth slack not
    /// included).
    pub fn sample_store(&self) -> [StoreShare; 3] {
        let logs = self.delays.iter().flat_map(|d| [&d.owd, &d.ul_owd, &d.rtt]);
        let (delays, delay_bytes) = logs.fold((0, 0), |(n, b), l| (n + l.len(), b + l.bytes()));
        let queues = self
            .queue_series
            .values()
            .chain(self.ul_queue_series.values());
        let queue: usize = queues.map(Vec::len).sum();
        let runs: usize = self.queue_cell_runs.values().map(Vec::len).sum();
        [
            StoreShare {
                family: "owd/rtt log",
                samples: delays,
                bytes: delay_bytes,
            },
            StoreShare {
                family: "queue",
                samples: queue,
                bytes: queue * size_of::<QueueSample>() + runs * size_of::<(u32, u8)>(),
            },
            StoreShare {
                family: "rate error",
                samples: self.rate_err_pct.len(),
                bytes: self.rate_err_bytes,
            },
        ]
    }

    /// Mean goodput served by one cell over the whole run, in Mbit/s.
    pub fn cell_goodput_mbps(&self, cell: usize) -> f64 {
        let bytes: u64 = self.cell_thr_bins.get(cell).map_or(0, |b| b.iter().sum());
        bytes as f64 * 8.0 / self.duration.as_secs_f64() / 1e6
    }

    /// A byte-exact textual digest of every *simulation-derived* field,
    /// for determinism tests: two runs of the same seeded scenario must
    /// produce identical fingerprints.
    ///
    /// Deliberately *not* in it: wall time (`marker_time_ns`), `cycles`
    /// and `shards` (host readings that legitimately vary between
    /// runs), and the event count `events` — that is what the simulator
    /// *did* to produce the samples, not what the model *says*, so a
    /// change to how many wake-ups the world pops must not read as a
    /// change in simulated output. `events` stays deterministic and is
    /// asserted on its own (shard-count and `measure_cycles`
    /// invariance). `queue_series` is emitted in sorted key order so
    /// the digest does not depend on hash-map iteration order. Floats
    /// are formatted with `{:?}` (shortest round-trip), so equal
    /// fingerprints imply bit-identical values. The sample times and
    /// RTTs are decoded from the delay logs as they are written, in the
    /// `{:?}` form of the `Vec<Vec<f64>>` they decode to.
    pub fn fingerprint(&self) -> String {
        let mut s = String::new();
        self.write_fingerprint(&mut s)
            .expect("writing to a String does not fail");
        s
    }

    /// A compact, stable 64-bit digest of [`Report::fingerprint`]
    /// (FNV-1a over the fingerprint bytes), rendered as 16 lowercase hex
    /// digits. This is what the golden-fingerprint regression corpus
    /// checks in: equal digests ⇒ byte-identical fingerprints for all
    /// practical purposes, and the corpus file stays reviewable. The
    /// bytes are hashed as they are formatted, without building the
    /// fingerprint.
    pub fn fingerprint_digest(&self) -> String {
        let mut h = Fnv1a::default();
        self.write_fingerprint(&mut h)
            .expect("hashing does not fail");
        format!("{:016x}", h.0)
    }

    /// Write [`Report::fingerprint`] to `w`.
    fn write_fingerprint(&self, w: &mut impl fmt::Write) -> fmt::Result {
        let times = |log| decoded(&self.delays, log, |(t, _)| t);
        write!(
            w,
            "duration={:?};bin={:?};owd={:?};owd_at={:?};rtt={:?};rtt_at={:?};thr={:?};cthr={:?};",
            self.duration,
            self.bin,
            self.owd_ms,
            times(|d| &d.owd),
            decoded(&self.delays, |d| &d.rtt, |(_, ms)| ms),
            times(|d| &d.rtt),
            self.thr_bins,
            self.cell_thr_bins
        )?;
        write!(
            w,
            "ulowd={:?};ulowd_at={:?};",
            self.ul_owd_ms,
            times(|d| &d.ul_owd)
        )?;
        for (k, v) in &self.queue_series {
            write!(w, "q{:?}={:?};", k, v)?;
        }
        for (k, v) in &self.cell_queue_series() {
            write!(w, "cq{:?}={:?};", k, v)?;
        }
        for (k, v) in &self.ul_queue_series {
            write!(w, "uq{:?}={:?};", k, v)?;
        }
        for h in &self.handovers {
            write!(w, "ho={:?};", h)?;
        }
        for b in &self.breakdown {
            write!(w, "bd={:?}/{};", b.mean(), b.count())?;
        }
        write!(
            w,
            "fowd={:?};fgen={:?};fdel={:?};fmiss={:?};stall={:?};req={:?};",
            self.frame_owd_ms,
            self.frames_generated,
            self.frames_delivered,
            self.frames_missed,
            self.stall_ms,
            self.request_ms
        )?;
        write!(
            w,
            "err={:?};fin={:?};start={:?};fue={:?};marks={};ulmarks={};rlc_drops={};tbs_lost={};harq={};mem={}",
            self.rate_err_pct,
            self.finish_ms,
            self.flow_start,
            self.flow_ue,
            self.total_marks,
            self.ul_marks,
            self.rlc_drops,
            self.tbs_lost,
            self.harq_retx,
            self.marker_memory
        )?;
        // Impairment-era fields are appended *conditionally* so every
        // impairment-free run fingerprints byte-identically to the
        // pre-impairment corpus (both gates are deterministic: the
        // counters exist iff the config asked for a pipeline, and
        // fallback transitions are seeded-simulation outcomes).
        if let Some(imp) = &self.impairment {
            write!(
                w,
                ";imp=bleached:{},remarked:{},ect_dropped:{},qmarks:{},qdrops:{}",
                imp.bleached, imp.remarked, imp.ect_dropped, imp.queue_marks, imp.queue_drops
            )?;
        }
        for f in &self.fallbacks {
            write!(w, ";fb={},{:?},{}", f.flow, f.at_ms, f.reason)?;
        }
        // Bonding-era fields follow the same conditional rule: they are
        // non-empty exactly when the scenario ran FecMedia or bonded
        // flows, so every pre-bonding run keeps its corpus fingerprint.
        for f in &self.fec {
            write!(
                w,
                ";fec={},{},{},{},{},{},{},{},{}",
                f.flow,
                f.offered,
                f.delivered,
                f.repaired,
                f.abandoned,
                f.duplicates,
                f.retx,
                f.repairs,
                f.repairs_unused
            )?;
        }
        for b in &self.bonds {
            write!(
                w,
                ";bond={},{:?},{},{},{}",
                b.flow, b.leg_pkts, b.coupled, b.coupled_flips, b.join_flushed
            )?;
        }
        Ok(())
    }

    /// Pooled throughput box stats (per-bin Mbit/s across flows).
    pub fn throughput_stats_pooled(&self, flows: &[usize]) -> BoxStats {
        let bin_s = self.bin.as_secs_f64();
        let mut all = Vec::new();
        for &f in flows {
            // Skip bins before flow start and leading zeros (handshake).
            let start_bin =
                (self.flow_start[f].as_nanos() / self.bin.as_nanos().max(1)) as usize + 1;
            for &b in self.thr_bins[f].iter().skip(start_bin) {
                all.push(b as f64 * 8.0 / bin_s / 1e6);
            }
        }
        BoxStats::from_samples(&all)
    }
}

/// Cadence of the world's `Sample` housekeeping tick: the step of the
/// queue-length series and of the estimation-error log.
pub(crate) const SAMPLE_PERIOD: Duration = Duration::from_millis(10);

/// An entry of [`DrbRow::in_air`] this many SNs behind a delivery
/// belongs to an SDU that will never be delivered (lost in UM, or a
/// forwarded SDU tail-dropped at a handover target) and is dropped.
const IN_AIR_LOST_SNS: Sn = 1024;

/// Slots [`DrbRow::in_air`] reserves at its first push, so a bearer's
/// first packets do not regrow it (and an idle bearer never allocates).
const IN_AIR_RESERVE: usize = 32;

/// One stored RLC queue-length sample, in SDUs.
type QueueSample = u32;

const _: () = assert!(size_of::<QueueSample>() == 4);

/// Bytes a [`SampleLog`] reserves at its first push: ≈ 36 delay
/// samples, so a short flow's log never regrows and a long one skips
/// the small doublings.
const SAMPLE_LOG_FIRST_BLOCK: usize = 256;

/// Bytes an estimation-error sample takes in its bearer's log when it
/// follows the previous one within 127 ticks: a one-byte tick delta and
/// the `f64`.
const RATE_ERR_BYTES: usize = 1 + size_of::<f64>();

/// A value a [`SampleLog`] keeps beside each sample's time.
trait LogValue: Copy {
    /// Write `self` at the front of `out`; the bytes written.
    fn encode(self, out: &mut [u8]) -> usize;
    /// Read one value off the front of `bytes`.
    fn decode(bytes: &mut &[u8]) -> Self;
}

/// An integer as a LEB128 varint: seven bits a byte, low bits first,
/// the top bit set on every byte but the last (1 to 10 bytes).
impl LogValue for u64 {
    fn encode(mut self, out: &mut [u8]) -> usize {
        let mut n = 0;
        while self >= 0x80 {
            out[n] = self as u8 | 0x80;
            self >>= 7;
            n += 1;
        }
        out[n] = self as u8;
        n + 1
    }

    fn decode(bytes: &mut &[u8]) -> u64 {
        let mut v = 0;
        let mut shift = 0;
        loop {
            let (&b, rest) = bytes.split_first().expect("a varint ends in its log");
            *bytes = rest;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }
}

/// A float as its eight little-endian bytes, bit for bit.
impl LogValue for f64 {
    fn encode(self, out: &mut [u8]) -> usize {
        out[..8].copy_from_slice(&self.to_le_bytes());
        8
    }

    fn decode(bytes: &mut &[u8]) -> f64 {
        let (v, rest) = bytes.split_first_chunk().expect("a float ends in its log");
        *bytes = rest;
        f64::from_le_bytes(*v)
    }
}

/// An append-only byte log of `(time, value)` samples in time order.
/// Each time is stored as a LEB128 varint of its distance from the
/// previous sample's (the first from 0), each value as its
/// [`LogValue`] encoding: a delay sample in integer nanoseconds takes
/// ≈ 7 bytes where an `(f64, f64)` pair took 16. The log reserves
/// [`SAMPLE_LOG_FIRST_BLOCK`] at its first push unless sized before.
struct SampleLog<V> {
    bytes: Vec<u8>,
    /// Time of the newest sample.
    last: u64,
    /// Samples stored.
    len: usize,
    value: PhantomData<V>,
}

impl<V> Default for SampleLog<V> {
    fn default() -> Self {
        SampleLog {
            bytes: Vec::new(),
            last: 0,
            len: 0,
            value: PhantomData,
        }
    }
}

impl<V: LogValue> SampleLog<V> {
    /// Append `value` sampled at `t`, which is never before the newest
    /// sample's time.
    fn push(&mut self, t: u64, value: V) {
        debug_assert!(
            t >= self.last,
            "sample at {t} before the previous one at {}",
            self.last
        );
        if self.bytes.capacity() == 0 {
            self.bytes.reserve_exact(SAMPLE_LOG_FIRST_BLOCK);
        }
        let mut buf = [0; 20];
        let n = t.wrapping_sub(self.last).encode(&mut buf);
        let n = n + value.encode(&mut buf[n..]);
        self.bytes.extend_from_slice(&buf[..n]);
        self.last = t;
        self.len += 1;
    }

    /// Reserve `bytes` for the log if it holds nothing yet, in place of
    /// the first block.
    fn reserve_first(&mut self, bytes: usize) -> &mut Self {
        if self.bytes.capacity() == 0 {
            self.bytes.reserve_exact(bytes);
        }
        self
    }

    /// The samples in push order.
    fn iter(&self) -> LogIter<'_, V> {
        LogIter {
            bytes: &self.bytes,
            t: 0,
            left: self.len,
            value: PhantomData,
        }
    }

    /// Samples stored.
    fn len(&self) -> usize {
        self.len
    }

    /// Bytes the samples take (growth slack not included).
    fn bytes(&self) -> usize {
        self.bytes.len()
    }
}

/// A log's size, not its bytes.
impl<V> fmt::Debug for SampleLog<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SampleLog")
            .field("len", &self.len)
            .field("bytes", &self.bytes.len())
            .finish()
    }
}

/// A [`SampleLog`]'s samples in push order.
struct LogIter<'a, V> {
    bytes: &'a [u8],
    /// Time of the sample read last.
    t: u64,
    /// Samples not read yet.
    left: usize,
    value: PhantomData<V>,
}

impl<V: LogValue> Iterator for LogIter<'_, V> {
    type Item = (u64, V);

    fn next(&mut self) -> Option<(u64, V)> {
        self.left = self.left.checked_sub(1)?;
        self.t = self.t.wrapping_add(u64::decode(&mut self.bytes));
        Some((self.t, V::decode(&mut self.bytes)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<V: LogValue> ExactSizeIterator for LogIter<'_, V> {}

/// A flow's delay logs, in integer ns: one push per sample, kept as
/// they are by the report.
#[derive(Debug, Default)]
pub(crate) struct DelayLogs {
    /// One-way delays by delivery time.
    owd: SampleLog<u64>,
    /// Uplink data one-way delays (UE sender → server), logged like
    /// `owd`.
    ul_owd: SampleLog<u64>,
    /// Smoothed RTTs by ACK arrival, logged like `owd`.
    rtt: SampleLog<u64>,
}

/// A delay log's samples as `(time s, delay ms)`. The divisions are the
/// ones the world's own `Instant::as_secs_f64` and
/// `Duration::as_millis_f64` make, so a decoded sample is bit for bit
/// what an `f64` pushed at the same instant would have been.
fn decode(log: &SampleLog<u64>) -> impl ExactSizeIterator<Item = (f64, f64)> + '_ {
    log.iter().map(|(t, ns)| {
        let at = Instant::from_nanos(t).as_secs_f64();
        (at, Duration::from_nanos(ns).as_millis_f64())
    })
}

/// The `part` of every flow's `log`, formatted as `{:?}` formats the
/// `Vec<Vec<f64>>` it decodes to, one sample at a time.
fn decoded<'a>(
    flows: &'a [DelayLogs],
    log: fn(&DelayLogs) -> &SampleLog<u64>,
    part: fn((f64, f64)) -> f64,
) -> impl fmt::Debug + 'a {
    fmt::from_fn(move |f| {
        let flow =
            |d| fmt::from_fn(move |f| f.debug_list().entries(decode(log(d)).map(part)).finish());
        f.debug_list().entries(flows.iter().map(flow)).finish()
    })
}

/// FNV-1a over the bytes written to it.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// What the recorder keeps per (UE, DRB): the delay breakdown of the
/// SDUs on the air, the ground-truth egress log, the bearer's
/// queue-length series and its estimation-error log.
#[derive(Default)]
struct DrbRow {
    /// `(PDCP SN, queuing ms, scheduling ms)` of the SDUs between their
    /// first transmit record and their delivery, in ascending SN: the
    /// Fig. 10 breakdown awaiting its one-way delay.
    in_air: VecDeque<(Sn, f64, f64)>,
    /// Ground-truth egress log `(t_txed, bytes)`, the Fig. 20
    /// reference, trimmed to four estimation windows at each sample
    /// tick.
    gt: VecDeque<(Instant, usize)>,
    /// First SN without a transmit record. A forwarded SDU
    /// retransmitted by the target cell emits a second transmit record
    /// for the same SN; the L4Span estimator's profile table ignores
    /// that non-advancing feedback, so the ground truth must apply the
    /// same SN-monotone dedup or `rate_err_pct` reads systematically
    /// negative after every handover. The breakdown keeps the first
    /// record's timing by the same rule.
    next_sn: Sn,
    /// Downlink RLC queue samples, read from the serving cell at each
    /// tick (`Report::queue_series`; empty until first sampled).
    dl_queue: Vec<QueueSample>,
    /// `dl_queue`'s serving-cell runs (`Report::queue_cell_runs`).
    dl_cells: Vec<(u32, u8)>,
    /// UE-side uplink transmit-queue samples (`Report::ul_queue_series`;
    /// empty until first sampled).
    ul_queue: Vec<QueueSample>,
    /// Estimation errors in percent by sample tick (instant /
    /// [`SAMPLE_PERIOD`]), sized for the whole run at the first sample
    /// (`Report::rate_err_pct`, merged over the bearers).
    rate_err: SampleLog<f64>,
}

impl DrbRow {
    /// Apply a transmit record: only the first for its SN counts, and
    /// goes into the ground-truth log (`gt`) and the breakdown window
    /// (`in_air`) as asked.
    fn on_txed(&mut self, rec: &TxRecord, gt: bool, in_air: bool) {
        if rec.sn < self.next_sn {
            return;
        }
        self.next_sn = rec.sn + 1;
        if gt {
            self.gt.push_back((rec.t_txed, rec.size));
        }
        if in_air {
            if self.in_air.capacity() == 0 {
                self.in_air.reserve(IN_AIR_RESERVE);
            }
            let queuing = rec.t_head.saturating_since(rec.t_ingress).as_millis_f64();
            let sched = rec.t_first_tx.saturating_since(rec.t_head).as_millis_f64();
            self.in_air.push_back((rec.sn, queuing, sched));
        }
    }

    /// Take the `(queuing ms, scheduling ms)` of the SDU delivered
    /// under `sn`, dropping the entries [`IN_AIR_LOST_SNS`] behind it.
    /// By SN, not from the front: a handover onto a cell with a shorter
    /// UE-internal delay can deliver out of SN order.
    fn take_in_air(&mut self, sn: Sn) -> Option<(f64, f64)> {
        while self
            .in_air
            .front()
            .is_some_and(|e| e.0 + IN_AIR_LOST_SNS <= sn)
        {
            self.in_air.pop_front();
        }
        let i = self.in_air.binary_search_by_key(&sn, |e| e.0).ok()?;
        self.in_air
            .remove(i)
            .map(|(_, queuing, sched)| (queuing, sched))
    }

    /// The ground truth at `now`: bytes per second sent in the `window`
    /// before the newest transmit record, after trimming the log to four
    /// windows. `None` when the bearer has been idle for a window.
    fn ground_truth(&mut self, now: Instant, window: Duration) -> Option<f64> {
        while self
            .gt
            .front()
            .is_some_and(|&(t, _)| now.saturating_since(t) > window * 4)
        {
            self.gt.pop_front();
        }
        let &(anchor, _) = self.gt.back()?;
        if now.saturating_since(anchor) > window {
            return None; // stale: DRB idle, nothing to compare
        }
        let bytes: usize = self
            .gt
            .iter()
            .filter(|&&(t, _)| anchor.saturating_since(t) < window)
            .map(|&(_, b)| b)
            .sum();
        Some(bytes as f64 / window.as_secs_f64())
    }
}

/// `rows[drb]`, growing `rows` up to it on first use.
fn drb_row(rows: &mut Vec<DrbRow>, drb: u8) -> &mut DrbRow {
    let d = usize::from(drb);
    if rows.len() <= d {
        rows.resize_with(d + 1, DrbRow::default);
    }
    &mut rows[d]
}

/// `series`, sized for the whole run's `cap` entries when it first
/// appears, so recording into it never regrows it.
pub(crate) fn run_sized<T>(series: &mut Vec<T>, cap: usize) -> &mut Vec<T> {
    if series.capacity() == 0 {
        series.reserve_exact(cap);
    }
    series
}

/// A queue length as stored.
fn queue_sample(len: usize) -> QueueSample {
    QueueSample::try_from(len).expect("an RLC queue holds fewer than 2^32 SDUs")
}

/// What the recorder keeps per flow.
#[derive(Default)]
struct FlowRow {
    /// The flow's UE and data direction.
    ue: usize,
    dir: FlowDir,
    /// Delay samples, moved into the report at the end.
    delays: DelayLogs,
    /// Received payload bytes per throughput bin.
    thr: Vec<u64>,
    /// Delay breakdown of the delivered downlink packets.
    breakdown: BreakdownAvg,
    /// Delivered frames' one-way delays (capture → complete), ms; one
    /// per frame delivered.
    frame_owd_ms: Vec<f64>,
    /// Frames an application offered the transport (a media source
    /// inside the sender counts its own: [`Recorder::finish`]).
    frames_generated: u64,
    /// Frames that missed their deadline: delivered late, and from the
    /// end of the run those never delivered.
    frames_missed: u64,
    /// Playback stall, ms: the deadline excess of late frames, and from
    /// the end of the run one frame interval per frame never delivered.
    stall_ms: f64,
    /// Request/burst completion times, ms.
    request_ms: Vec<f64>,
}

/// What the recorder keeps per UE.
#[derive(Default)]
struct UeRow {
    /// `[drb]`: the per-bearer rows, grown to the highest DRB id at
    /// first use.
    drbs: Vec<DrbRow>,
    /// The UE's handovers in time order. The last one's gap is open
    /// (`first_delivery_after` is `None`) until the next delivery.
    handovers: Vec<HandoverRecord>,
    /// Time of the last payload-bearing downlink delivery.
    last_delivery: Option<Instant>,
}

/// The run-time metric store of a world, its one sink: a row per flow,
/// a row per UE (its bearers' rows within) and the per-cell throughput
/// bins. The world writes through the methods below and hands the store
/// to [`Recorder::finish`], which assembles the report's series. A shard
/// replica's share swaps with its owner row by row ([`Recorder::swap_flow`],
/// [`Recorder::swap_ue`], [`Recorder::swap_cell`]), so every sample stays
/// in the row it describes.
pub(crate) struct Recorder {
    flows: Vec<FlowRow>,
    ues: Vec<UeRow>,
    /// Delivered payload bytes per throughput bin, per cell serving the
    /// receiving UE at delivery time.
    cells: Vec<Vec<u64>>,
    /// Sample ticks in the run: what a queue series reserves.
    ticks: usize,
    /// Throughput bin width, ns.
    bin_ns: u64,
    /// Throughput bins in the run: what a bin series reserves.
    bins: usize,
}

impl Recorder {
    /// An empty store for `cfg`'s flows, UEs and cells.
    pub(crate) fn new(cfg: &ScenarioConfig) -> Recorder {
        let bin_ns = cfg.thr_bin.as_nanos().max(1);
        let flow = |f: &FlowSpec| FlowRow {
            ue: f.ue,
            dir: f.dir,
            ..FlowRow::default()
        };
        Recorder {
            flows: cfg.flows.iter().map(flow).collect(),
            ues: (0..cfg.ues.len()).map(|_| UeRow::default()).collect(),
            cells: vec![Vec::new(); cfg.n_cells()],
            ticks: (cfg.duration.as_nanos() / SAMPLE_PERIOD.as_nanos()) as usize,
            bin_ns,
            bins: (cfg.duration.as_nanos() / bin_ns) as usize + 1,
        }
    }

    /// A transmit record of `ue`'s bearer `drb`: the first one for its
    /// SN goes into the ground-truth log if `gt` and the breakdown
    /// window if `in_air`.
    #[inline]
    pub(crate) fn on_txed(&mut self, ue: usize, drb: u8, rec: &TxRecord, gt: bool, in_air: bool) {
        drb_row(&mut self.ues[ue].drbs, drb).on_txed(rec, gt, in_air);
    }

    /// The `(queuing ms, scheduling ms)` of the SDU `ue`'s bearer `drb`
    /// delivered under `sn`, leaving the breakdown window.
    #[inline]
    pub(crate) fn take_in_air(&mut self, ue: usize, drb: u8, sn: Sn) -> Option<(f64, f64)> {
        self.ues[ue].drbs.get_mut(usize::from(drb))?.take_in_air(sn)
    }

    /// `bytes` of `flow`'s payload reached its receiver at `now`, `owd`
    /// after they left the sender, while `cell` served the flow's UE: a
    /// one-way delay sample, throughput for the flow and the cell, and
    /// for a downlink flow the end of the delivery gap a handover of the
    /// UE left open. Each bin series is sized for the whole run when it
    /// first appears; its length still ends at the last bin that saw a
    /// delivery.
    pub(crate) fn push_delivery(
        &mut self,
        flow: usize,
        cell: usize,
        owd: Duration,
        bytes: usize,
        now: Instant,
    ) {
        let row = &mut self.flows[flow];
        let (t, owd) = (now.as_nanos(), owd.as_nanos());
        match row.dir {
            FlowDir::Uplink => row.delays.ul_owd.push(t, owd),
            FlowDir::Downlink => {
                row.delays.owd.push(t, owd);
                let ue = &mut self.ues[row.ue];
                ue.last_delivery = Some(now);
                let open = ue
                    .handovers
                    .last_mut()
                    .filter(|h| h.first_delivery_after.is_none());
                if let Some(h) = open {
                    h.first_delivery_after = Some(now);
                }
            }
        }
        let bin = (now.as_nanos() / self.bin_ns) as usize;
        for bins in [&mut row.thr, &mut self.cells[cell]] {
            let bins = run_sized(bins, self.bins);
            if bins.len() <= bin {
                bins.resize(bin + 1, 0);
            }
            bins[bin] += bytes as u64;
        }
    }

    /// A smoothed-RTT reading of `flow`'s sender at `now`.
    #[inline]
    pub(crate) fn push_rtt(&mut self, flow: usize, srtt: Duration, now: Instant) {
        self.flows[flow]
            .delays
            .rtt
            .push(now.as_nanos(), srtt.as_nanos());
    }

    /// The delay breakdown of a downlink packet of `flow` that arrived
    /// `owd` ms after it left the server: `prop` ms on the WAN and core,
    /// `(queuing, scheduling)` ms in the RLC queue, the rest transmission.
    pub(crate) fn push_breakdown(&mut self, flow: usize, owd: f64, prop: f64, rlc: (f64, f64)) {
        let (queuing, scheduling) = rlc;
        let other = (owd - prop - queuing - scheduling).max(0.0);
        let b = Breakdown {
            propagation: prop,
            queuing,
            scheduling,
            other,
        };
        self.flows[flow].breakdown.push(b);
    }

    /// `flow`'s application offered `frames` more frames.
    pub(crate) fn push_frames_generated(&mut self, flow: usize, frames: u64) {
        self.flows[flow].frames_generated += frames;
    }

    /// A unit of `flow` created at `created` completed at `now`: a
    /// frame (late past `deadline`, if it has one) or a request.
    pub(crate) fn push_unit(
        &mut self,
        flow: usize,
        kind: UnitKind,
        created: Instant,
        deadline: Option<Duration>,
        now: Instant,
    ) {
        let row = &mut self.flows[flow];
        let ms = now.saturating_since(created).as_millis_f64();
        match kind {
            UnitKind::Frame => {
                row.frame_owd_ms.push(ms);
                if let Some(d) = deadline {
                    let d_ms = d.as_millis_f64();
                    if ms > d_ms {
                        row.frames_missed += 1;
                        row.stall_ms += ms - d_ms;
                    }
                }
            }
            UnitKind::Request => row.request_ms.push(ms),
        }
    }

    /// `ue` handed over from cell `from` to cell `to` at `at`. Its
    /// delivery gap opens at its last delivery and stays open until the
    /// next one.
    pub(crate) fn push_handover(&mut self, ue: usize, at: Instant, from: usize, to: usize) {
        let row = &mut self.ues[ue];
        row.handovers.push(HandoverRecord {
            ue: ue as u16,
            at,
            from_cell: from as u8,
            to_cell: to as u8,
            last_delivery_before: row.last_delivery,
            first_delivery_after: None,
        });
    }

    /// A tick's downlink queue length of `ue`'s bearer `drb`, read from
    /// its serving `cell`.
    pub(crate) fn push_dl_queue(&mut self, ue: usize, drb: u8, cell: u8, len: usize) {
        let ticks = self.ticks;
        let row = drb_row(&mut self.ues[ue].drbs, drb);
        if row.dl_cells.last().is_none_or(|&(_, c)| c != cell) {
            let first = u32::try_from(row.dl_queue.len()).expect("fewer than 2^32 ticks");
            row.dl_cells.push((first, cell));
        }
        run_sized(&mut row.dl_queue, ticks).push(queue_sample(len));
    }

    /// A tick's UE-side uplink queue length of `ue`'s bearer `drb`.
    pub(crate) fn push_ul_queue(&mut self, ue: usize, drb: u8, len: usize) {
        let ticks = self.ticks;
        let row = drb_row(&mut self.ues[ue].drbs, drb);
        run_sized(&mut row.ul_queue, ticks).push(queue_sample(len));
    }

    /// A tick's estimation error on each of `ue`'s bearers: the ground
    /// truth over `window`, anchored at the newest dequeue event exactly
    /// as Eq. 3 anchors its window at the latest feedback (anchoring at
    /// the sample tick instead would under-count by a partial TDD frame
    /// and read as a systematic positive bias), against the marker's
    /// `estimate` for the DRB. A bearer idle for a window, or carrying
    /// under 50 kB/s, takes no sample.
    pub(crate) fn push_rate_err(
        &mut self,
        ue: usize,
        now: Instant,
        window: Duration,
        mut estimate: impl FnMut(u8) -> Option<f64>,
    ) {
        let tick = now.as_nanos() / SAMPLE_PERIOD.as_nanos();
        let run_bytes = self.ticks * RATE_ERR_BYTES;
        for (drb, row) in self.ues[ue].drbs.iter_mut().enumerate() {
            let Some(gt) = row.ground_truth(now, window) else {
                continue;
            };
            if gt > 50_000.0 {
                if let Some(est) = estimate(drb as u8) {
                    let pct = (est - gt) / gt * 100.0;
                    row.rate_err.reserve_first(run_bytes).push(tick, pct);
                }
            }
        }
    }

    /// Swap `ue`'s row between two replicas' stores.
    pub(crate) fn swap_ue(a: &mut Recorder, b: &mut Recorder, ue: usize) {
        std::mem::swap(&mut a.ues[ue], &mut b.ues[ue]);
    }

    /// Swap `flow`'s row between two replicas' stores.
    pub(crate) fn swap_flow(a: &mut Recorder, b: &mut Recorder, flow: usize) {
        std::mem::swap(&mut a.flows[flow], &mut b.flows[flow]);
    }

    /// Swap `cell`'s throughput bins between two replicas' stores.
    pub(crate) fn swap_cell(a: &mut Recorder, b: &mut Recorder, cell: usize) {
        std::mem::swap(&mut a.cells[cell], &mut b.cells[cell]);
    }

    /// Assemble the store into `r`'s series, given per flow what only the
    /// world knows: the frames a media source inside the sender generated
    /// (`None`: the offers counted here) and the frame interval. A frame
    /// never completed by run end (in flight, lost in UM, or discarded by
    /// the encoder) misses its deadline and stalls playback one interval.
    /// Handovers go in `(time, ue)` order, the one-world push order,
    /// which merges the replicas' logs; the key is unique, so the
    /// in-place unstable sort gives the stable sort's result without its
    /// scratch buffer. Estimation errors are merged from the bearers'
    /// logs in `(tick, ue, drb)` order ([`merge_rate_err`]). A queue
    /// series that never took a sample has no key. The flows' delay logs
    /// move into the report as they are, their one-way delays decoded
    /// once into `owd_ms` and `ul_owd_ms`, each sized to its flow's count.
    pub(crate) fn finish(
        self,
        r: &mut Report,
        framing: impl Iterator<Item = (Option<u64>, Option<Duration>)>,
    ) {
        let Recorder {
            mut flows,
            ues,
            cells,
            ..
        } = self;
        (r.rate_err_pct, r.rate_err_bytes) = merge_rate_err(&ues);
        let mut handovers = Vec::new();
        for (ue, row) in ues.into_iter().enumerate() {
            handovers.extend(row.handovers);
            for (drb, row) in row.drbs.into_iter().enumerate() {
                let key = (ue as u16, drb as u8);
                if !row.dl_queue.is_empty() {
                    r.queue_series.insert(key, row.dl_queue);
                    r.queue_cell_runs.insert(key, row.dl_cells);
                }
                if !row.ul_queue.is_empty() {
                    r.ul_queue_series.insert(key, row.ul_queue);
                }
            }
        }
        handovers.sort_unstable_by_key(|h| (h.at, h.ue));
        debug_assert!(handovers
            .windows(2)
            .all(|w| (w[0].at, w[0].ue) < (w[1].at, w[1].ue)));
        r.handovers = handovers;
        r.cell_thr_bins = cells;
        for (row, (in_sender, interval)) in flows.iter_mut().zip(framing) {
            row.frames_generated = in_sender.unwrap_or(row.frames_generated);
            let undelivered = row
                .frames_generated
                .saturating_sub(row.frame_owd_ms.len() as u64);
            row.frames_missed += undelivered;
            row.stall_ms += undelivered as f64 * interval.map_or(0.0, |i| i.as_millis_f64());
        }
        r.frames_generated = flows.iter().map(|f| f.frames_generated).collect();
        r.frames_delivered = flows.iter().map(|f| f.frame_owd_ms.len() as u64).collect();
        r.frames_missed = flows.iter().map(|f| f.frames_missed).collect();
        r.stall_ms = flows.iter().map(|f| f.stall_ms).collect();
        r.breakdown = flows.iter().map(|f| f.breakdown).collect();
        let values = |log: &SampleLog<u64>| decode(log).map(|(_, ms)| ms).collect();
        r.owd_ms = flows.iter().map(|f| values(&f.delays.owd)).collect();
        r.ul_owd_ms = flows.iter().map(|f| values(&f.delays.ul_owd)).collect();
        use std::mem::take;
        r.delays = flows.iter_mut().map(|f| take(&mut f.delays)).collect();
        r.thr_bins = flows.iter_mut().map(|f| take(&mut f.thr)).collect();
        r.frame_owd_ms = flows
            .iter_mut()
            .map(|f| take(&mut f.frame_owd_ms))
            .collect();
        r.request_ms = flows.iter_mut().map(|f| take(&mut f.request_ms)).collect();
    }

    /// Downlink queue samples taken so far, over every bearer.
    #[cfg(test)]
    pub(crate) fn dl_queue_samples(&self) -> usize {
        self.ues
            .iter()
            .flat_map(|u| &u.drbs)
            .map(|r| r.dl_queue.len())
            .sum()
    }

    /// The send times in every bearer's ground-truth log.
    #[cfg(test)]
    pub(crate) fn ground_truth_log(&self) -> impl Iterator<Item = Instant> + '_ {
        self.ues
            .iter()
            .flat_map(|u| &u.drbs)
            .flat_map(|r| r.gt.iter().map(|&(t, _)| t))
    }

    /// The most SDUs any bearer's breakdown window holds.
    #[cfg(test)]
    pub(crate) fn widest_in_air(&self) -> usize {
        self.ues
            .iter()
            .flat_map(|u| &u.drbs)
            .map(|r| r.in_air.len())
            .max()
            .unwrap_or(0)
    }
}

/// The bearers' estimation-error logs merged into one series in
/// `(tick, ue, drb)` order — the push order of a world run on one queue
/// — and the bytes the logs take. Every log ascends in tick and takes at
/// most one sample a tick, so the merge holds one cursor per log in a
/// heap keyed by `(next tick, log)`, the logs numbered in `(ue, drb)`
/// order.
fn merge_rate_err(ues: &[UeRow]) -> (Vec<f64>, usize) {
    let logs = ues.iter().flat_map(|u| &u.drbs).map(|d| &d.rate_err);
    let mut cursors: Vec<_> = logs.map(SampleLog::iter).collect();
    let mut heads = BinaryHeap::with_capacity(cursors.len());
    for (i, c) in cursors.iter_mut().enumerate() {
        if let Some((tick, pct)) = c.next() {
            heads.push(Reverse((tick, i, pct.to_bits())));
        }
    }
    let bearers = ues.iter().flat_map(|u| &u.drbs);
    let (n, bytes) = bearers.fold((0, 0), |(n, b), d| {
        (n + d.rate_err.len(), b + d.rate_err.bytes())
    });
    let mut out = Vec::with_capacity(n);
    while let Some(mut head) = heads.peek_mut() {
        let Reverse((tick, i, pct)) = *head;
        out.push(f64::from_bits(pct));
        match cursors[i].next() {
            Some((next, pct)) => {
                debug_assert!(next > tick, "two samples of one bearer at tick {tick}");
                *head = Reverse((next, i, pct.to_bits()));
            }
            None => {
                PeekMut::pop(head);
            }
        }
    }
    (out, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The transmit record of `sn` after `queuing` ms in the queue and
    /// `sched` ms at its head.
    fn txed(sn: Sn, queuing: u64, sched: u64) -> TxRecord {
        let t_head = Instant::from_millis(queuing);
        let t_first_tx = t_head + Duration::from_millis(sched);
        TxRecord {
            sn,
            size: 1000,
            t_ingress: Instant::ZERO,
            t_head,
            t_first_tx,
            t_txed: t_first_tx,
        }
    }

    #[test]
    fn the_breakdown_window_takes_by_sn() {
        let mut row = DrbRow::default();
        for sn in [3, 4, 5, 7] {
            row.on_txed(&txed(sn, sn, 1), true, true);
        }
        assert_eq!(row.in_air.capacity(), IN_AIR_RESERVE);
        assert_eq!(row.take_in_air(3), Some((3.0, 1.0)), "in order");
        // A handover onto a cell with a shorter UE-internal delay
        // delivers later SNs first.
        assert_eq!(row.take_in_air(7), Some((7.0, 1.0)), "out of order");
        assert_eq!(row.take_in_air(5), Some((5.0, 1.0)));
        // A forwarded SDU the target cell retransmits: its second
        // transmit record changes neither its timing nor the log.
        row.on_txed(&txed(4, 40, 9), true, true);
        assert_eq!(row.gt.len(), 4, "one ground-truth entry per SN");
        assert_eq!(
            row.take_in_air(4),
            Some((4.0, 1.0)),
            "the first record's timing"
        );
        assert_eq!(row.take_in_air(4), None, "taken already");
        assert_eq!(row.take_in_air(6), None, "never transmitted");
        assert_eq!(row.take_in_air(99), None, "above the window");
        // An SDU that is never delivered goes once a delivery runs
        // IN_AIR_LOST_SNS ahead of it, and not before.
        for sn in [10, 11, 10 + IN_AIR_LOST_SNS - 1, 10 + IN_AIR_LOST_SNS] {
            row.on_txed(&txed(sn, 2, 2), false, true);
        }
        assert_eq!(row.take_in_air(10 + IN_AIR_LOST_SNS - 1), Some((2.0, 2.0)));
        assert_eq!(row.in_air.front().map(|e| e.0), Some(10));
        assert_eq!(row.take_in_air(10 + IN_AIR_LOST_SNS), Some((2.0, 2.0)));
        let left: Vec<Sn> = row.in_air.iter().map(|e| e.0).collect();
        assert_eq!(left, [11], "SN 10 is dropped as lost");
        assert_eq!(row.take_in_air(11), Some((2.0, 2.0)));
        assert_eq!(row.gt.len(), 4, "`gt` off: no ground-truth entry");
    }

    #[test]
    fn rate_errors_merge_from_the_bearers_in_tick_then_bearer_order() {
        let mut cfg = ScenarioConfig::new(7, Duration::from_secs(4));
        for _ in 0..2 {
            let ue = crate::UeSpec::simple(l4span_ran::ChannelProfile::Static, 20.0);
            cfg.ues.push(ue);
        }
        let mut rec = Recorder::new(&cfg);
        // Bearer (ue, drb) skips the ticks where `tick + ue + drb` is a
        // multiple of 3, and (1, 1) alone samples once more 293 ticks
        // on (a two-byte tick delta). A sample's value names its key.
        let code =
            |tick: u64, ue: usize, drb: u8| (tick * 100 + ue as u64 * 10 + u64::from(drb)) as f64;
        let mut keys = Vec::new();
        for tick in (1..=7).chain([300]) {
            for ue in [1, 0] {
                for drb in 0..2u8 {
                    let gap = (tick + ue as u64 + u64::from(drb)).is_multiple_of(3);
                    if (tick == 300 && (ue, drb) != (1, 1)) || (tick < 300 && gap) {
                        continue;
                    }
                    let row = drb_row(&mut rec.ues[ue].drbs, drb);
                    row.rate_err.push(tick, code(tick, ue, drb));
                    keys.push((tick, ue, drb));
                }
            }
        }
        keys.sort_unstable();
        let expect: Vec<f64> = keys.iter().map(|&(t, u, d)| code(t, u, d)).collect();
        let mut r = Report::default();
        rec.finish(&mut r, std::iter::empty());
        assert_eq!(r.rate_err_pct, expect);
        assert_eq!(r.rate_err_pct[..3], [100.0, 101.0, 110.0]);
        assert_eq!(r.rate_err_pct.last(), Some(&30011.0));
        // Each sample is a one-byte tick delta and the float, the
        // 293-tick jump two bytes.
        let store = r.sample_store()[2];
        assert_eq!(store.samples, keys.len());
        assert_eq!(store.bytes, keys.len() * RATE_ERR_BYTES + 1);
    }

    /// A delay log of the `(t, v)` pairs.
    fn logged(samples: &[(u64, u64)]) -> SampleLog<u64> {
        let mut log = SampleLog::default();
        for &(t, v) in samples {
            log.push(t, v);
        }
        log
    }

    /// The bits of a time in ns as seconds and a delay in ns as
    /// milliseconds, by the world's own divisions.
    fn want_bits(t: u64, v: u64) -> (u64, u64) {
        let s = Instant::from_nanos(t).as_secs_f64();
        (
            s.to_bits(),
            Duration::from_nanos(v).as_millis_f64().to_bits(),
        )
    }

    /// Whether the log decodes, bit for bit, to the pushed integers'
    /// `as_secs_f64` and `as_millis_f64`.
    fn decodes_exactly(samples: &[(u64, u64)]) -> bool {
        let log = logged(samples);
        let got = decode(&log).map(|(s, ms)| (s.to_bits(), ms.to_bits()));
        let want = samples.iter().map(|&(t, v)| want_bits(t, v));
        decode(&log).len() == samples.len() && got.eq(want)
    }

    #[test]
    fn a_delay_log_decodes_to_the_pushed_integers() {
        let secs = |s: u64| s * 1_000_000_000;
        let samples = [
            (0, 0),                  // first sample at t = 0
            (0, 7),                  // repeated time: delta 0
            (1, 127),                // one-byte varints
            (1_000_000, 128),        // two-byte value
            (secs(19), secs(19)),    // an OWD above 2^32 ns
            (secs(601), u64::MAX),   // past a 600 s soak; ten bytes
            (secs(601) + 1, 25_000), // one-ns step
        ];
        assert!(decodes_exactly(&samples));
        assert_eq!(
            logged(&samples).bytes(),
            (1 + 1) + (1 + 1) + (1 + 1) + (3 + 2) + (5 + 5) + (6 + 10) + (1 + 3)
        );
        assert!(decodes_exactly(&[]));
        let log = SampleLog::<u64>::default();
        assert_eq!(log.bytes.capacity(), 0, "an idle flow allocates nothing");
        let mut log = log;
        log.push(5, 5);
        assert_eq!(log.bytes.capacity(), SAMPLE_LOG_FIRST_BLOCK);
    }

    use proptest::prelude::*;

    proptest! {
        /// Non-decreasing times (from 0 or not, with repeats, steps up
        /// to seconds and jumps past ten minutes) and arbitrary values
        /// decode bit for bit; an `f64` log keeps every bit pattern.
        #[test]
        fn sample_logs_round_trip(
            from_zero in any::<bool>(),
            start in any::<u32>(),
            steps in proptest::collection::vec((0u8..4, any::<u64>(), any::<u64>()), 0..200),
        ) {
            let mut t = if from_zero { 0 } else { u64::from(start) };
            let mut samples = Vec::new();
            let mut floats = SampleLog::<f64>::default();
            for &(kind, step, v) in &steps {
                t += match kind {
                    0 => 0,
                    1 => step % 1_000_000,
                    2 => step % 10_000_000_000,
                    _ => 600_000_000_000 + step % 1_000_000_000_000,
                };
                samples.push((t, v));
                floats.push(t, f64::from_bits(v));
            }
            prop_assert!(decodes_exactly(&samples));
            let back: Vec<(u64, u64)> = floats.iter().map(|(t, f)| (t, f.to_bits())).collect();
            prop_assert_eq!(back, samples);
            prop_assert_eq!(floats.len(), steps.len());
        }
    }

    #[test]
    fn the_per_cell_view_is_cut_from_the_runs() {
        let mut cfg = ScenarioConfig::new(7, Duration::from_millis(80));
        cfg.ues.push(crate::UeSpec::simple(
            l4span_ran::ChannelProfile::Static,
            20.0,
        ));
        let mut rec = Recorder::new(&cfg);
        for (cell, len) in [(0, 5), (0, 6), (1, 7), (0, 8), (0, 9), (2, 10)] {
            rec.push_dl_queue(0, 1, cell, len);
        }
        let mut r = Report::default();
        rec.finish(&mut r, std::iter::empty());
        assert_eq!(r.queue_series[&(0, 1)], [5, 6, 7, 8, 9, 10]);
        assert_eq!(r.queue_cell_runs[&(0, 1)], [(0, 0), (2, 1), (3, 0), (5, 2)]);
        let per_cell = r.cell_queue_series();
        let expect = BTreeMap::from([
            ((0, 0, 1), vec![5, 6, 8, 9]),
            ((1, 0, 1), vec![7]),
            ((2, 0, 1), vec![10]),
        ]);
        assert_eq!(per_cell, expect);
        assert!(r.fingerprint().contains("cq(1, 0, 1)=[7];"));
        let queue = r.sample_store()[1];
        assert_eq!((queue.samples, queue.bytes), (6, 6 * 4 + 4 * 8));
    }

    #[test]
    fn breakdown_mean() {
        let mut avg = BreakdownAvg::default();
        avg.push(Breakdown {
            propagation: 10.0,
            queuing: 20.0,
            scheduling: 2.0,
            other: 4.0,
        });
        avg.push(Breakdown {
            propagation: 10.0,
            queuing: 40.0,
            scheduling: 4.0,
            other: 8.0,
        });
        let m = avg.mean();
        assert_eq!(m.propagation, 10.0);
        assert_eq!(m.queuing, 30.0);
        assert_eq!(m.scheduling, 3.0);
        assert_eq!(m.other, 6.0);
        assert_eq!(avg.count(), 2);
    }

    /// The report a recorder gives for the samples `record` pushes, in
    /// a one-cell world whose flow `i` runs to UE `i` in direction
    /// `dirs[i]`.
    fn recorded(dirs: &[FlowDir], record: impl FnOnce(&mut Recorder)) -> Report {
        let mut cfg = ScenarioConfig::new(7, Duration::from_secs(4));
        for (ue, &dir) in dirs.iter().enumerate() {
            let profile = l4span_ran::ChannelProfile::Static;
            cfg.ues.push(crate::UeSpec::simple(profile, 20.0));
            let tcp = crate::TransportSpec::tcp_named("prague").expect("a known CC");
            let wan = l4span_cc::WanLink::east();
            let app = crate::AppProfile::bulk();
            cfg.flows
                .push(FlowSpec::new(ue, app, tcp, wan, Instant::ZERO).direction(dir));
        }
        let mut rec = Recorder::new(&cfg);
        record(&mut rec);
        let mut r = Report::default();
        rec.finish(&mut r, std::iter::empty());
        r
    }

    /// `(ms, at)` in milliseconds as a delay and an instant.
    fn ms_at(ms: u64, at: u64) -> (Duration, Instant) {
        (Duration::from_millis(ms), Instant::from_millis(at))
    }

    #[test]
    fn rtt_series_bins_and_averages() {
        let r = recorded(&[FlowDir::Downlink], |rec| {
            for (srtt, at) in [ms_at(10, 100), ms_at(20, 400), ms_at(40, 1200)] {
                rec.push_rtt(0, srtt, at);
            }
        });
        assert_eq!(r.rtt_stats(0).median, 20.0);
        let s = r.rtt_series(0, 1.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0], (0.0, 15.0)); // two samples in the first second
        assert_eq!(s[1], (1.0, 40.0));
    }

    #[test]
    fn handover_record_interruption_and_windowed_owd() {
        let h = HandoverRecord {
            ue: 0,
            at: Instant::from_millis(1000),
            from_cell: 0,
            to_cell: 1,
            last_delivery_before: Some(Instant::from_millis(990)),
            first_delivery_after: Some(Instant::from_millis(1045)),
        };
        assert_eq!(h.interruption(), Some(Duration::from_millis(55)));
        let unresolved = HandoverRecord {
            first_delivery_after: None,
            ..h
        };
        assert_eq!(unresolved.interruption(), None);

        let r = recorded(&[FlowDir::Downlink], |rec| {
            let delivery = |rec: &mut Recorder, (owd, at)| rec.push_delivery(0, 0, owd, 1000, at);
            delivery(rec, ms_at(10, 500));
            rec.push_handover(0, Instant::from_millis(1000), 0, 1);
            delivery(rec, ms_at(80, 1020));
            delivery(rec, ms_at(20, 2000));
        });
        // The delivery gap runs from 0.5 s to 1.02 s.
        assert_eq!(r.mean_interruption_ms(), Some(520.0));
        // Only the 80 ms sample falls in the 100 ms post-HO window.
        let post = r.post_handover_owd(&[0], Duration::from_millis(100));
        assert_eq!(post.median, 80.0);
    }

    #[test]
    fn qoe_helpers_handle_populated_and_absent_flows() {
        let r = Report {
            frame_owd_ms: vec![vec![20.0, 120.0, 40.0]],
            frames_generated: vec![5],
            frames_delivered: vec![3],
            frames_missed: vec![3], // 1 late + 2 undelivered
            stall_ms: vec![53.3],
            request_ms: vec![vec![80.0, 120.0]],
            ..Report::default()
        };
        assert_eq!(r.frame_owd_stats(0).median, 40.0);
        assert_eq!(r.frame_deadline_miss_rate(0), Some(0.6));
        assert_eq!(r.stall_time_ms(0), 53.3);
        assert_eq!(r.request_stats(0).median, 100.0);
        // Out-of-range / absent flows degrade gracefully.
        assert_eq!(r.frame_deadline_miss_rate(7), None);
        assert_eq!(r.stall_time_ms(7), 0.0);
        assert_eq!(r.frame_owd_stats(7).n, 0);
        // The QoE fields are part of the determinism fingerprint.
        let fp = r.fingerprint();
        assert!(fp.contains("fowd=") && fp.contains("stall="), "{fp}");
    }

    #[test]
    fn ul_owd_helpers_and_digest_are_stable() {
        let ul_call = |last_ms| {
            recorded(&[FlowDir::Uplink], |rec| {
                for (owd, at) in [ms_at(5, 100), ms_at(15, 200), ms_at(last_ms, 300)] {
                    rec.push_delivery(0, 0, owd, 100, at);
                }
            })
        };
        let r = ul_call(10);
        assert_eq!(r.ul_owd_stats_pooled(&[0]).median, 10.0);
        assert_eq!(r.ul_owd_stats_pooled(&[0]).n, 3);
        assert_eq!(
            r.ul_owd_stats_pooled(&[5]).n,
            0,
            "absent flows degrade gracefully"
        );
        let fp = r.fingerprint();
        assert!(fp.contains("ulowd="), "{fp}");
        // The digest is a pure function of the fingerprint.
        assert_eq!(r.fingerprint_digest(), r.fingerprint_digest());
        assert_eq!(r.fingerprint_digest().len(), 16);
        assert_ne!(r.fingerprint_digest(), ul_call(11).fingerprint_digest());
    }

    #[test]
    fn the_delay_accessors_decode_the_pushed_integers() {
        // `(time, delay)` in ns. Flow 0 downlink, flow 1 uplink, flow 2
        // never delivers.
        let (dl, ul, rtt) = (
            [
                (7, 2_999_999_999),
                (100_000_003, 5_000_001),
                (1_234_567_891, 1),
            ],
            [(333_333_333, 2), (1_000_000_000, 44_444_444)],
            [(999, 37), (1_000_000, 37), (20_000_001, 3_500_000_000)],
        );
        let r = recorded(
            &[FlowDir::Downlink, FlowDir::Uplink, FlowDir::Downlink],
            |rec| {
                for (flow, samples) in [(0, &dl[..]), (1, &ul[..])] {
                    for &(t, v) in samples {
                        let (owd, at) = (Duration::from_nanos(v), Instant::from_nanos(t));
                        rec.push_delivery(flow, 0, owd, 100, at);
                    }
                }
                for flow in [0, 1] {
                    for &(t, v) in &rtt {
                        rec.push_rtt(flow, Duration::from_nanos(v), Instant::from_nanos(t));
                    }
                }
            },
        );
        let bits = |s: Vec<f64>, ms: Vec<f64>| -> Vec<(u64, u64)> {
            s.iter()
                .zip(&ms)
                .map(|(s, ms)| (s.to_bits(), ms.to_bits()))
                .collect()
        };
        let want = |samples: &[(u64, u64)]| -> Vec<(u64, u64)> {
            samples.iter().map(|&(t, v)| want_bits(t, v)).collect()
        };
        let owd = |f: usize| bits(r.owd_at_s(f).collect(), r.owd_ms[f].clone());
        let ul_owd = |f: usize| bits(r.ul_owd_at_s(f).collect(), r.ul_owd_ms[f].clone());
        let rtts = |f: usize| bits(r.rtt_at_s(f).collect(), r.rtt_ms(f).collect());
        assert_eq!(owd(0), want(&dl));
        assert_eq!(ul_owd(1), want(&ul));
        assert_eq!((rtts(0), rtts(1)), (want(&rtt), want(&rtt)));
        // A downlink flow's uplink series and an uplink flow's downlink
        // one are empty, and so is every series of an idle flow.
        assert_eq!((r.ul_owd_at_s(0).len(), r.ul_owd_ms[0].len()), (0, 0));
        assert_eq!((r.owd_at_s(1).len(), r.owd_ms[1].len()), (0, 0));
        assert!(owd(2).is_empty() && ul_owd(2).is_empty() && rtts(2).is_empty());
        // The fingerprint writes them in the `{:?}` form of the vectors.
        let flows = |series: &dyn Fn(usize) -> Vec<f64>| (0..3).map(series).collect::<Vec<_>>();
        let fp = r.fingerprint();
        for (name, v) in [
            ("owd_at", flows(&|f| r.owd_at_s(f).collect())),
            ("rtt", flows(&|f| r.rtt_ms(f).collect())),
            ("rtt_at", flows(&|f| r.rtt_at_s(f).collect())),
            ("ulowd_at", flows(&|f| r.ul_owd_at_s(f).collect())),
        ] {
            let part = format!(";{name}={v:?};");
            assert!(fp.contains(&part), "{part} not in {fp}");
        }
        // The store is the logs: a varint time step and a varint value
        // per sample.
        let varint = |x: u64| (64 - x.leading_zeros()).max(1).div_ceil(7) as usize;
        let log_bytes = |samples: &[(u64, u64)]| {
            let steps = samples.iter().scan(0, |last, &(t, v)| {
                let step = t - *last;
                *last = t;
                Some(varint(step) + varint(v))
            });
            steps.sum::<usize>()
        };
        let store = r.sample_store()[0];
        assert_eq!(store.samples, dl.len() + ul.len() + 2 * rtt.len());
        assert_eq!(
            store.bytes,
            log_bytes(&dl) + log_bytes(&ul) + 2 * log_bytes(&rtt)
        );
    }

    /// `post_handover_owd`'s samples as a scan of every sample for every
    /// handover, each taken at most once.
    fn post_handover_by_scan(r: &Report, flows: &[usize], window: Duration) -> BoxStats {
        let w = window.as_secs_f64();
        let mut all = Vec::new();
        for &f in flows {
            let ue = r.flow_ue.get(f).copied();
            let times: Vec<f64> = r.owd_at_s(f).collect();
            let mut taken = vec![false; times.len()];
            for h in r.handovers.iter().filter(|h| ue.is_none_or(|u| u == h.ue)) {
                let t0 = h.at.as_secs_f64();
                for (i, &t) in times.iter().enumerate() {
                    if !taken[i] && t >= t0 && t < t0 + w {
                        taken[i] = true;
                        all.push(r.owd_ms[f][i]);
                    }
                }
            }
        }
        BoxStats::from_samples(&all)
    }

    #[test]
    fn the_post_handover_windows_take_each_sample_once() {
        // UE 0 hands over at 1.0 s and 1.125 s (overlapping 250 ms
        // windows), UE 1 at 1.5 s; samples on both edges of a window.
        let ho = |rec: &mut Recorder, ue, at| rec.push_handover(ue, Instant::from_millis(at), 0, 1);
        let mut r = recorded(&[FlowDir::Downlink, FlowDir::Downlink], |rec| {
            ho(rec, 0, 1000);
            ho(rec, 0, 1125);
            ho(rec, 1, 1500);
            let times = [990, 1000, 1125, 1250, 1375, 1500, 1749, 1750];
            for (i, at) in times.into_iter().enumerate() {
                for flow in [0, 1] {
                    let (owd, at) = ms_at(10 * i as u64 + 10, at);
                    rec.push_delivery(flow, 0, owd, 100, at);
                }
            }
        });
        let window = Duration::from_millis(250);
        let all = r.post_handover_owd(&[0, 1], window);
        assert_eq!(all, post_handover_by_scan(&r, &[0, 1], window));
        assert_eq!(
            all.n,
            2 * 5,
            "[1.0 s, 1.375 s) and [1.5 s, 1.75 s), once each"
        );
        r.flow_ue = vec![0, 1];
        for (flow, n) in [(0, 3), (1, 2)] {
            let own = r.post_handover_owd(&[flow], window);
            assert_eq!(own, post_handover_by_scan(&r, &[flow], window));
            assert_eq!(own.n, n, "flow {flow}: its own UE's windows");
        }
        assert_eq!(r.post_handover_owd(&[0], window).median, 30.0);
    }

    proptest! {
        /// The cursor per flow takes the same samples as a scan of every
        /// sample for every handover, in the same order.
        #[test]
        fn post_handover_owd_matches_the_scan(
            handovers in proptest::collection::vec((0usize..2, 0u64..3_000), 0..8),
            deliveries in proptest::collection::vec((0usize..2, 0u64..3_200, 1u64..200), 0..60),
            window_ms in 0u64..500,
            own_ue in any::<bool>(),
        ) {
            let mut r = recorded(&[FlowDir::Downlink, FlowDir::Downlink], |rec| {
                let mut hos = handovers.clone();
                hos.sort_unstable_by_key(|&(ue, at)| (at, ue));
                hos.dedup();
                for (ue, at) in hos {
                    rec.push_handover(ue, Instant::from_millis(at), 0, 1);
                }
                let mut ds = deliveries.clone();
                ds.sort_unstable_by_key(|&(_, at, _)| at);
                for (flow, at, owd) in ds {
                    rec.push_delivery(flow, 0, Duration::from_millis(owd), 100, Instant::from_millis(at));
                }
            });
            if own_ue {
                r.flow_ue = vec![0, 1];
            }
            let window = Duration::from_millis(window_ms);
            let got = r.post_handover_owd(&[0, 1], window);
            let want = post_handover_by_scan(&r, &[0, 1], window);
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
    }

    #[test]
    fn the_digest_hashes_the_fingerprint() {
        let cfg = crate::scenario::congested_cell(
            2,
            "prague",
            crate::scenario::ChannelMix::Mobile,
            16_384,
            l4span_cc::WanLink::east(),
            crate::scenario::l4span_default(),
            7,
            Duration::from_millis(500),
        );
        let r = crate::World::new(cfg).run();
        assert!(
            r.rtt_ms(0).len() > 0 && r.owd_at_s(1).len() > 0,
            "a run that delivers"
        );
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for b in r.fingerprint().bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(r.fingerprint_digest(), format!("{h:016x}"));
    }

    #[test]
    fn goodput_from_bins() {
        let mut r = Report {
            bin: Duration::from_millis(100),
            duration: Duration::from_secs(1),
            thr_bins: vec![vec![125_000u64; 10]], // 10 Mbit/s
            flow_start: vec![Instant::ZERO],
            ..Report::default()
        };
        r.owd_ms = vec![vec![]];
        let g = r.goodput_total_mbps(0);
        assert!((g - 10.0).abs() < 1e-9, "{g}");
        let series = r.throughput_series_mbps(0, 5);
        assert_eq!(series.len(), 2);
        assert!((series[0].1 - 10.0).abs() < 1e-9);
    }
}
