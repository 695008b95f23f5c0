//! Per-subsystem cycle breakdown of the benchmark's five workloads. Each
//! workload runs once with the harness's `CycleScope` instrumentation
//! enabled; the table says where the wall-clock went — gNB slot
//! machinery, the L4Span marker, UE stacks, the UL grant/BSR/status
//! path, the wired core, transport endpoints, metrics/QoE bookkeeping,
//! and the event queue itself — plus the untracked remainder (dispatch
//! glue, scheduling, map lookups).
//!
//! `cargo run --release -p l4span-bench --bin fig_breakdown -- --seed 7 [--secs N]`
//!
//! The workloads are `benchmark/src/workloads.rs`'s: the same names, the
//! same scenario constructors with the same arguments, and — unless
//! `--secs` is given — the same simulated durations, so at `--seed 7`
//! each section reads beside that workload in `benchmark/out/results.json`.
//! Enabling the instrumentation costs two monotonic-clock reads per
//! span, so the wall per simulated second printed here sits above the
//! benchmark's (uninstrumented) `wall_ms_per_sim_s`; use this binary to
//! decide *what* to optimise and the benchmark to verify *that* it
//! worked. The headline beside it, events per delivered packet, is exact
//! and the same in both. The simulation itself never observes the
//! instrumentation: fingerprints and event counts are identical with it
//! on or off (asserted by a harness test).

use std::time::Instant as WallInstant;

use l4span_bench::Args;
use l4span_cc::WanLink;
use l4span_harness::scenario::{
    bonded_xr_8ue, congested_cell, l4span_default, metro_1000ue_50cell, ChannelMix,
};
use l4span_harness::{MarkerKind, World};
use l4span_sim::Duration;

fn main() {
    let args = Args::parse();
    let seed = args.seed;
    let dur = |benchmark_secs| Duration::from_secs(args.secs_or(benchmark_secs));
    let cell = |n, cc, marker, secs| {
        congested_cell(
            n,
            cc,
            ChannelMix::Mobile,
            16_384,
            WanLink::east(),
            marker,
            seed,
            dur(secs),
        )
    };
    let workloads = [
        ("cell_l4s_16ue", cell(16, "prague", l4span_default(), 80)),
        ("cell_bare_16ue", cell(16, "prague", MarkerKind::None, 80)),
        ("bbr2_mobile_8ue", cell(8, "bbr2", l4span_default(), 40)),
        ("xr_bonded_ul_8dev", bonded_xr_8ue(seed, dur(120))),
        (
            "metro_1000ue_50cell",
            metro_1000ue_50cell("prague", seed, dur(2)),
        ),
    ];
    println!(
        "fig_breakdown: per-subsystem cycle accounting of the benchmark workloads, seed {seed}"
    );
    println!("(instrumented run: ms per simulated second is higher than the benchmark's)");
    for (name, mut cfg) in workloads {
        cfg.measure_cycles = true;
        let sim_secs = cfg.duration.as_secs_f64();
        let t0 = WallInstant::now();
        let report = World::new(cfg).run();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        // Summed over every replica, which a measured run drives on this
        // one thread.
        let mut stats = report.cycles.clone();
        let tracked: u64 = stats.iter().map(|c| c.nanos).sum();
        println!(
            "\n== {name}: {:.1} ms per simulated second, {:.2} events per delivered packet \
             ({} events, {sim_secs} simulated s, {:.2} wall s) ==",
            wall_ns as f64 / 1e6 / sim_secs,
            report.events_per_packet(),
            report.events,
            wall_ns as f64 / 1e9,
        );
        println!(
            "{:<12} {:>10} {:>7} {:>12} {:>10}",
            "subsystem", "ms", "%wall", "calls", "ns/call"
        );
        stats.sort_by_key(|c| std::cmp::Reverse(c.nanos));
        for c in &stats {
            println!(
                "{:<12} {:>10.1} {:>6.1}% {:>12} {:>10.0}",
                c.label,
                c.nanos as f64 / 1e6,
                c.nanos as f64 * 100.0 / wall_ns as f64,
                c.calls,
                c.mean_ns()
            );
        }
        let untracked = wall_ns.saturating_sub(tracked);
        println!(
            "{:<12} {:>10.1} {:>6.1}%",
            "(untracked)",
            untracked as f64 / 1e6,
            untracked as f64 * 100.0 / wall_ns as f64
        );
        // Where the pops went, per delivered packet — exact, like the
        // headline — with the radio model's work and the most events
        // any one queue held beside them.
        let pkts = report.delivered_packets().max(1) as f64;
        println!("{:<14} {:>12} {:>8}", "event class", "pops", "per pkt");
        for &(class, n) in &report.event_counts {
            println!("{class:<14} {n:>12} {:>8.2}", n as f64 / pkts);
        }
        println!(
            "{:<14} {:>12} {:>8.2}",
            "(fading evals)",
            report.fading_evals,
            report.fading_evals as f64 / pkts
        );
        println!("{:<14} {:>12}", "(queue peak)", report.queue_depth_peak);
        // What the run's metric samples take as the recorder stores
        // them, per series family.
        println!("{:<14} {:>12} {:>10}", "sample store", "samples", "kB");
        let store = report.sample_store();
        for s in &store {
            println!(
                "{:<14} {:>12} {:>10.1}",
                s.family,
                s.samples,
                s.bytes as f64 / 1e3
            );
        }
        let (n, bytes) = store
            .iter()
            .fold((0, 0), |(n, b), s| (n + s.samples, b + s.bytes));
        println!("{:<14} {n:>12} {:>10.1}", "(total)", bytes as f64 / 1e3);
        // Worlds run on replicas (the metro world): where each one's
        // epoch time went. The idle column is the barrier wait a replica
        // would see under fully parallel epochs — 1 − busy/longest
        // busy — i.e. the load-balance figure of the cell assignment.
        if report.shards.len() > 1 {
            let busy_max = report.shards.iter().map(|s| s.busy_ns).max().unwrap_or(1);
            println!(
                "{:<6} {:>6} {:>12} {:>10} {:>10} {:>8} {:>7}",
                "shard", "cells", "events", "busy ms", "drain ms", "mailed", "idle"
            );
            for s in &report.shards {
                println!(
                    "{:<6} {:>6} {:>12} {:>10.1} {:>10.2} {:>8} {:>6.1}%",
                    s.shard,
                    s.cells,
                    s.events,
                    s.busy_ns as f64 / 1e6,
                    s.drain_ns as f64 / 1e6,
                    s.mailed,
                    (1.0 - s.busy_ns as f64 / busy_max as f64) * 100.0,
                );
            }
        }
    }
}
