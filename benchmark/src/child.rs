//! One sample: build a workload's world, run it, summarise the report.
//!
//! Runs in a child process (`--child`) so every sample has a fresh heap,
//! its own `VmHWM`, and its own allocation counter. The result travels
//! to the parent as one JSON line on stdout.

use std::time::Instant;

use l4span_harness::{run_sharded, Report, World};

use crate::json::Value;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::Workload;

/// Timed set-ups per child; `setup_s` is their median. Most worlds
/// build in ~0.2 ms, so a single reading would be clock-noise.
const SETUP_REPS: usize = 15;

/// What the parent asks of one child.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub seed: u64,
    /// Simulated seconds (the workload's own duration outside tests).
    pub sim_s: u64,
    /// Run with `measure_cycles` and record the benchmark's spans.
    pub trace: bool,
    /// `> 1`: run through `run_sharded` instead of `World::run`.
    pub shards: usize,
}

/// Peak resident set of this process so far, in kB (`VmHWM`); 0 where
/// `/proc` is unavailable, which the parent counts as a failed operation.
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// Run one sample of `w` and return the parent-facing record.
/// `allocs` reads the process-wide allocation counter.
pub fn run_sample(w: &Workload, job: Job, allocs: &dyn Fn() -> u64) -> Value {
    let mut t = Tracer::new();
    t.enter("child");

    if job.shards > 1 {
        let cfg = t.span("scenario", |_| w.config(job.seed, job.sim_s)).0;
        t.enter("run_sharded");
        let t0 = Instant::now();
        let report = run_sharded(cfg, job.shards);
        let run_ns = t0.elapsed().as_nanos() as u64;
        t.exit();
        let mut out = summarise(&mut t, &report, job, run_ns);
        t.exit();
        push(&mut out, "spans", spans_value(&t));
        return out;
    }

    // The measured instance, first: a fresh heap for `run()` and `VmHWM`.
    let (mut cfg, _) = t.span("scenario", |_| w.config(job.seed, job.sim_s));
    cfg.measure_cycles = job.trace;
    let (world, new_ns) = t.span("world_new", |_| World::new(cfg));
    t.enter("run");
    let a0 = allocs();
    let t0 = Instant::now();
    let report = world.run();
    let run_ns = t0.elapsed().as_nanos() as u64;
    let run_allocs = allocs() - a0;
    // `VmHWM` here, before the benchmark's own sample pool is built.
    let hwm_kb = vm_hwm_kb();
    for c in &report.cycles {
        t.add_aggregate(&format!("harness.{}", c.label), c.nanos);
    }
    t.exit();

    let mut out = summarise(&mut t, &report, job, run_ns);

    // Set-up, several times over: scenario constructor + `World::new`.
    // After the run and the `VmHWM` read, so neither sees these worlds.
    let (setups, _) = t.span("setups", |_| {
        let timed = |_| {
            let t0 = Instant::now();
            let world = World::new(w.config(job.seed, job.sim_s));
            let s = t0.elapsed().as_secs_f64();
            drop(world);
            s
        };
        (0..SETUP_REPS).map(timed).collect::<Vec<f64>>()
    });
    t.exit();
    push(
        &mut out,
        "setup_s",
        stats::median(&setups).expect("SETUP_REPS > 0").into(),
    );
    push(&mut out, "new_ms", (new_ns as f64 / 1e6).into());
    push(&mut out, "allocs", run_allocs.into());
    push(&mut out, "peak_rss_kb", hwm_kb.into());
    push(&mut out, "spans", spans_value(&t));
    out
}

fn push(obj: &mut Value, key: &str, v: Value) {
    if let Value::Obj(m) = obj {
        m.push((key.to_string(), v));
    }
}

fn spans_value(t: &Tracer) -> Value {
    Value::Arr(t.spans().iter().map(|s| s.to_value()).collect())
}

/// Everything the benchmark reads out of a `Report`.
fn summarise(t: &mut Tracer, r: &Report, job: Job, run_ns: u64) -> Value {
    t.enter("summarise");
    // Delay pool: every flow in its data direction (uplink flows leave
    // `owd_ms` empty and vice versa, so chaining both pools each once).
    let mut pool: Vec<f64> = Vec::new();
    for v in r.owd_ms.iter().chain(r.ul_owd_ms.iter()) {
        pool.extend_from_slice(v);
    }
    stats::sort(&mut pool);
    let n = pool.len();
    let pct = |p: f64| {
        if n == 0 {
            0.0
        } else {
            stats::percentile_sorted(&pool, p)
        }
    };
    let per_kpkt = |x: u64| {
        if n == 0 {
            0.0
        } else {
            x as f64 * 1000.0 / n as f64
        }
    };
    let goodput: f64 = (0..r.thr_bins.len()).map(|f| r.goodput_total_mbps(f)).sum();

    // Packet-weighted mean of the per-flow delay breakdowns.
    let (mut q_sum, mut s_sum, mut b_n) = (0.0, 0.0, 0u64);
    for b in &r.breakdown {
        let c = b.count();
        q_sum += b.mean().queuing * c as f64;
        s_sum += b.mean().scheduling * c as f64;
        b_n += c;
    }
    let b_div = b_n.max(1) as f64;

    let mut depths: Vec<f64> = r
        .queue_series
        .values()
        .flatten()
        .map(|&d| d as f64)
        .collect();
    stats::sort(&mut depths);
    let depth = |p: f64| {
        if depths.is_empty() {
            0.0
        } else {
            stats::percentile_sorted(&depths, p)
        }
    };

    let ratio_pct = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 * 100.0 / den as f64
        }
    };
    let fec_offered: u64 = r.fec.iter().map(|f| f.offered).sum();
    let fec_closed = r
        .fec
        .iter()
        .all(|f| f.delivered + f.repaired + f.abandoned == f.offered);

    let tail = stats::highest_supported_percentile(n);
    let (digest, fp_ns) = t.span("fingerprint", |_| r.fingerprint_digest());
    t.exit();

    let layer = Value::obj([
        ("owd_p50_ms", pct(50.0).into()),
        ("owd_p99_ms", pct(99.0).into()),
        ("harness.delay.queuing_ms", (q_sum / b_div).into()),
        ("harness.delay.scheduling_ms", (s_sum / b_div).into()),
        (
            "harness.app.frame_miss_pct",
            ratio_pct(
                r.frames_missed.iter().sum(),
                r.frames_generated.iter().sum(),
            )
            .into(),
        ),
        (
            "harness.bond.join_flushed",
            r.bonds.iter().map(|b| b.join_flushed).sum::<u64>().into(),
        ),
        (
            "cc.fec.repaired_pct",
            ratio_pct(r.fec.iter().map(|f| f.repaired).sum(), fec_offered).into(),
        ),
        (
            "cc.fec.abandoned_pct",
            ratio_pct(r.fec.iter().map(|f| f.abandoned).sum(), fec_offered).into(),
        ),
        // `total_marks` already contains the UE-side uplink marks.
        ("core.marker.marks_per_kpkt", per_kpkt(r.total_marks).into()),
        ("core.marker.memory_bytes", (r.marker_memory as u64).into()),
        ("ran.rlc.drops", r.rlc_drops.into()),
        ("ran.rlc.queue_sdus_p50", depth(50.0).into()),
        ("ran.rlc.queue_sdus_p99", depth(99.0).into()),
        ("ran.harq.retx_per_kpkt", per_kpkt(r.harq_retx).into()),
        ("ran.phy.tbs_lost", r.tbs_lost.into()),
    ]);
    let cycles = Value::Arr(
        r.cycles
            .iter()
            .map(|c| {
                Value::obj([
                    ("label", Value::from(c.label)),
                    ("nanos", c.nanos.into()),
                    ("calls", c.calls.into()),
                ])
            })
            .collect(),
    );
    let shards = Value::Arr(
        r.shards
            .iter()
            .map(|s| {
                Value::obj([
                    ("events", Value::from(s.events)),
                    ("busy_ns", s.busy_ns.into()),
                    ("drain_ns", s.drain_ns.into()),
                    ("mailed", s.mailed.into()),
                ])
            })
            .collect(),
    );
    Value::obj([
        ("seed", Value::from(job.seed)),
        ("sim_s", job.sim_s.into()),
        ("run_s", (run_ns as f64 / 1e9).into()),
        ("events", r.events.into()),
        ("packets", (n as u64).into()),
        ("owd_p90_ms", pct(90.0).into()),
        ("owd_tail_pct", tail.unwrap_or(0.0).into()),
        ("owd_tail_ms", tail.map_or(0.0, pct).into()),
        ("goodput_mbps", goodput.into()),
        ("digest", digest.into()),
        ("fec_closed", fec_closed.into()),
        ("fingerprint_ms", (fp_ns as f64 / 1e6).into()),
        ("layer", layer),
        ("cycles", cycles),
        ("shards", shards),
    ])
}
