//! Parallel scenario execution.
//!
//! Every scenario is an independent, self-seeded simulation, so a batch
//! of them (a figure's parameter grid, the smoke suite, the equivalence
//! corpus) is embarrassingly parallel. [`run_batch`] fans a batch out
//! over scoped worker threads and returns reports **in input order**.
//!
//! ## Determinism contract
//!
//! * Each scenario derives all randomness from its own
//!   [`ScenarioConfig::seed`]; the runner never injects any.
//! * Workers pull jobs from a shared counter, so *which thread* runs a
//!   scenario depends on scheduling — but a scenario's result does not:
//!   `Report::fingerprint()` is byte-identical whether a batch runs on
//!   one thread or many (asserted on every row of the equivalence
//!   corpus, `tests/golden_fingerprints.rs`).
//! * Results are collected by job index, so the returned `Vec<Report>`
//!   lines up with the input order regardless of completion order.
//!
//! The worker count defaults to the machine's available parallelism and
//! can be pinned with the `L4SPAN_THREADS` environment variable (useful
//! for benchmarking and for CI determinism checks).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::metrics::Report;
use crate::scenario::ScenarioConfig;
use crate::world::World;

/// Worker threads to use by default: `L4SPAN_THREADS` if set and
/// positive, otherwise the machine's available parallelism. Also the
/// replica count [`World::run`] asks for.
pub fn default_threads() -> usize {
    std::env::var("L4SPAN_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Run a batch of scenarios across [`default_threads`] workers,
/// returning reports in input order.
pub fn run_batch(cfgs: Vec<ScenarioConfig>) -> Vec<Report> {
    run_batch_on(cfgs, default_threads())
}

/// Run a batch of scenarios across exactly `threads` workers, returning
/// reports in input order. `threads` is clamped to `[1, cfgs.len()]`.
/// The batch owns the cores, so each world runs as one replica
/// ([`Report::shards`] stays empty).
pub fn run_batch_on(cfgs: Vec<ScenarioConfig>, threads: usize) -> Vec<Report> {
    let n = cfgs.len();
    if n == 0 {
        return Vec::new();
    }
    let run = |cfg| World::new(cfg).run_on(1);
    let threads = threads.clamp(1, n);
    if threads == 1 {
        // Sequential fast path: no locking, same results by contract.
        return cfgs.into_iter().map(run).collect();
    }
    let jobs: Vec<Mutex<Option<ScenarioConfig>>> =
        cfgs.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let results: Vec<Mutex<Option<Report>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let cfg = jobs[i]
                    .lock()
                    .expect("job mutex poisoned")
                    .take()
                    .expect("each job is claimed exactly once");
                let report = run(cfg);
                *results[i].lock().expect("result mutex poisoned") = Some(report);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result mutex poisoned")
                .expect("every job completed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{congested_cell, l4span_default, metro_city, ChannelMix};
    use l4span_cc::WanLink;
    use l4span_sim::Duration;

    fn cfg(seed: u64) -> ScenarioConfig {
        congested_cell(
            2,
            "cubic",
            ChannelMix::Static,
            4096,
            WanLink::east(),
            l4span_default(),
            seed,
            Duration::from_millis(300),
        )
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(run_batch(Vec::new()).is_empty());
    }

    #[test]
    fn results_are_in_input_order_and_thread_count_invariant() {
        let seeds = [3u64, 5, 7, 11, 13];
        let seq = run_batch_on(seeds.iter().map(|&s| cfg(s)).collect(), 1);
        let par = run_batch_on(seeds.iter().map(|&s| cfg(s)).collect(), 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(
                a.fingerprint(),
                b.fingerprint(),
                "parallel runner must not perturb results"
            );
        }
        // Different seeds must actually differ (order would show a swap).
        assert_ne!(par[0].fingerprint(), par[1].fingerprint());
    }

    #[test]
    fn batch_worlds_run_as_one_replica_with_replicated_bytes() {
        let metro = |seed| {
            let dur = Duration::from_millis(600);
            metro_city(3, 2, "cubic", l4span_default(), seed, dur)
        };
        let batch = run_batch_on(vec![metro(3), metro(5)], 2);
        for (seed, r) in [3, 5].into_iter().zip(&batch) {
            let replicas = World::new(metro(seed)).run_on(2);
            assert_eq!(replicas.shard_reject, None, "an eligible world");
            assert_eq!(replicas.shards.len(), 2);
            assert!(r.shards.is_empty(), "a batch world is one replica");
            assert_eq!(r.fingerprint_digest(), replicas.fingerprint_digest());
        }
    }

    #[test]
    fn more_threads_than_jobs_is_clamped() {
        let r = run_batch_on(vec![cfg(1)], 64);
        assert_eq!(r.len(), 1);
    }
}
