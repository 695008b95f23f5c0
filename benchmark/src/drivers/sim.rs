//! `sim`: the event queue under the hold model.

use std::hint::black_box;

use l4span_sim::{Duration, EventQueue, Instant, SimRng};

use super::{measure_op, Budget};

/// Stand-in for the world's event enum: a few words of payload.
type Payload = [u64; 4];

/// Hold model at a steady depth: pop the earliest event, schedule one
/// at its time plus a seeded exponential increment (mean = depth µs, so
/// the popped event's successor lands about one queue-length ahead).
/// Increments come from a precomputed table to keep the RNG out of the
/// measurement.
fn hold_ns(budget: Budget, seed: u64, depth: usize) -> f64 {
    let mut rng = SimRng::new(seed).derive(depth as u64);
    let mean_ns = depth as f64 * 1_000.0;
    let incr: Vec<Duration> = (0..4096)
        .map(|_| Duration::from_nanos(rng.exponential(mean_ns) as u64 + 1))
        .collect();
    let mut q: EventQueue<Payload> = EventQueue::with_capacity(depth + 1);
    for i in 0..depth {
        q.schedule(Instant::ZERO + incr[i % incr.len()], [i as u64; 4]);
    }
    let mut k = 0usize;
    measure_op(budget, || {
        let (at, ev) = q.pop().expect("hold model keeps the queue full");
        q.schedule(at + incr[k & 4095], black_box(ev));
        k += 1;
    })
}

pub fn run(budget: Budget, seed: u64) -> Vec<(&'static str, f64)> {
    vec![
        ("sim.queue.hold_ns_d64", hold_ns(budget, seed, 64)),
        ("sim.queue.hold_ns_d4k", hold_ns(budget, seed, 4_096)),
        ("sim.queue.hold_ns_d256k", hold_ns(budget, seed, 262_144)),
    ]
}
