//! The L4Span simulator's benchmark: five long workloads measured end
//! to end in fresh child processes, a traced pass and layer drivers for
//! the per-layer numbers, and output checks counted as operations.
//!
//! Three ways in (see `README.md`):
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one contract run;
//!   the last stdout line is the result object the driver reads.
//! * no `--workload` — the whole suite: warm-up, timed rounds visiting
//!   the workloads round-robin, traced pass, drivers; prints every
//!   metric and writes `out/results.json` and `out/trace.json`.
//!   `--aa` instead runs two end-to-end sets and compares them.
//! * `--child W …` — one sample, used by the two above.

mod child;
mod drivers;
mod json;
mod metrics;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use l4span_alloctrack::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Parsed command line. Every flag takes one value except the switches.
#[derive(Debug, Default)]
struct Args {
    child: Option<String>,
    workload: Option<String>,
    only: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    rounds: Option<usize>,
    shards: Option<usize>,
    trace: bool,
    aa: bool,
    describe: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let num = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--child" => a.child = Some(value()?),
            "--workload" => a.workload = Some(value()?),
            "--only" => a.only = Some(value()?),
            "--seed" => a.seed = Some(num(value()?)?),
            "--seconds" => a.seconds = Some(num(value()?)?),
            "--rounds" => a.rounds = Some(num(value()?)? as usize),
            "--shards" => a.shards = Some(num(value()?)? as usize),
            "--out" => a.out = Some(PathBuf::from(value()?)),
            // The contract passes `--trace 0|1`; the child takes the same.
            "--trace" => a.trace = num(value()?)? != 0,
            "--aa" => a.aa = true,
            "--describe" => a.describe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn workload(name: &str) -> Result<&'static workloads::Workload, String> {
    workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if args.describe {
        let doc = metrics::descriptor();
        let errs = metrics::check_descriptor(&doc);
        if !errs.is_empty() {
            return Err(format!(
                "catalogue breaks the BENCHMARK.json contract: {errs:?}"
            ));
        }
        print!("{}", doc.to_json_pretty());
        return Ok(true);
    }
    if cfg!(debug_assertions) {
        return Err(
            "refusing to measure a debug build; use benchmark/run.sh (cargo build --release)"
                .into(),
        );
    }
    let seed = args.seed.unwrap_or(7);
    if let Some(name) = &args.child {
        let w = workload(name)?;
        let job = child::Job {
            seed,
            sim_s: w.sim_s,
            trace: args.trace,
            shards: args.shards.unwrap_or(1),
        };
        println!("{}", child::run_sample(w, job, &|| ALLOC.count()).to_json());
        return Ok(true);
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out_dir = args.out.unwrap_or_else(|| PathBuf::from("benchmark/out"));
    let mut suite = suite::Suite::new(exe, out_dir, seed);
    if let Some(name) = &args.workload {
        let seconds = args.seconds.unwrap_or(metrics::RUN_SECONDS);
        return suite.contract_run(workload(name)?, seconds, args.trace);
    }
    let only = args.only.as_deref().map(workload).transpose()?;
    let rounds = args.rounds.unwrap_or(5).max(1);
    if args.aa {
        suite.aa(only, rounds)
    } else {
        suite.full(only, rounds)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("l4span-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
