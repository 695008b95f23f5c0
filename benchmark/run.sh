#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it.
#
#   benchmark/run.sh                      whole suite, seed 7, 5 timed rounds
#   benchmark/run.sh --seed 8 --rounds 3  same, other seed / fewer rounds
#   benchmark/run.sh --only cell_l4s_16ue one workload
#   benchmark/run.sh --aa                 two end-to-end sets compared against the bounds
#   benchmark/run.sh --describe           print BENCHMARK.json from the catalogue
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one contract run (what BENCHMARK.json's command gets)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build output goes to stderr: the last stdout line is the result object.
cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/l4span-benchmark" --out "$here/out" "$@"
