#!/bin/sh
# A/A check: two sets of runs of the same build must agree within the bounds
# BENCHMARK.json fixes. Run from the repository root:
#
#     benchmark/aa.sh [runs-per-set]
#
# Writes benchmark/results/aa_a.json and aa_b.json and prints one row per
# workload and end-to-end metric; exits non-zero if any row reads `worse`.
# Seven runs a set by default: the quartiles of seven values leave out the
# slowest and the fastest run, so one run that met a busy host does not make
# a row `unresolved`. About 25 minutes.
set -eu
runs="${1:-7}"
bench="cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --"
mkdir -p benchmark/results
$bench run --repeat "$runs" --seed 1 --out benchmark/results/aa_a.json > /dev/null
$bench run --repeat "$runs" --seed 1 --out benchmark/results/aa_b.json > /dev/null
$bench compare benchmark/results/aa_a.json benchmark/results/aa_b.json
