#!/usr/bin/env bash
# Build the benchmark from source, then run one workload.
#
#   bash perfbench/run.sh --workload pipeline|serve-write|serve-mixed \
#     --seed N --seconds S --trace 0|1
#
# Run from the repository root.  Build output goes to .bench_build/,
# run files to .bench_run/; the last line of standard output is the
# run's JSON result.
set -euo pipefail
# no shared build cache: the benchmark writes only inside the checkout
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build ./perfbench/bin/main.exe 1>&2
exec .bench_build/default/perfbench/bin/main.exe "$@"
