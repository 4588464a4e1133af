#!/usr/bin/env bash
# Build the benchmark from source, then run one workload:
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
# Run from the repository root. The build goes to dune's _build, and
# dune's shared cache is off, so nothing is written outside the
# checkout; build output goes to stderr, so the benchmark's result stays
# the last line of stdout.
set -euo pipefail
export DUNE_CACHE=disabled
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . ./perfbench/perfbench.exe 1>&2
exe=./_build/default/perfbench/perfbench.exe
# Run on one CPU, the first this process may use. On a two-vCPU virtual
# machine, wakeups between threads on different vCPUs made serve_hot's
# throughput swing threefold from run to run (2.4k-12k replies/s); on
# one CPU it held at 15-17k. The single-threaded workloads are unmoved.
cpu=$(taskset -pc $$ 2>/dev/null | sed 's/.*: *//; s/[-,].*//' || true)
if [ -n "$cpu" ]; then
  exec taskset -c "$cpu" "$exe" "$@"
fi
exec "$exe" "$@"
