#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json's command). Run from the
# repository root: builds the harness and the two CLIs it drives, then
# hands every argument to `perf.exe bench` (--workload W --seed S
# --seconds T --trace 0|1). The result is the last line of stdout; build
# output goes to stderr.
set -euo pipefail
dune build --root . bench/perf/perf.exe bin/experiments.exe bin/wishsim.exe 1>&2
exec ./_build/default/bench/perf/perf.exe bench "$@"
