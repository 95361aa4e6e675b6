#!/usr/bin/env bash
# Builds the benchmark from source in this checkout, then runs it with
# the given arguments, e.g.
#   bash benchmark/run.sh --workload chain-rtt --seed 42 --seconds 10 --trace 0
#   bash benchmark/run.sh run --seed 42 --json out.json
# The build stays inside the checkout (_build/, no shared dune cache);
# the last line of standard output is the benchmark's result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet benchmark/main.exe >&2
exec ./_build/default/benchmark/main.exe "$@"
