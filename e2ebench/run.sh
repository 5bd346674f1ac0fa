#!/bin/sh
# Builds the benchmark from source (the first run compiles the
# libraries) and runs it from the repository root, e.g.
#   bash e2ebench/run.sh --workload hypertext --seed 1 --seconds 30 --trace 0
# Build errors go to stderr and the exit code is non-zero.
set -e
cd "$(dirname "$0")/.."
exec dune exec --root . --cache=disabled --display quiet -- ./e2ebench/main.exe "$@"
