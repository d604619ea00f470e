#!/bin/sh
# Build the benchmark from source in this checkout, then run it with the
# given arguments (see perfbench/README.md).  Run from the checkout root:
#   sh perfbench/run.sh --workload tune --seed 1 --seconds 20 --trace 0
set -e
dune build --root . --cache=disabled --display=quiet ./perfbench/main.exe
exec ./_build/default/perfbench/main.exe "$@"
