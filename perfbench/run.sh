#!/usr/bin/env bash
# Builds bccd and the benchmark from source, then runs one workload:
#   bash perfbench/run.sh --workload plan|scale|drift|serve --seed N --seconds S --trace 0|1
# Run it from the repository root.  Build output goes to stderr.
set -eu
export DUNE_CACHE=disabled
dune build --root . ./bin/bccd.exe ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
