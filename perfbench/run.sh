#!/usr/bin/env bash
# Entry point of the repository benchmark: builds the benchmark and the
# `acs` executable from source, then runs one workload.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of the repository. Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail
dune build --root . --cache=disabled ./perfbench/main.exe ./bin/acs_cli.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
