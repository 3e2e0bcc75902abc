#!/bin/sh
# Build ldbbench from source, then run it from the repository root with
# the arguments given.  Build messages go to standard error; the shared
# dune cache is off so that the build writes only under _build.
set -e
cd "$(dirname "$0")/../.."
dune build --root . --cache=disabled ./bench/e2e/ldbbench.exe 1>&2
exec ./_build/default/bench/e2e/ldbbench.exe "$@"
