#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it; every
# argument goes to the program (see main.go for the modes). Everything the
# build writes stays inside the checkout, under .bench_build/, unless the
# caller already chose a GOCACHE.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="${GOCACHE:-$build/gocache}" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bin/bench" .)
cd "$root"
exec "$build/bin/bench" "$@"
