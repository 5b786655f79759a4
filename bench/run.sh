#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the
# repository root: bash bench/run.sh --workload warm_join --seed 1 --seconds 28 --trace 0
# Everything go writes (build cache, config) lands under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$here"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOFLAGS= go build -o "$build/bench" .
)
cd "$root"
exec "$build/bench" "$@"
