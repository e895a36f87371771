#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's own build directory
# and runs it with the arguments given. Everything the Go toolchain writes
# (build cache, temporary files, its telemetry counters, the binary) and the
# shared-memory file the transport creates in $TMPDIR stay under .bench_build,
# so a run reads and writes only inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "run.sh: no go.mod beside benchmark/: the benchmark builds from the repository's sources" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false \
	go build -o "$build/benchmark" ./benchmark
TMPDIR="$build/tmp" exec "$build/benchmark" "$@"
