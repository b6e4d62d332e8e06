#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --rates hot=170,cold=30,scatter=75,ingest=10,ingest_writes=36 \
#       --workload hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# repository root, or under $CARGO_TARGET_DIR if set.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "run.sh: run from the repository root (stpq module with perfbench/ inside)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
# Keep every file the toolchain writes (build cache, module and telemetry
# directories) inside the build directory.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/stpqperf" .)
exec "$build/stpqperf" -build-dir "$build" "$@"
