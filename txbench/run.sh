#!/usr/bin/env bash
# Builds the benchmark and txgc-serve from source, then runs the benchmark.
# Run from the repository root:
#
#   bash txbench/run.sh --workload local-session --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run create stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, binaries, server
# data directories and span dumps. Where the host allows a private mount
# namespace, .bench_build/run/data is a tmpfs for the run's lifetime, so
# the durable workload's fsyncs do not measure a shared disk's noise.
set -euo pipefail

root=$(pwd)
bb="$root/.bench_build"
mkdir -p "$bb/gocache" "$bb/tmp" "$bb/config" "$bb/bin"
export GOCACHE="$bb/gocache" GOTMPDIR="$bb/tmp" TMPDIR="$bb/tmp" \
	GOMODCACHE="$bb/gomod" XDG_CONFIG_HOME="$bb/config" HOME="$bb" \
	GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C txbench -o "$bb/bin/txbench" . >&2
go build -C txbench -o "$bb/bin/txgc-serve" repro/cmd/txgc-serve >&2

mkdir -p "$bb/run/data"
run=("$bb/bin/txbench" -serve-bin "$bb/bin/txgc-serve" -work-dir "$bb/run" "$@")
if unshare -rm true 2>/dev/null; then
	exec unshare -rm sh -c 'mount -t tmpfs -o size=256m tmpfs "$0" && exec "$@"' "$bb/run/data" "${run[@]}"
fi
exec "${run[@]}"
