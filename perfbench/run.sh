#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it:
#
#   bash perfbench/run.sh --workload conv-fig --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the go
# command's own config and telemetry files stay under .bench_build in the
# checkout; nothing is fetched.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build" \
	XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$(dirname "$0")" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
