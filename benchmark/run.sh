#!/bin/sh
# Builds the benchmark inside the checkout and runs it. Everything the build
# and the run write stays under .bench_build in the current directory: the Go
# build cache and temp files, the go command's own config and telemetry
# directory, the binary, and the run's cache and server data directories.
set -eu
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/pipette-benchmark" ./benchmark
exec "$build/pipette-benchmark" "$@"
