#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout.
# Everything the Go toolchain writes (build cache, temp files, the binary)
# and everything the benchmark writes (WAL directories, the trace file)
# stays under .bench_build/ in the checkout.
set -euo pipefail
b="$PWD/.bench_build"
mkdir -p "$b/tmp"
export GOCACHE="$b/gocache" GOPATH="$b/gopath" GOMODCACHE="$b/gopath/pkg/mod"
export GOTMPDIR="$b/tmp" XDG_CONFIG_HOME="$b/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go -C benchmark build -o "$b/sdbenchmark" .
exec "$b/sdbenchmark" "$@"
