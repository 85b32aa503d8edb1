#!/usr/bin/env bash
# Builds pipd and the e2ebench load generator from source, then runs one
# benchmark workload against a real pipd on loopback:
#
#   bash e2ebench/run.sh --workload sampled-analytics --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build output, the Go build cache
# and the benchmark's scratch data directories live under .bench_build
# (or $CARGO_TARGET_DIR when set), so nothing is written outside the tree.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off

(cd "$root" && go build -o "$build/pipd" ./cmd/pipd)
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)

cd "$root"
exec "$build/e2ebench" -pipd "$build/pipd" -workdir "$build" "$@"
