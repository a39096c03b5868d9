#!/usr/bin/env bash
# Builds msserve and the benchmark from this checkout, then runs the
# benchmark with the given flags:
#
#   bash perfbench/run.sh --workload path_stream --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ (Go's caches included), and it never fetches a
# module: the benchmark needs nothing outside the repository.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off

if [[ ! -f go.mod || ! -d cmd/msserve ]]; then
	echo "perfbench: run from the root of a minesweeper checkout (no go.mod or cmd/msserve here)" >&2
	exit 1
fi
go build -o "$out/bin/msserve" ./cmd/msserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --msserve "$out/bin/msserve" --workdir "$out" "$@"
