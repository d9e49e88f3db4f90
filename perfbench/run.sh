#!/usr/bin/env bash
# Builds the benchmark and the dpserve daemon of this checkout from source,
# then runs one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload water-md --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" || ! -d "$root/cmd/dpserve" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/dpserve and perfbench/ must be present)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/gopath" "$out/config" "$out/results"
# The go command's caches, temporary files and user config (go env file,
# telemetry counters) all stay inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/bin/dpserve" ./cmd/dpserve
go build -C perfbench -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -root "$root" -out "$out/results" "$@"
