#!/usr/bin/env bash
# Builds the replay benchmark from the checkout's sources and runs it.
# Usage, from the checkout root:
#   bash replaybench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run leave behind stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
# Keep the Go toolchain's caches and config (telemetry included) in the
# checkout, and off the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off
export GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/replaybench" && go build -o "$out/replaybench" .)
cd "$root"
exec "$out/replaybench" -out "$out" "$@"
