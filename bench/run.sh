#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (binary and Go
# build cache both stay inside the checkout) and runs it from the
# repository root with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
export XDG_CONFIG_HOME="$out/config" # where the go command keeps its telemetry counters
go build -C "$here" -o "$out/ulipc-bench" .
cd "$root"
exec "$out/ulipc-bench" "$@"
