#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write — Go's build cache, the binary, span files, probe scratch —
# stays under benchmark/out/ in this checkout.
set -euo pipefail
cd "$(dirname "$0")"
out="$PWD/out"
mkdir -p "$out"
# The toolchain's own state goes under out/ too: build and module caches,
# and (via XDG_CONFIG_HOME) its telemetry counters. No network, no toolchain
# download: the module has no dependency outside this repository.
env GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
    GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
    go build -o "$out/hyperprov-benchmark" .
exec "$out/hyperprov-benchmark" -out "$out" "$@"
