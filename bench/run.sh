#!/usr/bin/env bash
# Builds the benchmark into bench/.build/ and runs it with the given flags,
# from the repository root. Everything the Go toolchain writes (build cache,
# temporary files, telemetry) stays under bench/.build/, so a run touches
# nothing outside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/bench/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
