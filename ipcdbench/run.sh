#!/usr/bin/env bash
# Builds ipcdbench from this checkout's source and runs it with the
# given arguments, from the checkout's root. Everything the build and
# the run write stays under .bench_build and .bench_out.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry and env files here too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/ipcdbench" && go build -o "$build/ipcdbench" .)
cd "$root"
exec "$build/ipcdbench" "$@"
