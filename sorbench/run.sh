#!/usr/bin/env bash
# Builds sorbench from this checkout and runs it with the given flags.
# Run from the repository root:
#
#   bash sorbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and data directory stays under .bench_build/
# in the current directory.
set -euo pipefail

root=$(pwd)
build="${root}/.bench_build"
mkdir -p "${build}/tmp" "${build}/home"

export GOCACHE="${build}/gocache"
export GOMODCACHE="${build}/gomodcache"
export GOPATH="${build}/gopath"
export GOTMPDIR="${build}/tmp"
export TMPDIR="${build}/tmp"
export HOME="${build}/home"
export XDG_CONFIG_HOME="${build}/home/.config"
export XDG_CACHE_HOME="${build}/home/.cache"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOENV=off
export GOTELEMETRY=off

(cd "${root}/sorbench" && go build -o "${build}/sorbench" .) >&2
exec "${build}/sorbench" -work "${build}" "$@"
