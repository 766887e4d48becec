#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload esp-single --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artefact (compiler cache,
# temporary files, the binary, traced-run span files) stays under
# .bench_build/perfbench; nothing is fetched from the network.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build/perfbench"
mkdir -p "${out}/gocache" "${out}/tmp" "${out}/config" "${out}/cache"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="${out}/config"
export XDG_CACHE_HOME="${out}/cache"
export GOCACHE="${out}/gocache"
export GOTMPDIR="${out}/tmp"
export TMPDIR="${out}/tmp"
export GOPATH="${out}/gopath"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" -out "${out}" "$@"
