#!/usr/bin/env bash
# Builds servebench from this checkout and runs it with the given flags:
#
#   bash servebench/run.sh --workload hot-repeat --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, data directories, span dumps) goes under
# .bench_build; nothing is fetched.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" --workdir "$out" "$@"
