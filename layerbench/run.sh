#!/usr/bin/env bash
# Builds the layered benchmark from source and runs it from the
# repository root:
#
#   bash layerbench/run.sh --workload fleet-cold --seed 7 --seconds 20 --trace 0
#
# The Go build cache, the binary and every scratch file live under
# .bench_build/ in the directory it is started from, so nothing is read
# from or written to the user's home. Without the repository's own
# go.mod beside layerbench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

go build -C "$root/layerbench" -o "$out/layerbench" .
exec "$out/layerbench" "$@"
