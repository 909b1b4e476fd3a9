#!/usr/bin/env bash
# Builds the wall-clock benchmark from the checkout this script sits in
# and runs it with the given arguments, for example
#
#   bash perfbench/run.sh --workload offload-64k --seed 1 --seconds 10 --trace 0
#
# The benchmark is its own Go module (perfbench/go.mod) that imports the
# repository's module through a directory replace. Every build output and
# Go cache lives under .bench_build/ at the checkout root, so nothing is
# read from or written to the user's home directory.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: $root is not a full checkout (no go.mod); nothing to build" >&2
	exit 2
fi
cd "$root"

build="$root/.bench_build"
mkdir -p "$build/home" "$build/gocache" "$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export CGO_ENABLED=0

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
