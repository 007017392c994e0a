#!/bin/sh
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   sh bench/run.sh --workload stream --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind (the Go build cache and
# temporary files, the benchmark binary, AOT runner caches, span files) goes
# under .bench_build/ in the current directory.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
GOCACHE="$out/gocache"
GOPATH="$out/gopath"
GOTMPDIR="$out/tmp"
TMPDIR="$out/tmp"
GOFLAGS=
GOWORK=off
GOTOOLCHAIN=local
export GOCACHE GOPATH GOTMPDIR TMPDIR GOFLAGS GOWORK GOTOOLCHAIN
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" --workdir "$out" "$@"
