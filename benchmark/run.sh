#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#	bash benchmark/run.sh --workload install-check --seed 1 --seconds 20 --trace 0
#
# Every build artefact (binary, Go build cache, temporary files) stays
# under .bench_build/ in the checkout. A tree without the iotsan sources
# fails the build, and the script exits non-zero without a result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ]; then
	echo "run.sh: no iotsan module at $root; run from the repository root" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$out/analyze-bench" .
exec "$out/analyze-bench" "$@"
