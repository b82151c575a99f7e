#!/usr/bin/env bash
# Builds omsd, omsbuild, omscompact and omsbench itself from the
# checkout in the current directory, then runs the benchmark:
#
#   bash omsbench/run.sh --workload interactive --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, binaries and each
# run's generated inputs and indexes (removed when the run ends).
set -euo pipefail

root=$(pwd)

# Fail before starting any process when the checkout does not hold
# the program.
for f in go.mod cmd/omsd cmd/omsbuild cmd/omscompact omsbench/go.mod; do
	if [ ! -e "$root/$f" ]; then
		echo "omsbench: $f not found; run from the root of a checkout of the repository" >&2
		exit 2
	fi
done

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home" "$out/work"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly

# With telemetry on (the default mode is "local"), every go command may
# fork a detached telemetry process that outlives it. "go telemetry off"
# itself starts none, and turns it off for the go commands below.
go telemetry off

go build -o "$out/bin/" ./cmd/omsd ./cmd/omsbuild ./cmd/omscompact >&2
(cd omsbench && go build -o "$out/bin/omsbench" .) >&2
exec "$out/bin/omsbench" -bin "$out/bin" -work "$out/work" "$@"
