#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout into
# .bench_build/ and runs it with every argument passed through, e.g.
#
#   bash qbench/run.sh --workload hot_submit --seed 1 --seconds 55 --trace 0
#
# Run it from the checkout root. See qbench/README.md.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# Every cache and config the go command may write stays under $out.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/qbench" && go build -o "$out/qbench" .)
exec "$out/qbench" "$@"
