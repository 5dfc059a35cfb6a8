#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload tc-wide --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files, the binary and the traced run's
# spans all stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --spans-dir "$out" "$@"
