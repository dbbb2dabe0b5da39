#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it. Run from the
# repository root, e.g.:
#
#   bash perfbench/run.sh --workload belle2-batch --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and per-run scratch files (journals, spans)
# all stay under $CARGO_TARGET_DIR, default .bench_build, in the checkout.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$(dirname "$0")" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -work "$out/work" "$@"
