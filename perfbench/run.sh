#!/usr/bin/env bash
# Builds the perfbench harness from source and runs it. Run it from the
# repository root, for example:
#
#   bash perfbench/run.sh --workload explore-cold --seed 1 --seconds 8 --trace 0
#
# Build outputs, the Go build cache and the run's scratch directories
# all stay under $CARGO_TARGET_DIR (default .bench_build) in the
# current directory.
set -euo pipefail

root=$PWD
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must both exist)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

# Keep every file the go command writes (build cache, temp files,
# telemetry, module cache) inside the build directory.
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOENV=off GOFLAGS= GOTOOLCHAIN=local
export GOPROXY=off CGO_ENABLED=0
go telemetry off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
