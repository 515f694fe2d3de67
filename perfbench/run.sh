#!/usr/bin/env bash
# Builds the programs under test (tlsd, tlsrouter, experiments, tlssim) and the
# benchmark program from the checkout in the current directory, then runs it
# with the given arguments:
#
#   bash perfbench/run.sh --workload sim --seed 1 --seconds 12 --trace 0
#   bash perfbench/run.sh compare old.jsonl new.jsonl
#
# Everything the build and the runs write goes under .bench_build/ in the
# checkout (binaries, Go build cache, daemon cache directories, results).
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/tlsd ] || [ ! -d internal/sim ]; then
	echo "perfbench: run from the root of a subthreads checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/bin" "$out/config"
# Keep the toolchain's caches, temporary files and telemetry inside the
# checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOENV=off \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/config"

# Build on every invocation, so the binaries are always those of the tree as
# it is now. The build cache under .bench_build makes an unchanged tree's
# rebuild a few cached steps.
go build -o "$out/bin/" ./cmd/tlsd ./cmd/tlsrouter ./cmd/experiments ./cmd/tlssim
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -root "$PWD" "$@"
