#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload gups-demeter --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and temporary files all stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off CGO_ENABLED=0

commit=unknown
if [ -d .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --commit "$commit" "$@"
