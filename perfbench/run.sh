#!/usr/bin/env bash
# Builds randprivd and the perfbench program from this checkout, then runs
# perfbench with the arguments given. Run it from the repository root:
#
#   bash perfbench/run.sh --workload assess-stream --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$build/randprivd" ./cmd/randprivd >&2
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -randprivd "$build/randprivd" -workdir "$build" "$@"
