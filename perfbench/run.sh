#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, from
# the repository root:
#
#   bash perfbench/run.sh --workload map-read90 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .perfbench/ in the
# current directory: the Go build cache, temporary files, the binary, KV
# data and span files.
set -euo pipefail
root="$PWD"
work="$root/.perfbench"
mkdir -p "$work/gocache" "$work/tmp" "$work/home"
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" HOME="$work/home" \
	XDG_CONFIG_HOME="$work/home" GOENV=off GOFLAGS=-buildvcs=false \
	GOTOOLCHAIN=local CGO_ENABLED=0
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
go -C "$root/perfbench" build -ldflags "-X main.commit=$commit" -o "$work/perfbench" . >&2
exec "$work/perfbench" "$@"
