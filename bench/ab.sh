#!/usr/bin/env bash
# Paired A/B of the repository benchmark between two commits:
#
#   bash bench/ab.sh PARENT CHANGE [pairs] [seconds] [workloads] [first-seed]
#
# PARENT and CHANGE are any git revisions. pairs defaults to 10, seconds
# to 20, workloads (comma-separated) to every workload BENCHMARK.json
# lists, first-seed to 1. Each side is checked out in a temporary git
# worktree (under $TMPDIR, removed on exit) and built and run there
# through its own perfbench/run.sh with --trace 0. Pair i runs both sides
# on seed first-seed+i; even pairs run PARENT first, odd pairs CHANGE
# first. Just before and just after each run, bench/ab.go -parallelism
# reads the host's effective parallelism (about 40 ms of spinning).
# Every run's result line is kept; at the end bench/ab.go prints each
# run's wall time, exit status and two readings, per workload how many
# pairs read one parallelism regime throughout, and per end-to-end
# metric each side's median and quartiles, how many pairs CHANGE won
# (ties count for neither), the median of the per-pair CHANGE/PARENT
# ratios, and a bench/TRAJECTORY.jsonl-shaped line without its "pr"
# field.
#
# Needs only git, Go and this repository; run it from anywhere inside it.
set -euo pipefail
if [ $# -lt 2 ] || [ $# -gt 6 ]; then
	echo "usage: bash bench/ab.sh PARENT CHANGE [pairs] [seconds] [workloads] [first-seed]" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
parent=$(git -C "$root" rev-parse --verify "$1^{commit}")
change=$(git -C "$root" rev-parse --verify "$2^{commit}")
pairs=${3:-10}
seconds=${4:-20}
seed0=${6:-1}
if [ -n "${5:-}" ]; then
	workloads=${5//,/ }
else
	workloads=$(go -C "$root" run bench/ab.go -benchmark "$root/BENCHMARK.json" -workloads)
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
cleanup() {
	for side in parent change; do
		if [ -d "$tmp/$side" ]; then
			git -C "$root" worktree remove --force "$tmp/$side" || true
		fi
	done
	git -C "$root" worktree prune
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

go -C "$root" build -o "$tmp/ab" bench/ab.go
git -C "$root" worktree add --quiet --detach "$tmp/parent" "$parent"
git -C "$root" worktree add --quiet --detach "$tmp/change" "$change"
for side in parent change; do
	# The first call builds the side's perfbench; a zero-second pq-pairs
	# run checks that the binary works before any timed run.
	echo "ab: building $side" >&2
	(cd "$tmp/$side" && bash perfbench/run.sh --workload pq-pairs --seconds 0 --trace 0 >/dev/null)
done

results="$tmp/results.tsv"
: >"$results"
for w in $workloads; do
	for ((i = 0; i < pairs; i++)); do
		seed=$((seed0 + i))
		order="parent change"
		if ((i % 2 == 1)); then
			order="change parent"
		fi
		for side in $order; do
			out="$tmp/run.out"
			pre=$("$tmp/ab" -parallelism)
			t0=$(date +%s%N)
			status=0
			(cd "$tmp/$side" && bash perfbench/run.sh --workload "$w" --seed "$seed" \
				--seconds "$seconds" --trace 0 >"$out" 2>"$tmp/run.err") || status=$?
			t1=$(date +%s%N)
			post=$("$tmp/ab" -parallelism)
			wall=$(((t1 - t0) / 1000000))
			line=$(tail -n 1 "$out" || true)
			printf '%s\t%s\t%d\t%d\t%d\t%d\t%s\t%s\t%s\n' "$w" "$side" "$i" "$seed" "$status" "$wall" "$pre" "$post" "$line" >>"$results"
			echo "ab: $w pair $i seed $seed $side: exit $status, ${wall} ms, parallelism $pre > $post" >&2
			if [ "$status" -ne 0 ]; then
				sed 's/^/ab:   /' "$tmp/run.err" >&2
			fi
		done
	done
done

"$tmp/ab" -benchmark "$root/BENCHMARK.json" -seconds "$seconds" \
	-parent "$parent" -change "$change" -subject "$(git -C "$root" log -1 --format=%s "$change")" <"$results"
