#!/usr/bin/env bash
# Alternating parent/change pairs of the benchmark on one workload.
#
#   scripts/pairs.sh PARENT CHANGE --workload W --pairs N [--seconds S]
#
# PARENT and CHANGE are any two commits (HEAD HEAD is the self-test). Each
# is checked out with `git worktree` under a temporary directory and built
# there. Pair k (k = 1..N) runs
#
#   bash bench/run.sh --workload W --seed k --seconds S --trace 0 -out <side>.jsonl
#
# once in each checkout, the parent first when k is odd and the change
# first when k is even, so that neither side always runs on a warmer
# machine. The script then prints `bench/run.sh -check parent.jsonl
# change.jsonl` (BENCHMARK.json's bounds: medians, spreads, verdicts) and,
# for each end-to-end metric, wins/N — in how many pairs the change's run
# was better than the parent's in the metric's own direction — the median
# gap against the parent's interquartile distance, and the median pairwise
# ratio with its quartiles. It reports and nothing else: the claim rule is
# BENCHMARK.json's, and nothing in the checkout changes. S defaults to 24
# seconds, BENCHMARK.json's run length.
set -euo pipefail

usage() {
	echo "usage: $0 PARENT CHANGE --workload W --pairs N [--seconds S]" >&2
	exit 2
}
[ $# -ge 2 ] || usage
declare -A revs=([parent]="$1" [change]="$2")
shift 2
workload= pairs= seconds=24
while [ $# -ge 2 ]; do
	case $1 in
	--workload) workload=$2 ;;
	--pairs) pairs=$2 ;;
	--seconds) seconds=$2 ;;
	*) usage ;;
	esac
	shift 2
done
[ $# -eq 0 ] && [ -n "$workload" ] && [[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
cleanup() {
	for side in parent change; do
		git -C "$root" worktree remove --force "$tmp/$side" 2>/dev/null || true
	done
	rm -rf "$tmp"
	git -C "$root" worktree prune
}
trap cleanup EXIT

# Both sides build through one Go build cache, the caller's, so the second
# checkout and every run after the first reuse what the first compiled.
GOCACHE="${GOCACHE:-$(go env GOCACHE)}"
export GOCACHE
for side in parent change; do
	git -C "$root" worktree add --quiet --detach "$tmp/$side" "${revs[$side]}"
	(cd "$tmp/$side" && go build ./... && cd bench && go build -o /dev/null .)
done

for ((k = 1; k <= pairs; k++)); do
	order="parent change"
	((k % 2)) || order="change parent"
	for side in $order; do
		if ! (cd "$tmp/$side" && bash bench/run.sh --workload "$workload" --seed "$k" \
			--seconds "$seconds" --trace 0 -out "$tmp/$side.jsonl") >"$tmp/run.log" 2>&1; then
			echo "pairs.sh: the $side run at seed $k failed:" >&2
			tail -n 20 "$tmp/run.log" >&2
			exit 1
		fi
	done
done

echo "$workload: $pairs alternating pairs of $seconds s, parent ${revs[parent]}, change ${revs[change]}"
(cd "$tmp/change" && bash "$root/scripts/pairs-report.sh" "$workload" "$tmp/parent.jsonl" "$tmp/change.jsonl")
