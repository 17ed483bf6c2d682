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
# -check covers every workload; the other three are absent from these files.
(cd "$tmp/change" && bash bench/run.sh -check "$tmp/parent.jsonl" "$tmp/change.jsonl" || true) |
	grep -v 'missing from one file'

# Per end-to-end metric: wins/N; the median gap (change − parent) against
# the parent's interquartile distance, which is the claim rule's test (a
# claimed gain must clear it); and the median pairwise ratio change/parent
# with its quartiles, for information. Quartiles are -check's (Python's
# exclusive method). BENCHMARK.json gives the metrics and their
# directions; each side's value per seed comes from the one-line records.
awk -v workload="$workload" '
function isort(a, n, i, j, t) {
	for (i = 2; i <= n; i++) {
		t = a[i]
		for (j = i - 1; j >= 1 && a[j] > t; j--)
			a[j + 1] = a[j]
		a[j + 1] = t
	}
}
function median(a, n) { return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 }
function quartile(a, n, k, pos, j) {
	pos = k * (n + 1) / 4
	j = int(pos)
	if (j > n - 1) j = n - 1
	if (j < 1) j = 1
	return a[j] + (pos - j) * (a[j + 1] - a[j])
}
FILENAME ~ /BENCHMARK.json$/ {
	if ($0 ~ /"end_to_end"/) on = 1
	else if ($0 ~ /"per_layer"/) on = 0
	if (on && match($0, /"name": *"[^"]*"/)) {
		name = substr($0, RSTART, RLENGTH)
		sub(/^"name": *"/, "", name)
		sub(/"$/, "", name)
		names[++n] = name
	}
	if (on && match($0, /"better": *"[^"]*"/))
		better[name] = substr($0, RSTART, RLENGTH) ~ /higher/
	next
}
index($0, "\"workload\":\"" workload "\"") {
	side = FILENAME ~ /parent.jsonl$/ ? "parent" : "change"
	match($0, /"seed":[0-9]+/)
	seed = substr($0, RSTART + 7, RLENGTH - 7)
	seeds[seed] = 1
	for (i = 1; i <= n; i++)
		if (match($0, "\"" names[i] "\":[{]\"value\":[^,}]+")) {
			v = substr($0, RSTART, RLENGTH)
			sub(/.*:/, "", v)
			val[side, seed, names[i]] = v + 0
		}
}
END {
	printf "%-15s %7s %12s %12s %-11s %8s  %s\n", "metric", "wins", "median gap",
		"parent IQR", "gap vs IQR", "ratio", "ratio quartiles"
	for (i = 1; i <= n; i++) {
		m = names[i]
		wins = np = nr = 0
		split("", pv); split("", cv); split("", r)
		for (s in seeds) {
			if (!(("parent", s, m) in val) || !(("change", s, m) in val))
				continue
			p = val["parent", s, m]
			c = val["change", s, m]
			pv[++np] = p
			cv[np] = c
			if (p != 0)
				r[++nr] = c / p
			if (better[m] ? c > p : c < p)
				wins++
		}
		if (np == 0)
			continue
		isort(pv, np); isort(cv, np); isort(r, nr)
		gap = median(cv, np) - median(pv, np)
		iqr = np > 1 ? quartile(pv, np, 3) - quartile(pv, np, 1) : 0
		q = nr > 1 ? sprintf("%.4f–%.4f", quartile(r, nr, 1), quartile(r, nr, 3)) : "-"
		verdict = (gap < 0 ? -gap : gap) > iqr ? "outside" : "inside"
		printf "%-15s %7s %12.5g %12.5g %-11s %8.4f  %s\n", m, wins "/" np, gap, iqr,
			verdict, nr ? median(r, nr) : 0, q
	}
}' "$tmp/change/BENCHMARK.json" "$tmp/parent.jsonl" "$tmp/change.jsonl"
