#!/usr/bin/env bash
# The analysis half of scripts/pairs.sh, on run records already made.
#
#   scripts/pairs-report.sh W PARENT.jsonl CHANGE.jsonl
#
# Run from the root of a checkout: it reads that checkout's BENCHMARK.json
# and runs its bench/run.sh -check. PARENT.jsonl and CHANGE.jsonl hold one
# record per run of workload W, as bench/run.sh -out writes them; runs of
# the same seed on the two sides form a pair. The output is -check's table
# (medians, spreads, verdicts) and, per end-to-end metric, the wins table
# described in scripts/pairs.sh. scripts/testdata/pairs holds a recorded
# pair of files and the table they must produce.
set -euo pipefail
[ $# -eq 3 ] || {
	echo "usage: $0 W PARENT.jsonl CHANGE.jsonl" >&2
	exit 2
}
workload=$1 parent=$2 change=$3

# -check covers every workload; the other three are absent from these files.
(bash bench/run.sh -check "$parent" "$change" || true) |
	grep -v 'missing from one file'

# Per end-to-end metric: wins/N; the median gap (change − parent) against
# the parent's interquartile distance, which is the claim rule's test (a
# claimed gain must clear it); and the median pairwise ratio change/parent
# with its quartiles, for information. Quartiles are -check's (Python's
# exclusive method). BENCHMARK.json gives the metrics and their
# directions; each side's value per seed comes from the one-line records.
awk -v workload="$workload" -v parent="$parent" '
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
	side = FILENAME == parent ? "parent" : "change"
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
}' BENCHMARK.json "$parent" "$change"
