#!/usr/bin/env bash
# The parent/change protocol of ROADMAP "How a change is judged", as one
# command:
#
#   scripts/pairs.sh <parent-ref> <workload> [n=10] [seconds=20]
#
# Builds the benchmark twice — from the committed files of <parent-ref> and
# from the working tree as it stands (staged and unstaged edits to tracked
# files, and staged new files: `git add -A` first) — each in a checkout of its
# own, and runs n pairs on seeds 1..n with --trace 0, alternating which side
# of a pair runs first. Per end-to-end metric of BENCHMARK.json it prints both
# medians, both quartile pairs (Python's statistics.quantiles, like the
# acceptance driver and benchmark/aa.go), in how many pairs the change read
# better (identical readings counted apart, for neither side) with the
# one-sided sign-test p-value of that count, the failed-operation totals of
# both sides, and how many kernel functions the change moved within their
# cache line, naming each hot one (a generated `…T` cell, a reduction, the
# CSX decode) with its offset in the line on both sides. n = 0 builds the two
# binaries and prints that layout line only. Nothing under benchmark/ is
# edited: each side runs its own benchmark/run.sh.
#
# The checkouts are `git archive` extractions under ${TMPDIR:-/tmp}, not
# registered worktrees: nothing is left behind in .git when the script is
# killed, and the change side can be an uncommitted tree.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
	echo "usage: scripts/pairs.sh <parent-ref> <workload> [n=10] [seconds=20]" >&2
	exit 2
fi
parent_ref=$1 workload=$2 n=${3:-10} seconds=${4:-20}
parent=$(git rev-parse --verify "$parent_ref^{commit}")
change=$(git stash create)   # a commit of the working tree; empty when it is clean
change=${change:-$(git rev-parse HEAD)}

work=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
for side in parent change; do
	mkdir "$work/$side"
	git archive "${!side}" | tar -x -C "$work/$side"
done

# run <side> <seed> appends the run's result line (the JSON object the
# benchmark prints last) to <side>.jsonl.
run() {
	(cd "$work/$1" && bash benchmark/run.sh --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0) |
		tail -n 1 >>"$work/$1.jsonl"
}
if [ "$n" -gt 0 ]; then
	for seed in $(seq 1 "$n"); do
		if [ $((seed % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
		for side in $order; do
			run "$side" "$seed"
		done
		echo "pair $seed/$n done ($order)" >&2
	done

	echo "workload $workload, $n pairs, seeds 1..$n, --seconds $seconds --trace 0"
	echo "parent $(git rev-parse --short "$parent")  change $(git rev-parse --short "$change")$(git diff --quiet HEAD || echo ' (working tree)')"
	printf '%-12s %-8s %-34s %-34s %s\n' metric unit 'parent median [Q1, Q3]' 'change median [Q1, Q3]' 'change better'
	jq -r '.end_to_end[] | [.name, .unit, .better] | @tsv' BENCHMARK.json |
		while IFS=$'\t' read -r name unit better; do
			paste <(jq -r ".metrics.$name.value" "$work/parent.jsonl") <(jq -r ".metrics.$name.value" "$work/change.jsonl") |
				awk -v name="$name" -v unit="$unit" -v better="$better" '
				function quartiles(v, n, q,    i, j, d) { # statistics.quantiles(v, n=4), v sorted 1..n
					for (i = 1; i <= 3; i++) {
						j = int(i * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
						d = i * (n + 1) - j * 4
						q[i] = n < 2 ? v[1] : (v[j] * (4 - d) + v[j + 1] * d) / 4
					}
				}
				function sorted(v, n,    i, j, t) { for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t } }
				function signp(k, n,    i, c, p) { # P[X >= k] for X ~ Bin(n, 1/2); c is C(n, i)
					for (c = 1; i <= n; i++) { if (i >= k) p += c; c = c * (n - i) / (i + 1) }
					return p / 2 ^ n
				}
				{ p[NR] = $1; c[NR] = $2; if ($1 == $2) ties++; else if (better == "higher" ? $2 > $1 : $2 < $1) wins++ }
				END {
					sorted(p, NR); sorted(c, NR); quartiles(p, NR, pq); quartiles(c, NR, cq)
					printf "%-12s %-8s %-34s %-34s %d/%d p=%.3g%s\n", name, unit,
						sprintf("%.4g [%.4g, %.4g]", pq[2], pq[1], pq[3]),
						sprintf("%.4g [%.4g, %.4g]", cq[2], cq[1], cq[3]), wins, NR, signp(wins, NR - ties),
						ties ? sprintf(" (%d identical)", ties) : ""
				}'
		done
	for side in parent change; do
		printf 'ops_failed %-7s %d of %d\n' "$side" "$(jq -s 'map(.failed) | add' "$work/$side.jsonl")" "$(jq -s 'map(.attempted) | add' "$work/$side.jsonl")"
	done
fi
# A side that ran nothing is built here: run.sh builds, then -h prints the
# flags and exits.
for side in parent change; do
	[ -x "$work/$side/.bench_build/benchmark" ] || (cd "$work/$side" && bash benchmark/run.sh -h 2>/dev/null)
done

# The kernels' place in the binary: a change to any package linked before them
# shifts every function, and one moved to the other half of its cache line can
# read a few per cent slower with no kernel change (EXPERIMENTS.md records two).
text() { go tool nm "$work/$1/.bench_build/benchmark" | awk '$2 ~ /^[Tt]$/ && $3 ~ /^repro\/internal\/(core|vec|cg|parallel|csx)\./ { print $3, $1 }'; }
awk 'function hex(s,    i, v) { for (i = 1; i <= length(s); i++) v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1; return v }
	NR == FNR { parent[$1] = hex($2); next }
	$1 in parent {
		n++; d = hex($2) - parent[$1]; shifts[d]++
		if (d % 64 == 0) next
		moved++
		if ($1 ~ /[a-z0-9]T$|\.mulBlob(Sym)?$/) hot = hot sprintf("\n  %s %d -> %d", $1, parent[$1] % 64, hex($2) % 64)
	}
	END {
		for (d in shifts) if (shifts[d] > best) { best = shifts[d]; common = d }
		printf "kernel layout: %d/%d internal/{core,vec,cg,parallel,csx} text symbols moved mod 64; most common shift %+d bytes (%d symbols)%s\n", moved, n, common, best, hot
	}' <(text parent) <(text change)
