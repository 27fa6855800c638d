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
# better (identical readings counted apart, for neither side), and the
# failed-operation totals of both sides. Nothing under
# benchmark/ is edited: each side runs its own benchmark/run.sh.
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
			{ p[NR] = $1; c[NR] = $2; if ($1 == $2) ties++; else if (better == "higher" ? $2 > $1 : $2 < $1) wins++ }
			END {
				sorted(p, NR); sorted(c, NR); quartiles(p, NR, pq); quartiles(c, NR, cq)
				printf "%-12s %-8s %-34s %-34s %d/%d%s\n", name, unit,
					sprintf("%.4g [%.4g, %.4g]", pq[2], pq[1], pq[3]),
					sprintf("%.4g [%.4g, %.4g]", cq[2], cq[1], cq[3]), wins, NR,
					ties ? sprintf(" (%d identical)", ties) : ""
			}'
	done
for side in parent change; do
	printf 'ops_failed %-7s %d of %d\n' "$side" "$(jq -s 'map(.failed) | add' "$work/$side.jsonl")" "$(jq -s 'map(.attempted) | add' "$work/$side.jsonl")"
done
