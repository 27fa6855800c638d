#!/usr/bin/env bash
# The parent/change protocol of ROADMAP "How a change is judged", as one
# command:
#
#   scripts/pairs.sh <parent-ref> <workload> [n=10] [seconds=20]
#
# Builds the benchmark from the committed files of <parent-ref> and from the
# working tree as it stands (staged and unstaged edits to tracked files, and
# staged new files: `git add -A` first) — each in a checkout of its own — and
# runs n pairs on seeds 1..n with --trace 0, alternating which side of a pair
# runs first. Odd seeds run these two builds. Even seeds run a second
# extraction of each side, padded: one 32-byte function added to
# internal/atof, which is linked ahead of every kernel package, puts every
# kernel function in the other half of its 64-byte cache line (Go aligns
# functions to 32 bytes on amd64, so each sits at offset 0 or 32: its
# residue). Half the pairs then run at each residue, so a change that only
# moves the kernels within their lines cannot read as faster or slower.
#
# Per end-to-end metric of BENCHMARK.json it prints each side's median and
# quartiles over both residues (Python's statistics.quantiles, like
# benchmark/aa.go) with the unpadded and padded medians beside them, in how
# many pairs the change read better (identical readings counted apart, for
# neither side) with the one-sided sign-test p-value of that count, and the
# failed-operation totals of both sides. One `kernel layout:` line per
# residue says how many kernel functions the change moved within their cache
# line, naming each hot one (a generated `…T` cell, a
# reduction, the CSX decode) with its offset in the line on both sides; a
# `residue pad:` line names any hot function the pad failed to flip. n = 0
# builds the four binaries and prints those lines only. Nothing under
# benchmark/ is edited: each extraction runs its own benchmark/run.sh.
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
	for dir in "$side" "$side-pad"; do
		mkdir "$work/$dir"
		git archive "${!side}" | tar -x -C "$work/$dir"
		touch "$work/$dir.jsonl"
	done
	# An init function is live without a caller: a call added to an existing
	# function could grow that function's own 32-byte slot as well and shift
	# the kernels by 64 bytes, which moves none of them within its line.
	printf '\n// residuePad moves every function linked after this package by 32 bytes.\nvar residuePad uint8\n\nfunc init() { residuePad++ }\n' \
		>>"$work/$side-pad/internal/atof/atof.go"
done

# run <dir> <seed> appends the run's result line (the JSON object the
# benchmark prints last) to <dir>.jsonl.
run() {
	(cd "$work/$1" && bash benchmark/run.sh --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0) |
		tail -n 1 >>"$work/$1.jsonl"
}
if [ "$n" -gt 0 ]; then
	for seed in $(seq 1 "$n"); do
		if [ $((seed % 2)) -eq 1 ]; then order="parent change" pad=; else order="change parent" pad=-pad; fi
		for side in $order; do
			run "$side$pad" "$seed"
		done
		echo "pair $seed/$n done ($order${pad:+, padded})" >&2
	done

	echo "workload $workload, $n pairs, seeds 1..$n (even seeds padded), --seconds $seconds --trace 0"
	echo "parent $(git rev-parse --short "$parent")  change $(git rev-parse --short "$change")$(git diff --quiet HEAD || echo ' (working tree)')"
	printf '%-12s %-8s %-50s %-50s %s\n' metric unit 'parent median [Q1, Q3] (unpadded / padded)' 'change median [Q1, Q3] (unpadded / padded)' 'change better'
	# values <metric> <pad> prints "parent change pad" per pair of that residue.
	values() {
		paste <(jq -r ".metrics.$1.value" "$work/parent$2.jsonl") <(jq -r ".metrics.$1.value" "$work/change$2.jsonl") |
			sed "s/\$/\t${2:-unpadded}/"
	}
	jq -r '.end_to_end[] | [.name, .unit, .better] | @tsv' BENCHMARK.json |
		while IFS=$'\t' read -r name unit better; do
			cat <(values "$name" "") <(values "$name" -pad) |
				awk -v name="$name" -v unit="$unit" -v better="$better" '
				function quartiles(v, n, q,    i, j, d) { # statistics.quantiles(v, n=4), v sorted 1..n
					for (i = 1; i <= 3; i++) {
						j = int(i * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
						d = i * (n + 1) - j * 4
						q[i] = n < 2 ? v[1] : (v[j] * (4 - d) + v[j + 1] * d) / 4
					}
				}
				function sorted(v, n,    i, j, t) { for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t } }
				function median(v, n) { if (n == 0) return "-"; sorted(v, n); return sprintf("%.4g", n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2) }
				function signp(k, n,    i, c, p) { # P[X >= k] for X ~ Bin(n, 1/2); c is C(n, i)
					for (c = 1; i <= n; i++) { if (i >= k) p += c; c = c * (n - i) / (i + 1) }
					return p / 2 ^ n
				}
				function side(v, n, vu, nu, vp, np, q) {
					sorted(v, n); quartiles(v, n, q)
					return sprintf("%.4g [%.4g, %.4g] (%s / %s)", q[2], q[1], q[3], median(vu, nu), median(vp, np))
				}
				{
					p[NR] = $1; c[NR] = $2
					if ($3 == "unpadded") { pu[++nu] = $1; cu[nu] = $2 } else { pp[++np] = $1; cp[np] = $2 }
					if ($1 == $2) ties++; else if (better == "higher" ? $2 > $1 : $2 < $1) wins++
				}
				END {
					printf "%-12s %-8s %-50s %-50s %d/%d p=%.3g%s\n", name, unit,
						side(p, NR, pu, nu, pp, np), side(c, NR, cu, nu, cp, np), wins, NR, signp(wins, NR - ties),
						ties ? sprintf(" (%d identical)", ties) : ""
				}'
		done
	for side in parent change; do
		printf 'ops_failed %-7s %d of %d\n' "$side" "$(cat "$work/$side.jsonl" "$work/$side-pad.jsonl" | jq -s 'map(.failed) | add // 0')" \
			"$(cat "$work/$side.jsonl" "$work/$side-pad.jsonl" | jq -s 'map(.attempted) | add // 0')"
	done
fi
# A build that ran nothing is made here: run.sh builds, then -h prints the
# flags and exits.
for dir in parent change parent-pad change-pad; do
	[ -x "$work/$dir/.bench_build/benchmark" ] || (cd "$work/$dir" && bash benchmark/run.sh -h 2>/dev/null)
done

# The kernels' place in the binary: a change to any package linked before them
# shifts every function, and one moved to the other half of its cache line can
# read a few per cent slower with no kernel change (EXPERIMENTS.md records two).
text() { go tool nm "$work/$1/.bench_build/benchmark" | awk '$2 ~ /^[Tt]$/ && $3 ~ /^repro\/internal\/(core|vec|cg|parallel|csx)\./ { print $3, $1 }'; }
shifts='function hex(s,    i, v) { for (i = 1; i <= length(s); i++) v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1; return v }
	function hot(s) { return s ~ /[a-z0-9]T$|\.mulBlob(Sym)?$/ }
	NR == FNR { before[$1] = hex($2); next }
	$1 in before { after[$1] = hex($2); names[++m] = $1 }'
for pad in "" -pad; do
	awk "$shifts"'
		END {
			for (i = 1; i <= m; i++) {
				s = names[i]; n++; d = after[s] - before[s]; shifts[d]++
				if (d % 64 == 0) continue
				moved++
				if (hot(s)) list = list sprintf("\n  %s %d -> %d", s, before[s] % 64, after[s] % 64)
			}
			for (d in shifts) if (shifts[d] > best) { best = shifts[d]; common = d }
			printf "kernel layout (%s): %d/%d internal/{core,vec,cg,parallel,csx} text symbols moved mod 64; most common shift %+d bytes (%d symbols)%s\n",
				label, moved, n, common, best, list
		}' label="$([ -n "$pad" ] && echo padded || echo unpadded)" <(text "parent$pad") <(text "change$pad")
done
for side in parent change; do
	awk "$shifts"'
		END {
			for (i = 1; i <= m; i++) if (hot(s = names[i])) { n++; if ((after[s] - before[s]) % 64 != 32 && (after[s] - before[s]) % 64 != -32) { stuck++; list = list " " s } }
			printf "residue pad (%s): %d/%d hot symbols flipped%s\n", side, n - stuck, n, stuck ? "; not flipped:" list : ""
		}' side="$side" <(text "$side") <(text "$side-pad")
done
