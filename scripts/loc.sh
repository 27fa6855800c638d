#!/usr/bin/env bash
# Size metrics the ROADMAP says should go down, plus the structural counts
# `make ci` gates on:
#
#   hand-written non-test Go lines outside      (limit 18 100: a ratchet,
#   benchmark/                                   not a target; files that open
#                                                with the standard "Code generated
#                                                ... DO NOT EDIT." line are counted
#                                                apart and not gated: their source
#                                                is the generator, which is)
#   hand-written per-thread ...T bodies in core (limit 12: the reductions and the
#                                                diagonal-init and dot sweeps; the
#                                                18 multiply bodies are cells of
#                                                the template in internal/core/gen)
#   `type Format` declarations                  (limit 1: the facade's alias
#                                                of the internal/format ID)
#   files constructing a format kernel          (limit 0 outside
#   outside internal/format                      internal/format)
#   kernel and vector-op files reading the      (limit 0: the pool's sampler
#   sampling flag or the telemetry clock         is the one timed path)
#   internal/parallel lines naming PhaseMode     (limit 0: the generation-word
#   or declaring a `chan func`                   hand-off is the one dispatch)
#   second execution modes: domain pools,        (limit 0: one pool with one
#   domain-scoped phases and partitions, hub     barrier, one nnz partition, one
#   plans, topology detection                    x gather)
#   dropped comparators: the atomic reduction    (limit 0: SSS-atomic, CSB-Sym and
#   method, its model pricing, the CSB-Sym       BCSR lost every host cell and were
#   and BCSR packages                            never picked by the tuner; EXPERIMENTS.md)
#   set-up path lines that sort nnz entries      (limit 0: sort.Slice in
#   through a comparator or allocate per line    internal/matrix and csx/detect.go;
#                                                strings.Fields or .Text() in the
#                                                Matrix Market reader's data loop)
#
# "Constructing a format kernel" means calling one of the constructors
# internal/format wraps. The packages that define those constructors, and the
# files listed in STUDIES — experiment code that studies one kernel's
# internals on purpose — are not counted; nothing else is exempt.
set -euo pipefail
cd "$(dirname "$0")/.."

# Explicit, not pattern-based: adding a file here is a reviewed decision.
STUDIES=(
	cmd/mtx-info/main.go                 # per-method traffic/roofline rows and the serial CSX-Sym unit dump
	internal/fuzzcheck/gencorpus/main.go # serialises CSX-Sym under every reduction method for the fuzz corpus
)

sources() { # non-test Go outside benchmark/ and build leftovers
	find . -name '*.go' -not -name '*_test.go' \
		-not -path './benchmark/*' -not -path './.bench_build/*' | sort
}

# generated <file> succeeds when the file opens with the header every Go tool
# recognises (https://go.dev/s/generatedcode).
generated() { head -n 1 "$1" | grep -qE '^// Code generated .* DO NOT EDIT\.$'; }
hand=$(sources | while read -r f; do generated "$f" || echo "$f"; done)

lines=$(cat $hand | wc -l)
genlines=$(( $(sources | xargs cat | wc -l) - lines ))
corefiles=$(echo "$hand" | grep -E '^\./internal/core/[^/]*$')
corelines=$(cat $corefiles | wc -l)
tmpllines=$(cat $(echo "$hand" | grep '^\./internal/core/gen/') | wc -l)
bodies=$(grep -hE '^func .*[a-z0-9]T\(' $corefiles | wc -l)
cells=$(grep -hE '^func .*[a-z0-9]T\(' internal/core/lowerrow_gen.go | wc -l)
enums=$(sources | xargs grep -lE '^type Format ' | wc -l)

ctor='(core\.NewKernel|csx\.NewSym|csx\.NewMatrix|csr\.NewParallel)\('
skip='^\./internal/(format|core|csx|csr)/'
for f in "${STUDIES[@]}"; do
	[ -f "$f" ] || { echo "loc: listed study $f does not exist" >&2; exit 1; }
	skip="$skip|^\./$f\$"
done
builders=$(sources | grep -vE "$skip" | xargs grep -lE "$ctor" || true)
nbuilders=$(printf '%s' "$builders" | grep -c . || true)

# The one timed path: kernels and vector operations label their phases and
# the pool's sampler (internal/parallel/sample.go) does all the timing.
timers=$(sources | grep -E '^\./internal/(core|csx|csr|vec)/' |
	xargs grep -lE 'obs\.(SamplingEnabled|Now)\(' || true)
ntimers=$(printf '%s' "$timers" | grep -c . || true)

# The one dispatch: no mode switch and no channel of closures may come back
# beside the pool's generation-word hand-off.
forks=$(sources | grep -E '^\./internal/parallel/' | xargs grep -nE 'PhaseMode|chan func' || true)
nforks=$(printf '%s' "$forks" | grep -c . || true)

# One machine, one multiply body: the NUMA-domain layer and hub caching
# (DESIGN.md §12, §14) stay deleted.
modes=$(sources | xargs grep -nE 'NewPoolDomains|PhaseLocal|ByNNZDomains|hub\.Plan|topo\.' || true)
nmodes=$(printf '%s' "$modes" | grep -c . || true)

# Seven formats somebody selects: the atomic reduction method, its pricing in
# the model and the two packages that existed for comparators stay deleted.
dropped=$(sources | xargs grep -nE 'core\.Atomic|multiplyAtomicT|internal/(bcsr|csb)|AtomicOps|AtomicNs' || true)
ndropped=$(printf '%s' "$dropped" | grep -c . || true)

# The set-up path is linear and allocates per block: no comparator sort over
# the entries (Normalize is a radix sort, the CSX statistics pass uses the
# detector's counting sort), and the reader's data loop — parse, entry and
# mmSplit, everything from parse's signature to the comment of entries —
# never goes back to a string and a strings.Fields slice per line. (The
# allocation count itself is TestReadMatrixMarketAllocates' business.)
mmio=internal/matrix/mmio.go
loop=$(awk '/^func \(p \*mmFormat\) parse\(/{on=1} /^\/\/ entries reads /{on=0} on' "$mmio")
grep -q '^// entries reads ' "$mmio" && [ -n "$loop" ] ||
	{ echo "loc: cannot find the data loop (parse .. entries) in $mmio" >&2; exit 1; }
slow=$({ grep -nE 'sort\.Slice' $(ls internal/matrix/*.go | grep -v _test.go) internal/csx/detect.go /dev/null
	printf '%s\n' "$loop" | grep -nE 'strings\.Fields|\.Text\(\)' | sed "s|^|$mmio (data loop):|"; } || true)
nslow=$(printf '%s' "$slow" | grep -c . || true)

printf 'hand-written non-test Go lines:            %6d  (limit 18100; outside benchmark/)\n' "$lines"
printf '  of which package internal/core:          %6d  (+ %d in its generator, internal/core/gen)\n' "$corelines" "$tmpllines"
printf 'generated non-test Go lines:               %6d  (not gated)\n' "$genlines"
printf 'hand-written ...T bodies in internal/core: %6d  (limit 12)\n' "$bodies"
printf 'generated ...T cells in internal/core:     %6d\n' "$cells"
printf '`type Format` declarations:                %6d  (limit 1)\n' "$enums"
printf 'format-kernel builders outside the table:  %6d  (limit 0)\n' "$nbuilders"
printf 'kernel files timing themselves:            %6d  (limit 0)\n' "$ntimers"
printf 'dispatch forks in internal/parallel:       %6d  (limit 0)\n' "$nforks"
printf 'second execution modes:                    %6d  (limit 0)\n' "$nmodes"
printf 'dropped comparators back in the tree:     %6d  (limit 0)\n' "$ndropped"
printf 'comparator sorts / per-line allocs, set-up:%6d  (limit 0)\n' "$nslow"

status=0
if [ "$lines" -gt 18100 ]; then
	echo "loc: $lines hand-written non-test Go lines, over the 18 100 ratchet (ROADMAP item 5)" >&2
	status=1
fi
if [ "$bodies" -gt 12 ]; then
	echo "loc: $bodies hand-written per-thread ...T bodies in internal/core, limit 12 (a multiply body is a cell of internal/core/gen):" >&2
	grep -nE '^func .*[a-z0-9]T\(' $corefiles >&2
	status=1
fi
if [ "$enums" -gt 1 ]; then
	echo "loc: more than one format enum:" >&2
	sources | xargs grep -nE '^type Format ' >&2
	status=1
fi
if [ "$nbuilders" -gt 0 ]; then
	echo "loc: format kernels constructed outside internal/format (go through format.Build):" >&2
	echo "$builders" | xargs grep -nE "$ctor" >&2
	status=1
fi
if [ "$ntimers" -gt 0 ]; then
	echo "loc: kernel or vector-op code reads the sampling flag or the clock (label the phase; the pool times it):" >&2
	echo "$timers" | xargs grep -nE 'obs\.(SamplingEnabled|Now)\(' >&2
	status=1
fi
if [ "$nforks" -gt 0 ]; then
	echo "loc: internal/parallel names PhaseMode or declares a chan func (the hand-off is the one dispatch path):" >&2
	echo "$forks" >&2
	status=1
fi
if [ "$nmodes" -gt 0 ]; then
	echo "loc: a second execution mode is back (domain pool, domain-scoped phase or partition, hub plan, topology detection):" >&2
	echo "$modes" >&2
	status=1
fi
if [ "$ndropped" -gt 0 ]; then
	echo "loc: a dropped comparator is back (atomic reduction method or its model pricing, internal/bcsr, internal/csb):" >&2
	echo "$dropped" >&2
	status=1
fi
if [ "$nslow" -gt 0 ]; then
	echo "loc: a comparator sort or a per-line allocation on the set-up path (radix/counting sort; tokenise bytes in place):" >&2
	echo "$slow" >&2
	status=1
fi
exit $status
