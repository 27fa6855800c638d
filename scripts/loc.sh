#!/usr/bin/env bash
# Size metrics the ROADMAP says should go down, plus the structural counts
# `make ci` gates on:
#
#   hand-written non-test Go lines outside      (limit `limit` below: a ratchet,
#   benchmark/                                   not a target; files that open
#                                                with the standard "Code generated
#                                                ... DO NOT EDIT." line are counted
#                                                apart and not gated: their source
#                                                is the generator, which is)
#   hand-written per-thread ...T bodies in core (limit 4: one reduction per
#                                                method with the lane count a
#                                                parameter, naive's and
#                                                effective's fusing the dot,
#                                                and the dot sweep; the 18 multiply
#                                                bodies are cells of the template
#                                                in internal/core/gen, as are the
#                                                18 CG vector bodies of
#                                                internal/vec)
#   a second local-vector store or lane-     (limit 0: one store, LocalVectors,
#   width copy of a reduction, init, dot     as wide as the widest width run;
#   sweep or colored assembler, or a one-    nv is a parameter of each body,
#   lane fused dot                           the fused dot's included)
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
#   through a comparator or allocate per line    internal/matrix, internal/reorder,
#                                                internal/color and csx/detect.go,
#                                                a counting sort in csx/detect.go;
#                                                sort.Slice or slices.Sort in the
#                                                conflict index, core/index.go and
#                                                core/localvec.go; strings.Fields
#                                                or .Text() in the Matrix Market
#                                                reader's data loop)
#   CG iteration loops in internal/cg            (limit 1: one loop over nv lanes,
#                                                which Solve, SolveJacobi and
#                                                SolveBlock enter; and no SolvePCG
#                                                or Preconditioner anywhere)
#   hand-written element loops in internal/vec   (limit 0: every vector body is a
#                                                cell of the template in
#                                                internal/core/gen, width 1 included)
#   hand-written product bodies in internal/csr  (limit 0: CSR's rows are the
#   and internal/csx                             gather cells of the lower-row
#                                                template, the CSX and CSX-Sym
#                                                kernels the decode template's)
#   files calling strconv.ParseFloat             (limit 1: internal/atof's fallback;
#                                                both doors read numbers through it)
#   internal/serve files calling                 (limit 0: the response path writes
#   strconv.AppendFloat or FormatFloat           numbers through internal/atof)
#   files outside internal/format and            (limit 0: format.Matrix.Reordered is
#   internal/matrix calling .Permute(            the one reorder path, RCM then
#                                                SSS.Permute; a reordered kernel
#                                                permutes its operands in the facade,
#                                                not in a wrapper)
#   a block conflict graph, a second colorer     (limit 0, every Go file, tests too:
#   or the block schedule anywhere in the tree   the colored schedule is two phases on
#                                                the kernel's nnz ranges, deferring
#                                                the elements below each range's
#                                                start, checked one comparison per row;
#                                                no row blocks, no diagonal-init pass)
#   the anti-diagonal pattern or direction       (limit 0, every Go file, tests too:
#   anywhere in the tree                         0 units on all five analogs; it left
#                                                with serialize version 2)
#   hand-written non-test lines in internal/csx  (limit `csxlimit` below: the strip
#                                                grammar landed under the count of
#                                                the block grammar it replaced)
#   reduction-method switch cases outside        (limit 0: core.Account is the one
#   internal/core                                per-method byte account; the built
#                                                kernels, CSX-Sym's cost, the tuner's
#                                                estimate and attribution read it)
#   `go` statements in internal/matrix and       (limit 0: internal/blocks' Pipe is
#   internal/serve/wire.go                       the one ordered fan-out; the reader
#                                                and the codec start no helper of
#                                                their own)
#   back-quoted internal/... paths in DESIGN.md  (limit 0 missing from the tree)
#   and README.md
#   DESIGN.md and EXPERIMENTS.md bytes           (limits `designlimit` and
#                                                `explimit` below: ratchets; a new
#                                                section pays for itself elsewhere
#                                                in the same file)
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

# The ratchet on hand-written non-test lines: lowered when a change removes
# lines, raised only by a reviewed exception (internal/atof's reader, +150; its
# writer, atof.AppendJSON, +145; the wire codec's block pipeline in
# internal/serve/wire.go and the serve command's header timeout, +148 together;
# the Matrix Market reader's one-pass lines and recycled block buffers, +38 net
# of the SSS build's one pass, for ≈ 35 ms of a 120 ms read of the bmwcra_1
# analog and 54 MB less garbage; SSS.Permute and the reordered COO built on
# first read, +61 net of fuzzcheck.Reference becoming the one-lane
# ReferenceMat, for ≈ 21 ms of the 47 ms COO.Permute + FromCOO took on the
# stencil analog at 0.25 and 18 MB less garbage a reorder; the batcher's one
# hold rule, +16, for req_per_s 36.0 → 48.2 on poisson-multirhs, with
# stream.Run's warm-up, +5, and the serve flags' defaults read from
# serve.DefaultOptions, +1). Lowered by the cull that kept one harness
# experiment per paper table or figure (no colored, phases, spmm-bench or
# spmm-smoke experiment; the host experiment takes -nv) and a triad-only
# bandwidth probe with no cmd/stream-bench, by one per-method traffic account
# in internal/core for every pricer, and by perfmodel.SerialSSSCost, which had
# no caller (−7). Lowered by one ordered block pipeline, internal/blocks, for
# the Matrix Market reader and the wire codec, by the facade's CSXOptions,
# which had no caller, and by one classification tail for the facade's two
# Matrix Market readers (−2). Lowered by the generated product bodies: the
# CSX and CSX-Sym decode loops are one template, CSR's rows the lower-row
# template's gather cells, and csx's serial MulVecSerial and csr's serial
# MulMat, which had no caller, went (−57; internal/csx −306); DESIGN.md §17
# says so in fewer bytes. Raised by RCM's minimum-degree component starts,
# level-only George–Liu candidates and loads ahead of the search, +24 (a
# counting sort by degree, the search's sort as a parameter, two loads), for
# BenchmarkRCM ≈ 1.7× on the stencil analog.
limit=17427
csxlimit=1881
designlimit=107988
explimit=83038

lines=$(cat $hand | wc -l)
genlines=$(( $(sources | xargs cat | wc -l) - lines ))
corefiles=$(echo "$hand" | grep -E '^\./internal/core/[^/]*$')
corelines=$(cat $corefiles | wc -l)
csxlines=$(cat $(echo "$hand" | grep -E '^\./internal/csx/[^/]*$') | wc -l)
formatlines=$(cat $(echo "$hand" | grep -E '^\./internal/format/[^/]*$') | wc -l)
tmpllines=$(cat $(echo "$hand" | grep '^\./internal/core/gen/') | wc -l)
bodies=$(grep -hE '^func .*[a-z0-9]T\(' $corefiles | wc -l)
cells=$(grep -hE '^func .*[a-z0-9]T\(' internal/core/lowerrow_gen.go | wc -l)
veccells=$(grep -hE '^func .*[a-z0-9]T\(' internal/vec/multi_gen.go | wc -l)
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
# the entries (Normalize deals entries to rows and radix-sorts long rows; RCM
# orders each vertex's new neighbours by one packed integer key; the colored
# schedule scans each range's rows once; the CSX detector sorts nothing, its
# passes walk adjacent
# rows; the conflict index reads its columns out of a bitset and orders its
# entries by counting passes), and the reader's data loop — parse, entry and
# mmSplit, everything from parse's signature to the comment of entries —
# never goes back to a string and a strings.Fields slice per line. (The
# allocation count itself is TestReadMatrixMarketAllocates' business.)
mmio=internal/matrix/mmio.go
loop=$(awk '/^func \(p \*mmFormat\) parse\(/{on=1} /^\/\/ entries reads /{on=0} on' "$mmio")
grep -q '^// entries reads ' "$mmio" && [ -n "$loop" ] ||
	{ echo "loc: cannot find the data loop (parse .. entries) in $mmio" >&2; exit 1; }
slow=$({ grep -nE 'sort\.Slice' $(ls internal/{matrix,reorder,color}/*.go | grep -v _test.go) /dev/null
	grep -nE 'sort\.Slice|countingSort|directionPerm' internal/csx/detect.go /dev/null
	grep -nE 'sort\.Slice|slices\.Sort' internal/core/index.go internal/core/localvec.go /dev/null
	printf '%s\n' "$loop" | grep -nE 'strings\.Fields|\.Text\(\)' | sed "s|^|$mmio (data loop):|"; } || true)
nslow=$(printf '%s' "$slow" | grep -c . || true)

# One CG loop: plain, Jacobi-preconditioned and block CG share its iteration
# (the lane count and the inverse diagonal are its parameters). A second loop
# and the extension point of the old preconditioned one stay deleted.
loops=$(sources | grep -E '^\./internal/cg/' | xargs grep -nE 'for i := 0; i < opts\.MaxIter' || true)
nloops=$(printf '%s' "$loops" | grep -c . || true)

# One set of vector bodies: every element loop of internal/vec is a cell of
# the generator's template (multi_gen.go), at one lane as at nv; a hand-written
# file loops over threads and lanes only, never over a vector's elements (the
# index every cell names i).
elemloops=$(echo "$hand" | grep -E '^\./internal/vec/' | xargs grep -nE '^[[:space:]]*for i[ ,:]' /dev/null || true)
nelemloops=$(printf '%s' "$elemloops" | grep -c . || true)
# No hand-written product body in internal/csr or internal/csx: no function
# of a hand-written file there multiplies into a sum or an output through x
# (`s += a * x[c]`, `yw[k] += v * xv`); the bodies are cells of the
# templates in internal/core/gen.
products=$(echo "$hand" | grep -E '^\./internal/(csr|csx)/' |
	xargs awk '/^func /{fn=FILENAME": "$0} /[-+]= [^\/]*\* *x[[:alnum:]]*([[]|[[:space:]]|$)/{print fn}' /dev/null | sort -u)
nproducts=$(printf '%s' "$products" | grep -c . || true)
pcg=$(sources | xargs grep -nE 'SolvePCG|Preconditioner' || true)
npcg=$(printf '%s' "$pcg" | grep -c . || true)

# One decimal reader: the JSON vector body and the Matrix Market reader turn
# text into float64 through internal/atof, whose fallback is the one caller
# of strconv.ParseFloat.
atof=$(sources | xargs grep -lE 'strconv\.ParseFloat\(' || true)
natof=$(printf '%s' "$atof" | grep -c . || true)
strayatof=$(printf '%s' "$atof" | grep -v '^\./internal/atof/' || true)

# ... and one float writer: the vector responses format through
# atof.AppendJSON, never strconv's float formatting.
ftoa=$(sources | grep '^\./internal/serve/' | xargs grep -nE 'strconv\.(AppendFloat|FormatFloat)\(' || true)
nftoa=$(printf '%s' "$ftoa" | grep -c . || true)

# One reorder path: format.Matrix.Reordered runs RCM on the COO and permutes
# the SSS where it lies (SSS.Permute) for the facade, the tuner and the
# harness, leaving COO.Permute to the first reader of the permuted COO; a
# reordered kernel is a kernel on P·A·Pᵀ plus the permutation the facade
# applies once per call.
permuters=$(sources | grep -vE '^\./internal/(format|matrix)/' | xargs grep -lE '\.Permute\(' || true)
npermuters=$(printf '%s' "$permuters" | grep -c . || true)

# One local-vector store and one reduction per method: the lane count is a
# parameter of LocalVectors and of each body, so the nv-wide store, its
# reductions and the SpMM copies of the init, dot and colored assembler stay
# deleted.
lanecopies=$(sources | xargs grep -nE 'wideLocals|ensureWideLocals|reduceMat[A-Z]|diagInitMatT|dotChunkColoredT|assembleColoredMat|fused dot reduces one lane' || true)
nlanecopies=$(printf '%s' "$lanecopies" | grep -c . || true)

# One colored schedule: two phases on the kernel's nnz ranges, proved by
# Verify's one comparison per row. The O(B²) conflict graph, its greedy and
# recursive colorers and the knob that chose between them stay deleted, as do
# the row blocks that replaced them (their count, the blocks-per-thread knob,
# the per-block cells) and the diagonal-init pass they needed.
colorers=$(find . -name '*.go' -not -path './.bench_build/*' | sort |
	xargs grep -nE 'conflictGraph|greedyColor|recursiveColor|levelOrder|refineColors|color\.Algorithm|diagInitT|BlocksPerThread|colorBlocks|NumBlocks' || true)
ncolorers=$(printf '%s' "$colorers" | grep -c . || true)

# One strip grammar: the anti-diagonal pattern, its direction and its decode
# arms stay deleted.
antidiag=$(find . -name '*.go' -not -path './.bench_build/*' | sort | xargs grep -nE 'AntiDiagonal' || true)
nantidiag=$(printf '%s' "$antidiag" | grep -c . || true)

# One traffic account: the per-method bytes of Eqs. (3)–(6) are written once,
# in core.Account (and the fused dot's in ReductionMethod.DotBytes); nothing
# outside internal/core switches over a reduction method to price it again.
methodcases=$(sources | grep -v '^\./internal/core/' |
	xargs grep -nE 'case core\.(Naive|EffectiveRanges|Indexed|Colored)\b' || true)
nmethodcases=$(printf '%s' "$methodcases" | grep -c . || true)

# One ordered fan-out: the Matrix Market reader and the wire codec run their
# blocks through internal/blocks' Pipe, the one place that starts a parse or
# format helper.
spawns=$(grep -nE '(^|[{;])[[:space:]]*go [[:alnum:]_(]' $(echo "$hand" | grep -E '^\./internal/matrix/[^/]*$|^\./internal/serve/wire\.go$') /dev/null || true)
nspawns=$(printf '%s' "$spawns" | grep -c . || true)

# The docs name what exists: every back-quoted internal/... path in DESIGN.md
# and README.md is a file or directory of the tree.
stalepaths=$(grep -ohE '`internal/[^` ]*`' DESIGN.md README.md | tr -d '`' | sort -u |
	while read -r p; do [ -e "$p" ] || echo "$p"; done)
nstalepaths=$(printf '%s' "$stalepaths" | grep -c . || true)
designbytes=$(wc -c <DESIGN.md)
expbytes=$(wc -c <EXPERIMENTS.md)

printf 'hand-written non-test Go lines:            %6d  (limit %d; outside benchmark/)\n' "$lines" "$limit"
printf '  of which package internal/core:          %6d  (+ %d in its generator, internal/core/gen)\n' "$corelines" "$tmpllines"
printf '  of which package internal/csx:           %6d  (limit %d)\n' "$csxlines" "$csxlimit"
printf '  of which package internal/format:        %6d\n' "$formatlines"
printf 'generated non-test Go lines:               %6d  (not gated)\n' "$genlines"
printf 'hand-written ...T bodies in internal/core: %6d  (limit 4)\n' "$bodies"
printf 'generated ...T cells in internal/core:     %6d\n' "$cells"
printf 'generated ...T cells in internal/vec:      %6d  (CG vector bodies)\n' "$veccells"
printf '`type Format` declarations:                %6d  (limit 1)\n' "$enums"
printf 'format-kernel builders outside the table:  %6d  (limit 0)\n' "$nbuilders"
printf 'kernel files timing themselves:            %6d  (limit 0)\n' "$ntimers"
printf 'dispatch forks in internal/parallel:       %6d  (limit 0)\n' "$nforks"
printf 'second execution modes:                    %6d  (limit 0)\n' "$nmodes"
printf 'dropped comparators back in the tree:     %6d  (limit 0)\n' "$ndropped"
printf 'comparator sorts / per-line allocs, set-up:%6d  (limit 0)\n' "$nslow"
printf 'CG iteration loops in internal/cg:         %6d  (limit 1)\n' "$nloops"
printf 'hand-written element loops in internal/vec:%6d  (limit 0)\n' "$nelemloops"
printf 'hand-written product bodies, csr/ and csx/:%5d  (limit 0)\n' "$nproducts"
printf 'SolvePCG / Preconditioner back in the tree:%6d  (limit 0)\n' "$npcg"
printf 'files calling strconv.ParseFloat:          %6d  (limit 1, internal/atof)\n' "$natof"
printf 'internal/serve files formatting with strconv:%4d  (limit 0)\n' "$nftoa"
printf 'files calling .Permute( outside format/matrix:%3d  (limit 0)\n' "$npermuters"
printf 'lane-width copies of the reduction:        %6d  (limit 0)\n' "$nlanecopies"
printf 'conflict graphs / colorers / row blocks:    %6d  (limit 0)\n' "$ncolorers"
printf 'AntiDiagonal / DirAntiDiagonal in Go:      %6d  (limit 0)\n' "$nantidiag"
printf 'reduction-method cases outside core:       %6d  (limit 0)\n' "$nmethodcases"
printf '`go` statements in matrix/, serve/wire.go: %5d  (limit 0)\n' "$nspawns"
printf 'DESIGN.md/README.md paths not in the tree: %6d  (limit 0)\n' "$nstalepaths"
printf 'DESIGN.md bytes:                           %6d  (limit %d)\n' "$designbytes" "$designlimit"
printf 'EXPERIMENTS.md bytes:                      %6d  (limit %d)\n' "$expbytes" "$explimit"

status=0
if [ "$lines" -gt "$limit" ]; then
	echo "loc: $lines hand-written non-test Go lines, over the $limit ratchet (ROADMAP item 13)" >&2
	status=1
fi
if [ "$csxlines" -gt "$csxlimit" ]; then
	echo "loc: $csxlines hand-written non-test Go lines in internal/csx, over its $csxlimit gate" >&2
	status=1
fi
if [ "$bodies" -gt 4 ]; then
	echo "loc: $bodies hand-written per-thread ...T bodies in internal/core, limit 4 (a multiply body is a cell of internal/core/gen; a lane width is a parameter, not a body):" >&2
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
if [ "$nloops" -gt 1 ]; then
	echo "loc: more than one CG iteration loop in internal/cg (a variant or a lane count is a parameter of the one loop):" >&2
	echo "$loops" >&2
	status=1
fi
if [ "$nelemloops" -gt 0 ]; then
	echo "loc: a hand-written element loop in internal/vec (a vector body is a cell of internal/core/gen's template):" >&2
	echo "$elemloops" >&2
	status=1
fi
if [ "$nproducts" -gt 0 ]; then
	echo "loc: a hand-written product body in internal/csr or internal/csx (a body is a cell of internal/core/gen's templates):" >&2
	echo "$products" >&2
	status=1
fi
if [ "$npcg" -gt 0 ]; then
	echo "loc: SolvePCG or a Preconditioner is back (Jacobi is SolveJacobi, Solve's loop):" >&2
	echo "$pcg" >&2
	status=1
fi
if [ "$natof" -gt 1 ] || [ -n "$strayatof" ]; then
	echo "loc: strconv.ParseFloat called outside internal/atof's fallback (read decimals with atof.JSON or atof.Parse):" >&2
	echo "$atof" | xargs grep -nE 'strconv\.ParseFloat\(' >&2
	status=1
fi
if [ "$nftoa" -gt 0 ]; then
	echo "loc: internal/serve formats a float with strconv (write numbers with atof.AppendJSON):" >&2
	echo "$ftoa" >&2
	status=1
fi
if [ "$npermuters" -gt 0 ]; then
	echo "loc: .Permute( called outside internal/format and internal/matrix (reorder with format.Matrix.Reordered; a reordered kernel carries its permutation):" >&2
	echo "$permuters" | xargs grep -nE '\.Permute\(' >&2
	status=1
fi
if [ "$nlanecopies" -gt 0 ]; then
	echo "loc: a second local-vector store, a lane-width copy of a reduction, init, dot or colored assembler, or a one-lane fused dot is back (nv is a parameter of LocalVectors and its bodies):" >&2
	echo "$lanecopies" >&2
	status=1
fi
if [ "$ncolorers" -gt 0 ]; then
	echo "loc: a block conflict graph, a second colorer, the row-block schedule or its diagonal-init is back (the colored schedule is two phases on the nnz ranges; color.Schedule.Verify is its proof):" >&2
	echo "$colorers" >&2
	status=1
fi
if [ "$nantidiag" -gt 0 ]; then
	echo "loc: the anti-diagonal pattern or direction is back (measured out: 0 units on every analog):" >&2
	echo "$antidiag" >&2
	status=1
fi
if [ "$nmethodcases" -gt 0 ]; then
	echo "loc: a reduction method is priced outside internal/core (read core.Account or ReductionMethod.DotBytes):" >&2
	echo "$methodcases" >&2
	status=1
fi
if [ "$nspawns" -gt 0 ]; then
	echo "loc: a go statement in internal/matrix or internal/serve/wire.go (run the blocks through internal/blocks' Pipe):" >&2
	echo "$spawns" >&2
	status=1
fi
if [ "$nstalepaths" -gt 0 ]; then
	echo "loc: DESIGN.md or README.md names an internal/... path that is not in the tree:" >&2
	echo "$stalepaths" >&2
	status=1
fi
if [ "$designbytes" -gt "$designlimit" ] || [ "$expbytes" -gt "$explimit" ]; then
	echo "loc: DESIGN.md ($designbytes B, limit $designlimit) or EXPERIMENTS.md ($expbytes B, limit $explimit) over its ratchet" >&2
	status=1
fi
exit $status
