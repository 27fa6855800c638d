GO ?= go

.PHONY: all build test race race-color race-colored race-pool vet bench benchmark bench-spmm bench-smoke loc generate-check ci tune-demo telemetry-smoke fuzz-smoke serve-smoke attrib-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-colored focuses the race detector on the conflict-free colored
# schedule: its correctness claim is precisely "no two concurrent blocks
# write the same element", which -race verifies directly against the real
# interleavings.
race-colored:
	$(GO) test -race -run Color ./internal/color ./internal/core .

# race-color stresses the recursive algebraic coloring specifically: the
# level-set construction, the recursive split, the greedy-vs-recursive
# comparison on the scattered suite, and the colored kernels (symmetric and
# kind-generalized) that execute the resulting schedule, repeated so the
# scheduler sees varied interleavings.
race-color:
	$(GO) test -race -count=3 -run 'Color|Recursive|Level' ./internal/color
	$(GO) test -race -run 'Color|Kind' ./internal/core ./internal/fuzzcheck

# race-pool runs the pool and the code that lives on its hand-off at three
# GOMAXPROCS values, so the spinning path (workers with a processor each), the
# yield path and the oversubscribed park-at-once path all meet the race
# detector.
race-pool:
	$(GO) test -race -cpu 1,2,4 ./internal/parallel ./internal/vec ./internal/cg

vet:
	$(GO) vet ./...

# Quick benchmark smoke: the execution-engine microbenchmarks (the pool's
# hand-off, a two-phase list, a bare barrier round) plus the host SpM×V per
# reduction method, the fused CG iteration, and the two CSX decode kernels in
# ns per stored element with the unit mix each ran over.
bench:
	$(GO) test -run xxx -bench 'BenchmarkPoolRun|BenchmarkRunPhases|BenchmarkSpinBarrier' -benchtime 200x ./internal/parallel
	$(GO) test -run xxx -bench 'BenchmarkSpMVDispatch|BenchmarkCGFusion' -benchtime 50x .
	$(GO) test -run xxx -bench BenchmarkDecodeUnits -benchtime 20x -cpu 1 ./internal/csx

# benchmark runs the repository's perf benchmark (BENCHMARK.json): three
# stacked levels — SpM×V, CG solve, HTTP solve — on one workload per run, e.g.
# `make benchmark ARGS="--workload fem-banded --seed 1 --seconds 20 --trace 1"`
# or `ARGS=-aa` for the A/A gate. See benchmark/README.md.
benchmark:
	bash benchmark/run.sh $(ARGS)

# bench-spmm sweeps multi-RHS widths (scalar, spmm2/4/8) over a paper-suite
# subset and prints the table. Scale 0.15 keeps the run short.
bench-spmm:
	$(GO) run ./cmd/spmv-bench -exp spmm-bench -scale 0.15 -iters 24 -matrices consph,bmw7st_1

# bench-smoke is the cheap CI gate for the SpMM fast path: it checks the
# deterministic traffic model — matrix bytes per useful flop must fall
# strictly as the RHS width grows — and runs each blocked width once.
# Wall-clock is deliberately not asserted (CI machines are too noisy).
bench-smoke:
	$(GO) run ./cmd/spmv-bench -exp spmm-smoke -scale 0.01 -matrices consph

# telemetry-smoke runs cg-solve with the metrics endpoint and trace writer
# enabled, scrapes /metrics for the kernel phase histograms, and validates
# the Chrome trace parses — the observability layer end to end.
telemetry-smoke:
	./scripts/telemetry_smoke.sh

# fuzz-smoke is the adversarial gate: the full differential suite (every
# generator case × format × reduction × thread count vs the serial dense
# reference) under the race detector, then each native fuzz target on a short
# budget. Go allows one -fuzz pattern per invocation, hence the loops; the
# checked-in regression corpora under internal/fuzzcheck/testdata/ and
# internal/serve/testdata/ also run on every plain `go test`. The two serve
# targets hold the request scanner of /spmv and /solve to encoding/json;
# FuzzReadMatrixMarket holds the block reader to the line-oriented reader it
# replaced, and its sibling in internal/matrix does the same with the block
# size as a fuzz input, so that block edges fall inside the fuzzed bytes;
# FuzzLoadPlan holds the tuning-cache parser to "a miss or a buildable plan".
fuzz-smoke:
	$(GO) test -race -count=1 ./internal/fuzzcheck/
	for t in FuzzReadMatrixMarket FuzzDecodeBlob FuzzSymDeserialize; do \
		$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime 10s ./internal/fuzzcheck/ || exit 1; \
	done
	$(GO) test -run '^$$' -fuzz '^FuzzReadMatrixMarketBlocks$$' -fuzztime 10s ./internal/matrix/
	for t in FuzzDecodeSolve FuzzDecodeSpMV; do \
		$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime 10s ./internal/serve/ || exit 1; \
	done
	$(GO) test -run '^$$' -fuzz '^FuzzLoadPlan$$' -fuzztime 10s ./internal/autotune/

# attrib-smoke drives the roofline attribution engine end to end: a live
# solve must expose physically plausible achieved-bandwidth fractions per
# (method, phase) on /debug/attrib and /metrics, and a served solve must
# carry its request id (inbound traceparent) and stage timings through the
# structured request log.
attrib-smoke:
	./scripts/attrib_smoke.sh

# generate-check reruns the kernel-body generator (internal/core/gen, one
# template of the lower-row loop) and fails when the checked-in
# internal/core/lowerrow_gen.go is not what it prints.
generate-check:
	$(GO) generate ./internal/core/...
	git diff --exit-code -- internal/core/lowerrow_gen.go

# loc prints the size metrics the ROADMAP wants to go down (hand-written
# non-test Go lines, hand-written per-thread kernel bodies; generated files are
# counted apart) and fails if either passes its ratchet or a
# second format enum, a format-kernel construction outside internal/format, a
# kernel timing itself, a second dispatch path in internal/parallel, a second
# execution mode (domain pools, hub plans), a dropped comparator (the atomic
# reduction method, internal/bcsr, internal/csb), or a comparator sort or
# per-line string on the set-up path has crept back in.
loc:
	./scripts/loc.sh

# serve-smoke drives symspmv-serve end to end: load a generated matrix, show
# that concurrent solves coalesce into multi-RHS dispatches (batch-size
# histogram >= 2 on /metrics) with every lane matching a scalar reference
# solve to 1e-12, that a saturated queue returns typed 429s instead of
# hanging, and that SIGTERM drains cleanly.
serve-smoke:
	./scripts/serve_smoke.sh

# ci is the gate for every change: vet (fails the build on findings), build,
# the generated kernel bodies up to date, the colored-schedule and pool (three
# GOMAXPROCS values) race focuses, the full test suite under the race detector (the execution engine's hand-off,
# spin barrier and phase fusion are exactly the kind of code -race exists
# for), the telemetry smoke, the fuzz smoke
# (differential checking plus a short run of each fuzz target), the SpMM
# traffic-model smoke, the serving-path and attribution smokes, and the
# one-format-table gate (loc).
ci: vet build generate-check loc race-colored race-pool race telemetry-smoke fuzz-smoke bench-smoke serve-smoke attrib-smoke

# tune-demo runs the empirical autotuner on a small slice of the paper suite
# and prints one decision table per matrix: every candidate plan with its
# modeled prediction, measured micro-trial time, build cost, and fate.
tune-demo:
	$(GO) run ./cmd/spmv-bench -format auto -scale 0.05 -matrices parabolic_fem,consph
