GO ?= go

.PHONY: all build test race race-colored race-pool vet bench benchmark loc generate-check ci tune-demo telemetry-smoke fuzz-smoke serve-smoke attrib-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-colored focuses the race detector on the conflict-free colored
# schedule: its correctness claim is precisely "no two ranges in one phase
# write the same element", which -race verifies directly against the real
# interleavings — the schedule builder's property tests, repeated so the
# scheduler sees varied interleavings, and the colored kernels (symmetric and
# kind-generalized) that execute the schedules.
race-colored:
	$(GO) test -race -count=3 -run Color ./internal/color
	$(GO) test -race -run 'Color|Kind' ./internal/core ./internal/fuzzcheck
	$(GO) test -race -run Color .

# race-pool runs the pool and the code that lives on its hand-off at three
# GOMAXPROCS values, so the spinning path (workers with a processor each), the
# yield path and the oversubscribed park-at-once path all meet the race
# detector; and the wire codec's tests at the same three, so its serial path
# (one processor, no helpers) and its oversubscribed block pipeline do too.
race-pool:
	$(GO) test -race -cpu 1,2,4 ./internal/parallel ./internal/vec ./internal/cg
	$(GO) test -race -cpu 1,2,4 -run 'Wire|Decode|Encode|Tokens|RoundTrip|Blocks' ./internal/serve

vet:
	$(GO) vet ./...

# Quick benchmark smoke: the execution-engine microbenchmarks (the pool's
# hand-off, a two-phase list, a bare barrier round) plus the host SpM×V per
# reduction method, every multiply cell and reduction of internal/core run
# serially on the four workload matrices (ns per stored non-zero, and the
# reduction phase alone in µs per operation), the CG iteration (fused,
# unfused, Jacobi: ns/iter and allocs), the CG vector operations in MB/s (scalar and at every block width),
# the two CSX decode kernels in ns per stored element with the unit mix each
# ran over, the two CSX encoders in ns per element and allocs per build, and
# the two doors: a solve body's decode and its response's encode (ns per
# float, allocs; at one processor and at two, so that one binary times the
# serial codec and its block pipeline), the SSS-indexed kernel's set-up (the
# conflict index) on the scattered and banded analogs at p = 2 and 4, and the
# Matrix Market reader in MB/s at one processor and at two (its banded file
# carries 17-digit values, its stencil file short ones); then the sort every permutation goes through (Normalize: sorted, permuted and column-major
# input, and a block band as ToGeneral lays it out and permuted), RCM
# alone and with the COO Permute that applies it, and the reorder set-up
# runs (format.Matrix.Reordered: RCM, then the SSS permuted where it lies).
bench:
	$(GO) test -run xxx -bench 'BenchmarkPoolRun|BenchmarkRunPhases|BenchmarkSpinBarrier' -benchtime 200x ./internal/parallel
	$(GO) test -run xxx -bench 'BenchmarkSpMVDispatch|BenchmarkCGIteration' -benchtime 50x .
	$(GO) test -run xxx -bench BenchmarkLowerRowBodies -benchtime 50x -cpu 1 ./internal/core
	$(GO) test -run xxx -bench BenchmarkVecOps -benchtime 500x ./internal/vec
	$(GO) test -run xxx -bench BenchmarkDecodeUnits -benchtime 20x -cpu 1 ./internal/csx
	$(GO) test -run xxx -bench BenchmarkEncode -benchtime 5x ./internal/csx
	$(GO) test -run xxx -bench 'BenchmarkDecodeSolve|BenchmarkEncodeSolve' -benchtime 20x -cpu 1,2 ./internal/serve
	$(GO) test -run xxx -bench BenchmarkKernelBuild -benchtime 20x ./internal/core
	$(GO) test -run xxx -bench BenchmarkReadMatrixMarket -benchtime 5x -cpu 1,2 ./internal/matrix
	$(GO) test -run xxx -bench BenchmarkNormalize -benchtime 5x ./internal/matrix
	$(GO) test -run xxx -bench BenchmarkRCM -benchtime 5x ./internal/reorder
	$(GO) test -run xxx -bench BenchmarkReordered -benchtime 5x ./internal/format

# benchmark runs the repository's perf benchmark (BENCHMARK.json): three
# stacked levels — SpM×V, CG solve, HTTP solve — on one workload per run, e.g.
# `make benchmark ARGS="--workload fem-banded --seed 1 --seconds 20 --trace 1"`
# or `ARGS=-aa` for the A/A gate. See benchmark/README.md.
benchmark:
	bash benchmark/run.sh $(ARGS)

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
# FuzzDecodeBlocks does the same with the scanner's block size as a fuzz
# input, so that block edges fall inside the fuzzed bytes;
# FuzzReadMatrixMarket holds the block reader to the line-oriented reader it
# replaced, and its sibling in internal/matrix does the same with the block
# size as a fuzz input, so that block edges fall inside the fuzzed bytes;
# FuzzParseFloat holds the decimal reader both doors share to strconv, bit
# for bit, and FuzzAppendJSON the response's float writer to strconv's
# digits in encoding/json's layout, byte for byte; FuzzLoadPlan holds the
# tuning-cache parser to "a miss or a buildable plan".
fuzz-smoke:
	$(GO) test -race -count=1 ./internal/fuzzcheck/
	for t in FuzzReadMatrixMarket FuzzDecodeBlob FuzzSymDeserialize; do \
		$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime 10s ./internal/fuzzcheck/ || exit 1; \
	done
	$(GO) test -run '^$$' -fuzz '^FuzzReadMatrixMarketBlocks$$' -fuzztime 10s ./internal/matrix/
	for t in FuzzParseFloat FuzzAppendJSON; do \
		$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime 10s ./internal/atof/ || exit 1; \
	done
	for t in FuzzDecodeSolve FuzzDecodeSpMV FuzzDecodeBlocks; do \
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

# generate-check reruns the body generator (internal/core/gen: the template of
# the lower-row loop, the one of the block-CG vector bodies and the decimal
# reader's power table) and fails when the checked-in
# internal/core/lowerrow_gen.go, internal/vec/multi_gen.go or
# internal/atof/pow10_gen.go is not what it prints.
generate-check:
	$(GO) generate ./internal/core/...
	git diff --exit-code -- internal/core/lowerrow_gen.go internal/vec/multi_gen.go internal/atof/pow10_gen.go

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
# the generated kernel and vector bodies up to date, the colored-schedule and pool (three
# GOMAXPROCS values) race focuses, the full test suite under the race detector (the execution engine's hand-off,
# spin barrier and phase fusion are exactly the kind of code -race exists
# for; the SpMM traffic-model test is among it), the telemetry smoke, the fuzz
# smoke (differential checking plus a short run of each fuzz target), the
# serving-path and attribution smokes, and the one-format-table gate (loc).
ci: vet build generate-check loc race-colored race-pool race telemetry-smoke fuzz-smoke serve-smoke attrib-smoke

# tune-demo runs the empirical autotuner on a small slice of the paper suite
# and prints one decision table per matrix: every candidate plan with its
# modeled prediction, measured micro-trial time, build cost, and fate.
tune-demo:
	$(GO) run ./cmd/spmv-bench -format auto -scale 0.05 -matrices parabolic_fem,consph
