#!/usr/bin/env bash
# Telemetry smoke test: run cg-solve with the metrics endpoint and the trace
# writer enabled, scrape /metrics for a known metric family, and validate the
# emitted Chrome trace parses as JSON with at least one event. Exercises the
# full observability path end to end (sampling flag → timed kernel phases →
# registry → HTTP exposition, and tracer → trace_event file).
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR=127.0.0.1:9464
TMP=$(mktemp -d)
PID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

echo "telemetry-smoke: generating test matrix"
go run ./cmd/mtx-gen -out "$TMP" -scale 0.01 -matrices parabolic_fem
MTX=$(ls "$TMP"/*.mtx | head -1)

echo "telemetry-smoke: building cg-solve"
go build -o "$TMP/cg-solve" ./cmd/cg-solve

echo "telemetry-smoke: solving with -metrics-addr $ADDR -trace-out"
"$TMP/cg-solve" -format sss-idx -threads 2 -metrics-addr "$ADDR" \
    -trace-out "$TMP/trace.json" -linger 30s "$MTX" &
PID=$!

# Poll /metrics until the endpoint is up and the solve has recorded kernel ops.
METRICS=""
for _ in $(seq 1 60); do
    if METRICS=$(curl -fsS "http://$ADDR/metrics" 2>/dev/null) &&
        grep -q '^symspmv_spmv_ops_total{method="indexed"} [1-9]' <<<"$METRICS"; then
        break
    fi
    METRICS=""
    sleep 0.5
done
if [ -z "$METRICS" ]; then
    echo "telemetry-smoke: FAIL: /metrics never served symspmv_spmv_ops_total" >&2
    exit 1
fi
for family in symspmv_spmv_phase_seconds_bucket symspmv_cg_iterations_total symspmv_pool_handoffs_total; do
    if ! grep -q "^$family" <<<"$METRICS"; then
        echo "telemetry-smoke: FAIL: /metrics missing $family" >&2
        exit 1
    fi
done
echo "telemetry-smoke: /metrics OK ($(grep -c '^symspmv_' <<<"$METRICS") symspmv sample lines)"

# The trace file is written right after the solve, before the linger window.
TRACE_OK=""
for _ in $(seq 1 60); do
    if [ -s "$TMP/trace.json" ] &&
        jq -e '.traceEvents | length > 0' "$TMP/trace.json" >/dev/null 2>&1; then
        TRACE_OK=1
        break
    fi
    sleep 0.5
done
if [ -z "$TRACE_OK" ]; then
    echo "telemetry-smoke: FAIL: trace file absent, empty, or not valid trace JSON" >&2
    exit 1
fi
echo "telemetry-smoke: trace OK ($(jq '.traceEvents | length' "$TMP/trace.json") events)"

kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
PID=""

# The sampler lives in the pool, so a non-SSS format and the CG vector ops
# must show up in the same families with no telemetry code of their own.
echo "telemetry-smoke: solving with -format csx-sym"
"$TMP/cg-solve" -format csx-sym -threads 2 -metrics-addr "$ADDR" -linger 30s "$MTX" &
PID=$!
METRICS=""
for _ in $(seq 1 60); do
    if METRICS=$(curl -fsS "http://$ADDR/metrics" 2>/dev/null) &&
        grep -q '^symspmv_spmv_ops_total{method="csx-sym"} [1-9]' <<<"$METRICS"; then
        break
    fi
    METRICS=""
    sleep 0.5
done
if [ -z "$METRICS" ]; then
    echo "telemetry-smoke: FAIL: /metrics never served symspmv_spmv_ops_total{method=\"csx-sym\"}" >&2
    exit 1
fi
for series in 'symspmv_spmv_phase_seconds_count{method="csx-sym",phase="reduction"} [1-9]' \
    'symspmv_vec_ops_total{method="cgstep"} [1-9]' 'symspmv_pool_serial_fraction [0-9]'; do
    if ! grep -q "^$series" <<<"$METRICS"; then
        echo "telemetry-smoke: FAIL: /metrics missing $series" >&2
        exit 1
    fi
done
echo "telemetry-smoke: csx-sym phase histogram and vec ops OK"

kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
PID=""
echo "telemetry-smoke: PASS"
