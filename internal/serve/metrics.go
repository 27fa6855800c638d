package serve

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Service-wide metrics, registered once on obs.Default so they ride the
// existing /metrics Prometheus endpoint. Per-matrix request counters are
// created at load time (see Registry.Load) because their label value is the
// matrix id.
var (
	// batchSize observes the number of real (caller-backed) lanes in every
	// kernel dispatch. A histogram over {1..8}: bucket counts above 1 are
	// direct evidence of coalescing, which is what the smoke test greps for.
	batchSize = obs.NewHistogram("symspmv_serve_batch_size",
		"real request lanes per kernel dispatch",
		[]float64{1, 2, 3, 4, 5, 6, 7, 8})

	// queueDepth observes the per-matrix queue occupancy at each admission.
	queueDepth = obs.NewHistogram("symspmv_serve_queue_depth",
		"matrix queue depth observed at enqueue",
		[]float64{0, 1, 2, 4, 8, 16, 32, 64, 128})

	dispatches = obs.NewCounter("symspmv_serve_dispatches_total",
		"kernel dispatches (batched or scalar)")

	// batchedLanes counts lanes served inside a multi-lane dispatch;
	// totalLanes counts every lane served. Their ratio is the coalescing
	// efficiency gauge below.
	batchedLanes = obs.NewCounter("symspmv_serve_batched_lanes_total",
		"request lanes served by dispatches with >= 2 real lanes")
	totalLanes = obs.NewCounter("symspmv_serve_lanes_total",
		"request lanes served by any dispatch")

	coalescingEff = obs.NewGauge("symspmv_serve_coalescing_efficiency",
		"fraction of served lanes that shared a matrix stream with another request")

	inflight = obs.NewGauge("symspmv_serve_inflight",
		"requests admitted and not yet answered")

	rejectedQueueFull = obs.NewCounter("symspmv_serve_rejected_total",
		"rejected requests", "reason", "queue_full")
	rejectedSaturated = obs.NewCounter("symspmv_serve_rejected_total",
		"rejected requests", "reason", "saturated")
	rejectedDraining = obs.NewCounter("symspmv_serve_rejected_total",
		"rejected requests", "reason", "draining")

	// Per-request stage decomposition (reqtrace.go): decode (reading and
	// scanning the body), queue wait (enqueue → batch pickup), coalescing wait
	// (pickup → kernel dispatch; zero for solo requests), solve (dispatch →
	// outcome) and encode (streaming the response).
	stageDecode = obs.NewHistogram("symspmv_serve_stage_seconds",
		"request latency by stage", obs.DurationBuckets, "stage", "decode")
	stageQueueWait = obs.NewHistogram("symspmv_serve_stage_seconds",
		"request latency by stage", obs.DurationBuckets, "stage", "queue_wait")
	stageCoalesceWait = obs.NewHistogram("symspmv_serve_stage_seconds",
		"request latency by stage", obs.DurationBuckets, "stage", "coalesce_wait")
	stageSolve = obs.NewHistogram("symspmv_serve_stage_seconds",
		"request latency by stage", obs.DurationBuckets, "stage", "solve")
	stageEncode = obs.NewHistogram("symspmv_serve_stage_seconds",
		"request latency by stage", obs.DurationBuckets, "stage", "encode")

	spmvOK     = obs.NewCounter("symspmv_serve_requests_total", "requests by op and outcome", "op", "spmv", "outcome", "ok")
	spmvErr    = obs.NewCounter("symspmv_serve_requests_total", "requests by op and outcome", "op", "spmv", "outcome", "error")
	solveOK    = obs.NewCounter("symspmv_serve_requests_total", "requests by op and outcome", "op", "solve", "outcome", "ok")
	solveErr   = obs.NewCounter("symspmv_serve_requests_total", "requests by op and outcome", "op", "solve", "outcome", "error")
	loadsTotal = obs.NewCounter("symspmv_serve_loads_total", "matrices loaded over the server lifetime")
)

// recordDispatch updates the batch-size histogram and the coalescing
// efficiency gauge after a dispatch of `lanes` real requests.
func recordDispatch(lanes int) {
	dispatches.Inc()
	batchSize.Observe(float64(lanes))
	totalLanes.Add(int64(lanes))
	if lanes >= 2 {
		batchedLanes.Add(int64(lanes))
	}
	if t := totalLanes.Value(); t > 0 {
		coalescingEff.Set(float64(batchedLanes.Value()) / float64(t))
	}
}

func recordOutcome(op opKind, err error) {
	switch {
	case op == opSpMV && err == nil:
		spmvOK.Inc()
	case op == opSpMV:
		spmvErr.Inc()
	case err == nil:
		solveOK.Inc()
	default:
		solveErr.Inc()
	}
}

// inflightGauge tracks the admitted-but-unanswered request count; the obs
// Gauge stores a float, so keep the authoritative integer here.
var inflightCount atomic.Int64

func inflightAdd(d int64) { inflight.Set(float64(inflightCount.Add(d))) }
