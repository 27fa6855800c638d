package serve

import (
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"

	"repro/internal/obs"
)

// Request-scoped observability: every admitted request carries an id (the
// caller's W3C traceparent trace-id when one is inbound, a generated one
// otherwise) and a process-unique sequence number. Its handler times the two
// stages it runs itself, decode and encode, and the request is timestamped at
// the three ownership handoffs in between — enqueue, batch pickup, kernel
// dispatch — so the handler's wall time decomposes into decode, queue wait,
// coalescing wait, solve and encode. The decomposition is exported three
// ways: per-stage histograms on /metrics, one structured log line per request
// (written by the handler once the response is out), and (when tracing is
// enabled) coordinator-lane spans sharing a "request" arg, which lets
// perfetto group one request's stages and line them up against the kernel's
// attribution spans.

var (
	reqSeq atomic.Uint64

	spanDecode       = obs.RegisterName("serve/decode")
	spanQueueWait    = obs.RegisterName("serve/queue-wait")
	spanCoalesceWait = obs.RegisterName("serve/coalesce-wait")
	spanSolve        = obs.RegisterName("serve/solve")
	spanEncode       = obs.RegisterName("serve/encode")
	spanArgRequest   = obs.RegisterName("request")
)

// nextSeq returns a process-unique request sequence number (never zero).
func nextSeq() uint64 { return reqSeq.Add(1) }

// requestID extracts the trace-id of an inbound W3C traceparent header
// (00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>), so a caller's
// distributed trace id threads through our logs. Absent or malformed headers
// get a generated id instead.
func requestID(h http.Header) string {
	tp := h.Get("traceparent")
	if len(tp) >= 55 && tp[2] == '-' && tp[35] == '-' {
		id := tp[3:35]
		allHex, nonZero := true, false
		for i := 0; i < 32; i++ {
			c := id[i]
			if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F') {
				allHex = false
				break
			}
			if c != '0' {
				nonZero = true
			}
		}
		// All-zero trace ids are invalid per the W3C spec.
		if allHex && nonZero {
			return id
		}
	}
	return genRequestID()
}

// genRequestID builds a 32-hex-digit id from the monotonic clock and the
// sequence counter — unique within the process and sortable by arrival.
func genRequestID() string {
	return fmt.Sprintf("%016x%016x", uint64(obs.Now()), nextSeq())
}

// reqLogger is the structured per-request logger; SetLogger overrides it
// (cmd/symspmv-serve installs a JSON handler). Nil falls back to
// slog.Default at log time, so early requests are never dropped.
var reqLogger atomic.Pointer[slog.Logger]

// SetLogger installs the structured logger request completions are written
// to.
func SetLogger(l *slog.Logger) { reqLogger.Store(l) }

func logger() *slog.Logger {
	if l := reqLogger.Load(); l != nil {
		return l
	}
	return slog.Default()
}

// stageTimes is the dispatcher-side part of a request's decomposition, in
// nanoseconds; it rides the outcome back to the handler for the log line.
type stageTimes struct{ queue, coalesce, solve int64 }

// observeRequest exports one finished request's dispatcher-side stages.
// Called from request.finish with every handoff timestamp stamped; requests
// that never entered the queue (failed admission) never get here.
func observeRequest(r *request, doneNs int64) stageTimes {
	// Clamp: a request failed before pickup or dispatch has zero timestamps
	// for the later stages.
	pick, disp := r.pickNs, r.dispNs
	if pick == 0 {
		pick = doneNs
	}
	if disp == 0 {
		disp = doneNs
	}
	st := stageTimes{queue: pick - r.enqNs, coalesce: disp - pick, solve: doneNs - disp}

	stageQueueWait.Observe(float64(st.queue) / 1e9)
	stageCoalesceWait.Observe(float64(st.coalesce) / 1e9)
	stageSolve.Observe(float64(st.solve) / 1e9)

	if obs.TracingEnabled() && r.enqNs > 0 {
		seq := int64(r.seq)
		obs.TraceSpanArg(obs.LaneCoordinator, spanQueueWait, r.enqNs, pick, spanArgRequest, seq)
		if disp > pick {
			obs.TraceSpanArg(obs.LaneCoordinator, spanCoalesceWait, pick, disp, spanArgRequest, seq)
		}
		obs.TraceSpanArg(obs.LaneCoordinator, spanSolve, disp, doneNs, spanArgRequest, seq)
	}
	return st
}

// observeStage exports a stage the handler ran itself (decode or encode) and
// returns its length.
func observeStage(r *request, h *obs.Histogram, span obs.NameID, startNs, endNs int64) int64 {
	h.Observe(float64(endNs-startNs) / 1e9)
	obs.TraceSpanArg(obs.LaneCoordinator, span, startNs, endNs, spanArgRequest, int64(r.seq))
	return endNs - startNs
}

// logRequest writes the request's one log line. The handler calls it last, so
// the line covers the whole handler. A caller that gave up before its outcome
// arrived has no dispatcher-side stages to report (they read zero here and
// still reach the histograms when the dispatcher lets the request go).
func logRequest(r *request, out outcome, decodeNs, encodeNs int64) {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	attrs := []any{
		slog.String("request", r.id),
		slog.Uint64("seq", r.seq),
		slog.String("op", r.key.op.String()),
		slog.String("matrix", r.matrix),
		slog.Int("lanes", out.lanes),
		slog.Float64("decode_ms", ms(decodeNs)),
		slog.Float64("queue_wait_ms", ms(out.stages.queue)),
		slog.Float64("coalesce_wait_ms", ms(out.stages.coalesce)),
		slog.Float64("solve_ms", ms(out.stages.solve)),
		slog.Float64("encode_ms", ms(encodeNs)),
	}
	if r.key.op == opSolve {
		attrs = append(attrs,
			slog.Int("iterations", out.iterations),
			slog.Bool("converged", out.converged),
			slog.Float64("residual", out.residual))
	}
	if out.err != nil {
		attrs = append(attrs, slog.String("error", out.err.Error()))
		logger().Error("request failed", attrs...)
	} else {
		logger().Info("request served", attrs...)
	}
}
