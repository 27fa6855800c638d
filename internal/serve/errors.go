// Package serve is the multi-tenant solve service: an HTTP front end over a
// registry of prepared kernels, with per-matrix request coalescing that turns
// concurrent scalar requests into one multi-RHS SpMM / block-CG dispatch.
//
// The layering mirrors the rest of the repo: this package owns policy
// (admission, batching windows, demultiplexing) and delegates every numeric
// operation to the public facade, so a request served through a batch is the
// same computation a standalone cg-solve run would do.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
)

// Typed admission and lifecycle errors. Handlers map these onto HTTP status
// codes via StatusFor; programmatic callers match them with errors.Is.
var (
	// ErrQueueFull: the target matrix's batch queue is at capacity. The
	// request was never admitted; retry after a short backoff (HTTP 429).
	ErrQueueFull = errors.New("serve: matrix queue full")

	// ErrSaturated: the server-wide in-flight cap is reached (HTTP 503).
	ErrSaturated = errors.New("serve: server saturated")

	// ErrDraining: the server is shutting down and admits no new work
	// (HTTP 503). In-flight requests still complete.
	ErrDraining = errors.New("serve: server draining")

	// ErrNotFound: no matrix with the requested id is loaded (HTTP 404).
	ErrNotFound = errors.New("serve: matrix not found")

	// ErrExists: a load request reused an id that is already registered
	// (HTTP 409).
	ErrExists = errors.New("serve: matrix id already loaded")

	// ErrUnloaded: the matrix was unloaded while the request waited in its
	// queue (HTTP 409). The work was not performed.
	ErrUnloaded = errors.New("serve: matrix unloaded during request")

	// ErrKernelPanic: the kernel operation serving the request's batch
	// panicked (HTTP 500). The batcher contained it and keeps serving; other
	// matrices are untouched.
	ErrKernelPanic = errors.New("serve: kernel panicked")

	// ErrNonFinite: the product or solve ran but its result holds a NaN or an
	// infinity — an operand near the float64 range, say — which JSON cannot
	// carry (HTTP 422). Decided before any header is written.
	ErrNonFinite = errors.New("serve: result is not finite")

	// ErrBodyTooLarge: the request body outgrew its cap, the smaller of
	// ServerOptions.MaxBodyBytes and what a vector of the matrix's N rows can
	// take in JSON (HTTP 413).
	ErrBodyTooLarge = errors.New("serve: request body too large")
)

// StatusFor maps an error to its HTTP status code and a stable machine
// code for the JSON error body.
func StatusFor(err error) (status int, code string) {
	var b *badRequest
	if errors.As(err, &b) {
		return http.StatusBadRequest, "bad_request"
	}
	switch {
	case err == nil:
		return http.StatusOK, "ok"
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, "queue_full"
	case errors.Is(err, ErrSaturated):
		return http.StatusServiceUnavailable, "saturated"
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, ErrExists):
		return http.StatusConflict, "exists"
	case errors.Is(err, ErrUnloaded):
		return http.StatusConflict, "unloaded"
	case errors.Is(err, ErrKernelPanic):
		return http.StatusInternalServerError, "kernel_panic"
	case errors.Is(err, ErrNonFinite):
		return http.StatusUnprocessableEntity, "non_finite_result"
	case errors.Is(err, ErrBodyTooLarge):
		return http.StatusRequestEntityTooLarge, "body_too_large"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout, "canceled"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// badRequest is a 400 with a caller-facing message.
type badRequest struct{ msg string }

func (e *badRequest) Error() string { return "serve: bad request: " + e.msg }

// BadRequestf builds a 400-mapped error.
func BadRequestf(format string, args ...any) error {
	return &badRequest{msg: fmt.Sprintf(format, args...)}
}

// IsBadRequest reports whether err maps to HTTP 400.
func IsBadRequest(err error) bool {
	var b *badRequest
	return errors.As(err, &b)
}
