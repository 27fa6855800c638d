package cg

import "fmt"

// BreakdownError reports that the CG recurrence cannot continue: a scalar
// the update formulas divide by (pᵀ·Ap, or rᵀ·z for PCG) is zero, negative
// (the operator is not positive definite along the search direction), or
// non-finite, or the residual itself has gone NaN/Inf. Before this type
// existed the solvers only handled pap <= 0 — and a NaN fails that
// comparison, so a single non-finite matrix entry made them silently iterate
// on NaN until MaxIter while reporting Converged=false with no hint why.
//
// The Result returned alongside a BreakdownError is still meaningful: it
// counts the iterations completed before the breakdown and carries the phase
// timings, and x holds the last finite iterate (the update that would have
// poisoned it is never applied).
type BreakdownError struct {
	Iteration int     // 0-based iteration at which the breakdown was detected
	Lane      int     // the first offending lane of a block solve; 0 for one right-hand side
	Quantity  string  // the offending scalar: "pAp", "rz", "residual"
	Value     float64 // its value

	lanes int // the solve's lane count: the text names the lane only when it is > 1
}

func (e *BreakdownError) Error() string {
	if e.lanes > 1 {
		return fmt.Sprintf("cg: breakdown at iteration %d, lane %d: %s = %g", e.Iteration, e.Lane, e.Quantity, e.Value)
	}
	return fmt.Sprintf("cg: breakdown at iteration %d: %s = %g", e.Iteration, e.Quantity, e.Value)
}
