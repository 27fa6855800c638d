package harness

import (
	"repro/internal/format"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
)

// Build constructs format f for the suite matrix at p = pool.Size() threads.
// The suite matrices are symmetric and every format builds on them, so a
// failure is a bug in the format table, not an input condition.
func Build(sm *SuiteMatrix, f format.ID, pool *parallel.Pool) *format.Built {
	b, err := format.Build(&sm.Matrix, f, pool, format.Options{})
	if err != nil {
		panic("harness: building " + f.String() + ": " + err.Error())
	}
	return b
}

// Cost builds format f for the suite matrix on pool and returns its exact
// cost account for the platform model.
func Cost(sm *SuiteMatrix, f format.ID, pool *parallel.Pool) perfmodel.SpMVCost {
	return Build(sm, f, pool).Cost(&sm.Matrix)
}
