package perfmodel

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/csx"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// scatteredSym builds a high-bandwidth random symmetric matrix whose x-span
// exceeds the platform caches.
func scatteredSym(t testing.TB, n, avgRow int) (*matrix.COO, *core.SSS) {
	t.Helper()
	rng := rand.New(rand.NewSource(401))
	m := matrix.NewCOO(n, n, n*(avgRow+1))
	m.Symmetric = true
	for r := 0; r < n; r++ {
		m.Add(r, r, 4)
		for k := 0; k < avgRow && r > 0; k++ {
			m.Add(r, rng.Intn(r), rng.NormFloat64())
		}
	}
	m.Normalize()
	s, err := core.FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

func TestCSXCostBelowCSRCost(t *testing.T) {
	m, _ := scatteredSym(t, 3000, 5)
	a := csr.FromCOO(m)
	mx := csx.NewMatrix(m, 4, csx.DefaultOptions())
	cCSR := CSRCost(a)
	cCSX := CSXCost(mx, a)
	if cCSX.MultBytes >= cCSR.MultBytes {
		t.Fatalf("CSX bytes %d not below CSR %d", cCSX.MultBytes, cCSR.MultBytes)
	}
	if cCSX.UsefulFlops != cCSR.UsefulFlops {
		t.Fatalf("useful flops differ: %d vs %d", cCSX.UsefulFlops, cCSR.UsefulFlops)
	}
	if cCSX.XSpanBytes != cCSR.XSpanBytes {
		t.Fatalf("x spans should match (same operator): %d vs %d", cCSX.XSpanBytes, cCSR.XSpanBytes)
	}
}

func TestXExtraBytesAffectsOnlyLargeSpans(t *testing.T) {
	c := SpMVCost{MultBytes: 1 << 20, MultFlops: 1, XAccesses: 1000, XSpanBytes: 1 << 8}
	pl := Gainestown
	base := c.MultSeconds(pl, 4)
	c.XSpanBytes = 1 << 30 // far beyond cache
	withMiss := c.MultSeconds(pl, 4)
	if withMiss <= base {
		t.Fatalf("oversized span did not increase time: %g vs %g", withMiss, base)
	}
}

// newPool wraps parallel.NewPool with cleanup.
func newPool(t testing.TB, p int) *parallel.Pool {
	t.Helper()
	pool := parallel.NewPool(p)
	t.Cleanup(pool.Close)
	return pool
}
