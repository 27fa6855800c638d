package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/reorder"
)

// randomSymmetric builds a random symmetric lower-stored COO with ~avgRow
// stored off-diagonal entries per row plus a full diagonal.
func randomSymmetric(t testing.TB, rng *rand.Rand, n, avgRow int) *matrix.COO {
	t.Helper()
	m := matrix.NewCOO(n, n, n*(avgRow+1))
	m.Symmetric = true
	for r := 0; r < n; r++ {
		m.Add(r, r, 1+rng.Float64())
		for k := 0; k < avgRow && r > 0; k++ {
			c := rng.Intn(r)
			m.Add(r, c, rng.NormFloat64())
		}
	}
	m.Normalize()
	if err := m.Validate(); err != nil {
		t.Fatalf("generated matrix invalid: %v", err)
	}
	return m
}

func maxRelDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		scale := math.Max(math.Abs(a[i]), math.Abs(b[i]))
		if scale < 1 {
			scale = 1
		}
		if d/scale > worst {
			worst = d / scale
		}
	}
	return worst
}

func TestSerialSSSMatchesCOO(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 17, 100, 733} {
		m := randomSymmetric(t, rng, n, 4)
		s, err := FromCOO(m)
		if err != nil {
			t.Fatalf("n=%d: FromCOO: %v", n, err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		got := make([]float64, n)
		m.MulVec(x, want)
		s.MulVec(x, got)
		if d := maxRelDiff(want, got); d > 1e-12 {
			t.Errorf("n=%d: serial SSS differs from COO reference by %g", n, d)
		}
	}
}

func TestParallelKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 5, 64, 257, 1000} {
		m := randomSymmetric(t, rng, n, 5)
		s, err := FromCOO(m)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		m.MulVec(x, want)

		for _, p := range []int{1, 2, 3, 4, 7, 16} {
			pool := parallel.NewPool(p)
			for _, method := range []ReductionMethod{Naive, EffectiveRanges, Indexed, Colored} {
				k := NewKernel(s, method, pool)
				got := make([]float64, n)
				// Run twice: the second run catches stale local-vector state
				// (locals must be re-zeroed by the reduction).
				k.MulVec(x, got)
				k.MulVec(x, got)
				if d := maxRelDiff(want, got); d > 1e-12 {
					t.Errorf("n=%d p=%d method=%v: differs from reference by %g", n, p, method, d)
				}
			}
			pool.Close()
		}
	}
}

// MulVecDot must produce the same output vector as MulVec (bitwise: the
// phases perform identical float operations) and a dot equal to xᵀ·(A·x).
func TestMulVecDotMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 5, 64, 257, 1000} {
		m := randomSymmetric(t, rng, n, 5)
		s, err := FromCOO(m)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for _, p := range []int{1, 2, 4, 7} {
			pool := parallel.NewPool(p)
			for _, method := range []ReductionMethod{Naive, EffectiveRanges, Indexed, Colored} {
				k := NewKernel(s, method, pool)
				y1 := make([]float64, n)
				y2 := make([]float64, n)
				k.MulVec(x, y1)
				dot := k.MulVecDot(x, y2)
				for i := range y1 {
					if y1[i] != y2[i] {
						t.Fatalf("n=%d p=%d method=%v: y[%d] differs: MulVec %g, MulVecDot %g",
							n, p, method, i, y1[i], y2[i])
					}
				}
				want := 0.0
				for i := range y1 {
					want += x[i] * y1[i]
				}
				if d := math.Abs(dot - want); d > 1e-9*(1+math.Abs(want)) {
					t.Errorf("n=%d p=%d method=%v: dot=%g, want %g", n, p, method, dot, want)
				}
			}
			pool.Close()
		}
	}
}

// The multiply→reduce chain must produce bitwise-identical results whether
// the participants spin (every one has a processor) or the pool is
// oversubscribed and they park and yield: the hand-off changes
// synchronization only, never the float ops.
func TestPhasesBitwiseIdenticalAcrossDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randomSymmetric(t, rng, 600, 5)
	s, err := FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 600)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for _, method := range []ReductionMethod{Naive, EffectiveRanges, Indexed, Colored} {
		results := make([][]float64, 0, 2)
		dots := make([]float64, 0, 2)
		for _, procs := range []int{4, 1} {
			prev := runtime.GOMAXPROCS(procs)
			pool := parallel.NewPool(4)
			k := NewKernel(s, method, pool)
			y := make([]float64, 600)
			k.MulVec(x, y)
			y2 := make([]float64, 600)
			d := k.MulVecDot(x, y2)
			pool.Close()
			runtime.GOMAXPROCS(prev)
			results = append(results, y)
			dots = append(dots, d)
		}
		for i := range results[0] {
			if results[0][i] != results[1][i] {
				t.Fatalf("method=%v: y[%d] differs across GOMAXPROCS: 4 gives %g, 1 gives %g",
					method, i, results[0][i], results[1][i])
			}
		}
		if dots[0] != dots[1] {
			t.Fatalf("method=%v: dot differs across GOMAXPROCS: 4 gives %g, 1 gives %g",
				method, dots[0], dots[1])
		}
	}
}

// The reduction-ordered conflict index must hold the same entry set as the
// canonical (Idx, Vid)-sorted index, with each worker slice grouped into
// per-Vid runs of ascending Idx.
func TestIndexedReductionOrderGroupsByVid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randomSymmetric(t, rng, 700, 6)
	s, err := FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(6)
	defer pool.Close()
	k := NewKernel(s, Indexed, pool)
	lv := k.LV
	if len(lv.redEntries) != len(lv.index) {
		t.Fatalf("redEntries has %d entries, index has %d", len(lv.redEntries), len(lv.index))
	}
	count := func(entries []IndexEntry) map[IndexEntry]int {
		c := make(map[IndexEntry]int, len(entries))
		for _, e := range entries {
			c[e]++
		}
		return c
	}
	for w := 0; w+1 < len(lv.redSplit); w++ {
		lo, hi := lv.redSplit[w], lv.redSplit[w+1]
		a, b := lv.index[lo:hi], lv.redEntries[lo:hi]
		ca, cb := count(a), count(b)
		if len(ca) != len(cb) {
			t.Fatalf("worker %d: entry sets differ", w)
		}
		for e, n := range ca {
			if cb[e] != n {
				t.Fatalf("worker %d: entry %v count %d vs %d", w, e, cb[e], n)
			}
		}
		for i := 1; i < len(b); i++ {
			if b[i].Vid < b[i-1].Vid || (b[i].Vid == b[i-1].Vid && b[i].Idx <= b[i-1].Idx) {
				t.Fatalf("worker %d: redEntries not grouped by (Vid, Idx) at %d: %v, %v",
					w, i, b[i-1], b[i])
			}
		}
	}
}

func TestIndexedSplitDoesNotShareIdx(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomSymmetric(t, rng, 500, 6)
	s, err := FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(8)
	defer pool.Close()
	k := NewKernel(s, Indexed, pool)
	index, split := k.LV.index, k.LV.redSplit
	for w := 0; w+1 < len(split); w++ {
		b := split[w+1]
		if b > 0 && int(b) < len(index) && index[b].Idx == index[b-1].Idx {
			t.Errorf("boundary %d splits idx %d between workers", w, index[b].Idx)
		}
		if split[w] > b {
			t.Errorf("boundaries not monotone: %v", split)
		}
	}
}

func TestEffectiveDensityDecreasesWithThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomSymmetric(t, rng, 4000, 5)
	s, err := FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	prev := 1.1
	for _, p := range []int{2, 8, 32, 128} {
		_, _, d := ConflictIndexDensity(s, p)
		if d <= 0 || d > 1 {
			t.Fatalf("p=%d: density %g out of (0,1]", p, d)
		}
		if d > prev+0.05 { // allow tiny noise; the trend must be downward
			t.Errorf("p=%d: density %g did not decrease (prev %g)", p, d, prev)
		}
		prev = d
	}
}

func TestTrafficWorkingSetEquations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomSymmetric(t, rng, 2048, 4)
	s, err := FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	const p = 8
	pool := parallel.NewPool(p)
	defer pool.Close()

	n := int64(s.N)
	kn := NewKernel(s, Naive, pool)
	if got, want := kn.Traffic().WorkingSetOverhead, int64(8*p)*n; got != want {
		t.Errorf("naive ws: got %d, want 8pN = %d", got, want)
	}
	ke := NewKernel(s, EffectiveRanges, pool)
	if got, want := ke.Traffic().WorkingSetOverhead, 8*ke.EffectiveRegionSize(); got != want {
		t.Errorf("effective ws: got %d, want %d", got, want)
	}
	// Eq. (4) approximation: 4(p-1)N within the imbalance slack.
	approx := float64(4 * (p - 1) * int(n))
	if got := float64(ke.Traffic().WorkingSetOverhead); math.Abs(got-approx)/approx > 0.25 {
		t.Errorf("effective ws %g too far from 4(p-1)N = %g", got, approx)
	}
	ki := NewKernel(s, Indexed, pool)
	if got, want := ki.Traffic().WorkingSetOverhead, int64(16*ki.IndexLen()); got != want {
		t.Errorf("indexed ws: got %d, want 16·E = %d", got, want)
	}

	// On a *banded* matrix the effective regions are sparse and the indexed
	// working set must undercut the effective-ranges one. (On scattered
	// high-bandwidth matrices density can exceed 50% and the inequality
	// legitimately flips — that is the paper's corner case.)
	banded := matrix.NewCOO(2048, 2048, 2048*5)
	banded.Symmetric = true
	for r := 0; r < 2048; r++ {
		banded.Add(r, r, 4)
		for d := 1; d <= 3 && r-d >= 0; d++ {
			banded.Add(r, r-d, -1)
		}
	}
	sb, err := FromCOO(banded.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	kib := NewKernel(sb, Indexed, pool)
	keb := NewKernel(sb, EffectiveRanges, pool)
	if kib.Traffic().WorkingSetOverhead >= keb.Traffic().WorkingSetOverhead {
		t.Errorf("banded: indexed ws (%d) not below effective ws (%d)",
			kib.Traffic().WorkingSetOverhead, keb.Traffic().WorkingSetOverhead)
	}
}

func TestKernelMoreThreadsThanRows(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randomSymmetric(t, rng, 5, 2)
	s, err := FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(16) // p > N
	defer pool.Close()
	x := []float64{1, -2, 3, -4, 5}
	want := make([]float64, 5)
	m.MulVec(x, want)
	for _, method := range []ReductionMethod{Naive, EffectiveRanges, Indexed, Colored} {
		k := NewKernel(s, method, pool)
		got := make([]float64, 5)
		k.MulVec(x, got)
		if d := maxRelDiff(want, got); d > 1e-12 {
			t.Errorf("method=%v with p>N: differs by %g", method, d)
		}
	}
}

// TestSplitEndMatchesScan holds each thread's local frontier to a row-by-row
// scan over every internal/gen matrix at ≤ 6000 rows, in generated and RCM
// order: one past the last row with a column below the thread's first row,
// that first row when none has one, and no such column from there on.
func TestSplitEndMatchesScan(t *testing.T) {
	var mats []*SSS
	var names []string
	for _, suite := range [][]gen.Spec{gen.PaperSuite, gen.HubSuite, gen.ScatterSuite} {
		for _, sp := range suite {
			m, err := gen.Generate(sp, math.Min(0.01, 6000/float64(sp.Rows)))
			if err != nil {
				t.Fatal(err)
			}
			perm, err := reorder.RCM(m)
			if err != nil {
				t.Fatal(err)
			}
			rm, err := m.Permute(perm)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []*matrix.COO{m, rm} {
				s, err := FromCOO(c)
				if err != nil {
					t.Fatal(err)
				}
				mats = append(mats, s)
			}
			names = append(names, sp.Name, sp.Name+"/rcm")
		}
	}
	for _, p := range []int{1, 2, 3, 4, 8} {
		pool := parallel.NewPool(p)
		for i, s := range mats {
			k := NewKernel(s, EffectiveRanges, pool)
			start, end := k.Part.Start, k.Part.End
			if k.splitEnd[0] != start[0] {
				t.Errorf("%s/p=%d: thread 0's frontier is %d, not its first row %d", names[i], p, k.splitEnd[0], start[0])
			}
			for tid := range start {
				want := start[tid]
				for r := start[tid]; r < end[tid]; r++ {
					for _, c := range s.ColIdx[s.RowPtr[r]:s.RowPtr[r+1]] {
						if c < start[tid] {
							want = r + 1
						}
					}
				}
				if got := k.splitEnd[tid]; got != want {
					t.Errorf("%s/p=%d: thread %d's frontier is %d, the scan finds %d", names[i], p, tid, got, want)
				}
				for r := k.splitEnd[tid]; r < end[tid]; r++ {
					if lo := s.RowPtr[r]; lo < s.RowPtr[r+1] && s.ColIdx[lo] < start[tid] {
						t.Errorf("%s/p=%d: row %d past thread %d's frontier stores column %d below %d",
							names[i], p, r, tid, s.ColIdx[lo], start[tid])
					}
				}
			}
		}
		pool.Close()
	}
}
