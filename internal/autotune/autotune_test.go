package autotune

import (
	"math"
	"repro/internal/format"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/perfmodel"
)

// poisson builds the 5-point 2D Poisson operator on a side×side grid — a
// small SPD system with a banded structure every format can encode.
func poisson(t testing.TB, side int) (*matrix.COO, *core.SSS) {
	t.Helper()
	n := side * side
	c := matrix.NewCOO(n, n, 3*n)
	c.Symmetric = true
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			v := i*side + j
			c.Add(v, v, 4)
			if j > 0 {
				c.Add(v, v-1, -1)
			}
			if i > 0 {
				c.Add(v, v-side, -1)
			}
		}
	}
	c.Normalize()
	s, err := core.FromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	return c, s
}

// problem wraps a matrix pair for Tune.
func problem(s *core.SSS, m *matrix.COO) Problem {
	return Problem{Matrix: format.Matrix{S: s, M: m}}
}

// testTuner assembles a tuner the way Tune does, for tests that drive
// build() and modelStage() directly. Callers must closePools.
func testTuner(t testing.TB, pr Problem) *tuner {
	t.Helper()
	pr.Stats = matrix.ComputeStats(pr.M)
	return newTuner(pr, Options{}.withDefaults())
}

func TestThreadCandidates(t *testing.T) {
	cases := []struct {
		max  int
		want []int
	}{
		{1, []int{1}},
		{2, []int{1, 2}},
		{3, []int{1, 2, 3}},
		{4, []int{1, 2, 4}},
		{6, []int{1, 2, 4, 6}},
		{8, []int{1, 2, 4, 8}},
		{0, []int{1}},
	}
	for _, c := range cases {
		got := threadCandidates(c.max)
		if len(got) != len(c.want) {
			t.Fatalf("threadCandidates(%d) = %v, want %v", c.max, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("threadCandidates(%d) = %v, want %v", c.max, got, c.want)
			}
		}
	}
}

func TestTuneChoosesBuildablePlan(t *testing.T) {
	m, s := poisson(t, 40)
	d, err := Tune(problem(s, m), Options{
		MaxThreads: 2,
		TrialIters: 2,
		Rounds:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.CacheHit {
		t.Fatal("fresh Tune reported a cache hit")
	}
	if d.Trials == 0 {
		t.Fatal("Tune ran zero micro-trials")
	}
	if d.Plan.Threads < 1 || d.Plan.Threads > 2 {
		t.Fatalf("plan threads %d outside [1, 2]", d.Plan.Threads)
	}
	chosen := 0
	for _, c := range d.Candidates {
		if c.Status == "chosen" {
			chosen++
			if c.Plan != d.Plan {
				t.Fatalf("chosen candidate %v != decision plan %v", c.Plan, d.Plan)
			}
			if c.MeasuredNs <= 0 {
				t.Fatal("chosen candidate was never measured")
			}
		}
		if c.Status == "" {
			t.Fatalf("candidate %v left without a status", c.Plan)
		}
	}
	if chosen != 1 {
		t.Fatalf("%d chosen candidates, want 1", chosen)
	}
	if d.Report() == "" {
		t.Fatal("empty decision report")
	}
}

func TestTuneFormatRestriction(t *testing.T) {
	m, s := poisson(t, 24)
	d, err := Tune(problem(s, m), Options{
		MaxThreads: 2,
		Formats:    []format.ID{format.CSR, format.SSSIndexed},
		TrialIters: 2,
		Rounds:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Plan.Format != format.CSR && d.Plan.Format != format.SSSIndexed {
		t.Fatalf("plan format %v outside the restricted space", d.Plan.Format)
	}
	for _, c := range d.Candidates {
		if c.Format != format.CSR && c.Format != format.SSSIndexed {
			t.Fatalf("candidate %v outside the restricted space", c.Plan)
		}
	}
}

// TestBuildEveryFormat builds every format the tuner can pick — including
// the RCM-reordered variants — and checks each against the serial SSS
// reference: the in-package half of the cross-format consistency net.
func TestBuildEveryFormat(t *testing.T) {
	m, s := poisson(t, 30)
	n := s.N
	x := make([]float64, n)
	fill(x)
	ref := make([]float64, n)
	s.MulVec(x, ref)

	for _, reorderVariant := range []bool{false, true} {
		tn := testTuner(t, problem(s, m))
		for _, f := range tn.o.Formats {
			plan := Plan{Format: f, Threads: 2, Reorder: reorderVariant}
			b, err := tn.build(plan)
			if err != nil {
				t.Fatalf("build %v: %v", plan, err)
			}
			if b.Bytes <= 0 {
				t.Fatalf("build %v: bytes = %d", plan, b.Bytes)
			}
			y := make([]float64, n)
			b.Mul(x, y)
			for i := range y {
				if math.Abs(y[i]-ref[i]) > 1e-12 {
					t.Fatalf("%v: y[%d] = %g, serial reference %g", plan, i, y[i], ref[i])
				}
			}
		}
		tn.closePools()
	}
}

// TestModelStageKeepsSurvivors checks the pruning floor: at least two
// candidates must always reach the trial stage so the model never makes
// the final call alone.
func TestModelStageKeepsSurvivors(t *testing.T) {
	m, s := poisson(t, 24)
	tn := testTuner(t, problem(s, m))
	tn.pl = perfmodel.Host()
	defer tn.closePools()
	survivors := tn.modelStage()
	if len(survivors) < 2 {
		t.Fatalf("model stage left %d survivors, want >= 2", len(survivors))
	}
	for _, i := range survivors {
		if i < 0 || i >= len(tn.d.Candidates) {
			t.Fatalf("survivor index %d out of range", i)
		}
	}
}

func TestMeasurePositive(t *testing.T) {
	n := 64
	mul := func(x, y []float64) {
		for i := range y {
			y[i] = 0.5 * x[i]
		}
	}
	if ns := measure(mul, n, 4); ns <= 0 {
		t.Fatalf("measure returned %v ns/op", ns)
	}
}
