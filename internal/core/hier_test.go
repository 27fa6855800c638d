package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hub"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// hierTolerance is the multi-domain acceptance bound: |y−ref| ≤ 1e-12·Σ|A·x|
// per element, matching the fuzz harness. The hierarchical reduction regroups
// float additions per domain, so exact bitwise equality with the flat path
// only holds on a single domain.
func absSumBound(ref []float64) float64 {
	s := 0.0
	for _, v := range ref {
		s += math.Abs(v)
	}
	return 1e-12 * s
}

func TestHierarchicalMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 3, 40, 257, 600} {
		m := randomSymmetric(t, rng, n, 5)
		s, err := FromCOO(m)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ref := make([]float64, n)
		s.MulVec(x, ref)
		bound := absSumBound(ref)
		for _, domains := range []int{2, 3, 4} {
			for _, p := range []int{domains, 2 * domains, 7} {
				if p < domains {
					continue
				}
				pool := parallel.NewPoolDomains(p, domains)
				for _, method := range []ReductionMethod{Naive, EffectiveRanges, Indexed} {
					k := NewKernel(s, method, pool)
					if !k.Hierarchical() {
						t.Fatalf("n=%d d=%d p=%d %v: kernel not hierarchical", n, domains, p, method)
					}
					y := make([]float64, n)
					for rep := 0; rep < 2; rep++ { // exercise buffer re-zeroing
						k.MulVec(x, y)
						for i := range y {
							if d := math.Abs(y[i] - ref[i]); d > bound {
								t.Fatalf("n=%d d=%d p=%d %v rep=%d: |y[%d]-ref| = %g > %g",
									n, domains, p, method, rep, i, d, bound)
							}
						}
					}
					got := k.MulVecDot(x, y)
					want := 0.0
					for i := range y {
						want += x[i] * y[i]
					}
					if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
						t.Fatalf("n=%d d=%d p=%d %v: MulVecDot = %g, want %g", n, domains, p, method, got, want)
					}
				}
				pool.Close()
			}
		}
	}
}

// TestHierarchicalSingleDomainBitwise asserts the degeneracy contract: a
// single-domain pool never builds the hierarchical plan, so its kernel is the
// flat kernel and produces bit-for-bit identical output.
func TestHierarchicalSingleDomainBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := randomSymmetric(t, rng, 300, 6)
	s, err := FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, s.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	flatPool := parallel.NewPool(6)
	domPool := parallel.NewPoolDomains(6, 1)
	defer flatPool.Close()
	defer domPool.Close()
	// Atomic is excluded: its CAS accumulation order is nondeterministic
	// run to run, so only the deterministic methods admit a bitwise check.
	for _, method := range []ReductionMethod{Naive, EffectiveRanges, Indexed, Colored} {
		kf := NewKernel(s, method, flatPool)
		kd := NewKernel(s, method, domPool)
		if kd.Hierarchical() {
			t.Fatalf("%v: single-domain kernel built a hierarchical plan", method)
		}
		yf := make([]float64, s.N)
		yd := make([]float64, s.N)
		kf.MulVec(x, yf)
		kd.MulVec(x, yd)
		for i := range yf {
			if yf[i] != yd[i] {
				t.Fatalf("%v: y[%d] differs bitwise: %x vs %x", method, i, yf[i], yd[i])
			}
		}
	}
}

// TestFlatReductionOption checks the A/B escape hatch: FlatReduction on a
// multi-domain pool keeps the flat reduction (correct, non-hierarchical)
// while sharing the domain-aligned partition.
func TestFlatReductionOption(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := randomSymmetric(t, rng, 240, 4)
	s, err := FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, s.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ref := make([]float64, s.N)
	s.MulVec(x, ref)
	bound := absSumBound(ref)
	pool := parallel.NewPoolDomains(4, 2)
	defer pool.Close()
	for _, method := range []ReductionMethod{Naive, EffectiveRanges, Indexed} {
		k, err := NewKernelOpts(s, method, pool, KernelOptions{FlatReduction: true})
		if err != nil {
			t.Fatal(err)
		}
		if k.Hierarchical() {
			t.Fatalf("%v: FlatReduction kernel is hierarchical", method)
		}
		kh := NewKernel(s, method, pool)
		if k.Part.Start[0] != kh.Part.Start[0] || k.Part.End[k.p-1] != kh.Part.End[k.p-1] {
			t.Fatalf("%v: flat and hierarchical kernels disagree on the partition", method)
		}
		y := make([]float64, s.N)
		k.MulVec(x, y)
		for i := range y {
			if d := math.Abs(y[i] - ref[i]); d > bound {
				t.Fatalf("%v: flat-on-domains |y[%d]-ref| = %g > %g", method, i, d, bound)
			}
		}
	}
}

// TestHierarchicalHub checks the domain-shared hot-window path against the
// serial reference and against the plain hierarchical kernel.
func TestHierarchicalHub(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m := randomSymmetric(t, rng, 500, 8)
	s, err := FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	plan := hub.Analyze(s.N, s.RowPtr, s.ColIdx, hub.Options{MaxCols: 64, MinDegree: 1, MinCoverage: 0})
	if plan == nil {
		t.Fatal("hub.Analyze returned nil with forced thresholds")
	}
	x := make([]float64, s.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ref := make([]float64, s.N)
	s.MulVec(x, ref)
	bound := absSumBound(ref)
	pool := parallel.NewPoolDomains(6, 3)
	defer pool.Close()
	for _, method := range []ReductionMethod{Naive, EffectiveRanges, Indexed} {
		k, err := NewKernelOpts(s, method, pool, KernelOptions{Hub: plan})
		if err != nil {
			t.Fatal(err)
		}
		if !k.Hierarchical() {
			t.Fatalf("%v: hub kernel not hierarchical", method)
		}
		y := make([]float64, s.N)
		for rep := 0; rep < 2; rep++ {
			k.MulVec(x, y)
			for i := range y {
				if d := math.Abs(y[i] - ref[i]); d > bound {
					t.Fatalf("%v rep=%d: hub hier |y[%d]-ref| = %g > %g", method, rep, i, d, bound)
				}
			}
		}
	}
}

// TestRedCrossBytes checks the modeled cross-domain stream: zero on one
// domain, and strictly smaller for the hierarchical schedule than the flat
// all-to-all on multi-domain pools with ≥ 2 workers per domain
// (naive/effective; ≤ for indexed, whose apply list is deduplicated).
func TestRedCrossBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	m := randomSymmetric(t, rng, 800, 6)
	s, err := FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	single := parallel.NewPool(4)
	defer single.Close()
	if got := NewKernel(s, Naive, single).Traffic().RedCrossBytes; got != 0 {
		t.Fatalf("single domain RedCrossBytes = %d, want 0", got)
	}
	for _, domains := range []int{2, 4} {
		pool := parallel.NewPoolDomains(2*domains, domains)
		for _, method := range []ReductionMethod{Naive, EffectiveRanges, Indexed} {
			hier := NewKernel(s, method, pool).Traffic().RedCrossBytes
			flatK, err := NewKernelOpts(s, method, pool, KernelOptions{FlatReduction: true})
			if err != nil {
				t.Fatal(err)
			}
			flat := flatK.Traffic().RedCrossBytes
			if method == Indexed {
				if hier > flat {
					t.Errorf("d=%d %v: hier cross bytes %d > flat %d", domains, method, hier, flat)
				}
				continue
			}
			if hier >= flat {
				t.Errorf("d=%d %v: hier cross bytes %d not < flat %d", domains, method, hier, flat)
			}
		}
		pool.Close()
	}
}

// TestHierarchicalDomainSampleMatchesHistograms pins the per-domain feed of a
// sampled hierarchical operation: what the hook receives is what the domain
// histograms were fed — per domain, the multiply bucket (hub prefill folded
// in) is the compute time and the intra-combine plus cross-fold buckets the
// reduction time — with one observation per bucket per operation.
func TestHierarchicalDomainSampleMatchesHistograms(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	m := randomSymmetric(t, rng, 900, 6)
	s, err := FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, s.N)
	y := make([]float64, s.N)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	plan := hub.Analyze(s.N, s.RowPtr, s.ColIdx, hub.Options{MaxCols: 64, MinDegree: 1, MinCoverage: 0})
	if plan == nil {
		t.Fatal("hub.Analyze returned nil with forced thresholds")
	}
	const domains = 2
	pool := parallel.NewPoolDomains(4, domains)
	defer pool.Close()
	obs.SetSampling(true)
	t.Cleanup(func() { obs.SetSampling(false) })

	for _, opts := range []KernelOptions{{}, {Hub: plan}} {
		for _, method := range []ReductionMethod{Naive, EffectiveRanges, Indexed} {
			k, err := NewKernelOpts(s, method, pool, opts)
			if err != nil {
				t.Fatal(err)
			}
			var compute, reduction []int64
			k.SetSampleHook(func(ps PhaseSample) {
				compute = append([]int64(nil), ps.DomComputeNs...)
				reduction = append([]int64(nil), ps.DomReductionNs...)
			})
			var sum0 [domains][3]float64
			var count0 [domains][3]int64
			for dd, hists := range k.hier.domHist {
				for b, h := range hists {
					sum0[dd][b], count0[dd][b] = h.Sum(), h.Count()
				}
			}
			k.MulVec(x, y)
			if len(compute) != domains || len(reduction) != domains {
				t.Fatalf("%v hub=%v: hook got %d/%d per-domain times, want %d", method, opts.Hub != nil, len(compute), len(reduction), domains)
			}
			for dd, hists := range k.hier.domHist {
				var fed [3]float64
				for b, h := range hists {
					if got := h.Count() - count0[dd][b]; got != 1 {
						t.Errorf("%v hub=%v domain %d bucket %d: %d observations for one operation", method, opts.Hub != nil, dd, b, got)
					}
					fed[b] = h.Sum() - sum0[dd][b]
				}
				if d := math.Abs(fed[domMultiply] - float64(compute[dd])/1e9); d > 1e-12 {
					t.Errorf("%v hub=%v domain %d: multiply histogram fed %g s, hook compute %d ns", method, opts.Hub != nil, dd, fed[domMultiply], compute[dd])
				}
				if d := math.Abs(fed[domIntra] + fed[domCross] - float64(reduction[dd])/1e9); d > 1e-12 {
					t.Errorf("%v hub=%v domain %d: reduce histograms fed %g s, hook reduction %d ns", method, opts.Hub != nil, dd, fed[domIntra]+fed[domCross], reduction[dd])
				}
				if compute[dd] <= 0 {
					t.Errorf("%v hub=%v domain %d: compute time %d ns", method, opts.Hub != nil, dd, compute[dd])
				}
			}
		}
	}
}
