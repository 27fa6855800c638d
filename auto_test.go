package symspmv

import (
	"math"
	"os"
	"testing"

	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/format"
)

// autoTestOptions keeps AutoKernel tests fast: tiny trial rounds, capped
// threads, and a throwaway cache directory.
func autoTestOptions(t *testing.T) []AutoOption {
	t.Helper()
	return []AutoOption{
		AutoCacheDir(t.TempDir()),
		AutoMaxThreads(2),
		AutoTrialIters(2),
	}
}

// TestAutoKernelCachesDecision is the acceptance criterion for the tuning
// cache: the first AutoKernel call on a matrix searches (trials > 0), the
// second call on the same matrix and cache hits the persisted plan and runs
// zero micro-trials — asserted via the Decision trial counter.
func TestAutoKernelCachesDecision(t *testing.T) {
	A, err := GeneratePoisson2D(40)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := []AutoOption{AutoCacheDir(dir), AutoMaxThreads(2), AutoTrialIters(2)}

	k1, d1, err := AutoKernel(A, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer k1.Close()
	if d1.CacheHit {
		t.Fatal("first AutoKernel call reported a cache hit on an empty cache")
	}
	if d1.Trials == 0 {
		t.Fatal("first AutoKernel call ran zero micro-trials")
	}

	k2, d2, err := AutoKernel(A, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	if !d2.CacheHit {
		t.Fatal("second AutoKernel call missed the tuning cache")
	}
	if d2.Trials != 0 {
		t.Fatalf("second AutoKernel call ran %d micro-trials, want 0 (cached plan)", d2.Trials)
	}
	if d2.Plan != d1.Plan {
		t.Fatalf("cached plan %v != tuned plan %v", d2.Plan, d1.Plan)
	}

	// Both kernels must compute the same operator as the serial reference.
	n := A.N()
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(2*i + 1))
	}
	want := make([]float64, n)
	A.MulVec(x, want)
	for name, k := range map[string]Kernel{"tuned": k1, "cached": k2} {
		y := make([]float64, n)
		k.MulVec(x, y)
		for i := range y {
			if math.Abs(y[i]-want[i]) > 1e-12 {
				t.Fatalf("%s kernel y[%d] = %g, serial %g", name, i, y[i], want[i])
			}
		}
	}
}

func TestAutoKernelNoCache(t *testing.T) {
	A, err := GeneratePoisson2D(24)
	if err != nil {
		t.Fatal(err)
	}
	opts := append(autoTestOptions(t), AutoNoCache())
	for call := 0; call < 2; call++ {
		k, d, err := AutoKernel(A, opts...)
		if err != nil {
			t.Fatal(err)
		}
		k.Close()
		if d.CacheHit || d.Trials == 0 {
			t.Fatalf("call %d with AutoNoCache: CacheHit=%v Trials=%d, want a fresh search",
				call, d.CacheHit, d.Trials)
		}
	}
}

func TestAutoKernelSurvivesCorruptCacheEntry(t *testing.T) {
	A, err := GeneratePoisson2D(24)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := []AutoOption{AutoCacheDir(dir), AutoMaxThreads(2), AutoTrialIters(2)}
	k, _, err := AutoKernel(A, opts...)
	if err != nil {
		t.Fatal(err)
	}
	k.Close()
	// Smash every cache entry; AutoKernel must retune, not fail.
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("expected cache entries in %s (err %v)", dir, err)
	}
	for _, e := range ents {
		if err := os.WriteFile(dir+"/"+e.Name(), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	k2, d2, err := AutoKernel(A, opts...)
	if err != nil {
		t.Fatal(err)
	}
	k2.Close()
	if d2.CacheHit {
		t.Fatal("AutoKernel reported a cache hit from a corrupted entry")
	}
	if d2.Trials == 0 {
		t.Fatal("AutoKernel did not retune after cache corruption")
	}
}

func TestAutoKernelFormatRestriction(t *testing.T) {
	A, err := GeneratePoisson2D(24)
	if err != nil {
		t.Fatal(err)
	}
	k, d, err := AutoKernel(A, append(autoTestOptions(t),
		AutoFormats(SSSIndexed, SSSNaive), AutoReorder(false))...)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if f := d.Plan.Format; f != SSSIndexed && f != SSSNaive {
		t.Fatalf("plan format %v outside the restricted space", f)
	}
	// CSX (unsymmetric) is not in the plan space and must be rejected early.
	if _, _, err := AutoKernel(A, append(autoTestOptions(t), AutoFormats(CSX))...); err == nil {
		t.Fatal("AutoKernel accepted CSX in AutoFormats")
	}
}

// TestAutoKernelColoredPlan is the "-format auto can select and report a
// colored plan" acceptance criterion: restricted to SSS-colored the tuner
// must produce a working colored kernel, report it as such, and keep its
// results on the serial reference.
func TestAutoKernelColoredPlan(t *testing.T) {
	A, err := GeneratePoisson2D(32)
	if err != nil {
		t.Fatal(err)
	}
	k, d, err := AutoKernel(A, append(autoTestOptions(t),
		AutoFormats(SSSColored), AutoReorder(false))...)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if d.Plan.Format != SSSColored {
		t.Fatalf("plan format %v, want SSS-colored", d.Plan.Format)
	}
	if k.Format() != SSSColored {
		t.Fatalf("kernel reports format %v", k.Format())
	}
	n := A.N()
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(5*i + 2))
	}
	want := make([]float64, n)
	A.MulVec(x, want)
	y := make([]float64, n)
	k.MulVec(x, y)
	for i := range y {
		if math.Abs(y[i]-want[i]) > 1e-12*math.Max(1, math.Abs(want[i])) {
			t.Fatalf("colored plan y[%d] = %g, serial %g", i, y[i], want[i])
		}
	}
}

// TestAutotunePlanSpaceConsistency is the cross-format consistency net: on
// each paper-suite matrix (at small scale) every format the autotuner can
// pick — including the RCM-reordered plan variants — must agree with the
// serial CSR-side reference (Matrix.MulVec) to 1e-12.
func TestAutotunePlanSpaceConsistency(t *testing.T) {
	scale := 0.005
	for _, name := range SuiteNames() {
		A, err := GenerateSuiteMatrix(name, scale)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := A.N()
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Cos(float64(3*i + 2))
		}
		want := make([]float64, n)
		A.MulVec(x, want)
		tol := 1e-12
		for _, f := range formatsWith(format.Tuned, core.Sym) {
			for _, reorder := range []bool{false, true} {
				plan := autotune.Plan{Format: f, Threads: 2, Reorder: reorder}
				k, err := A.planKernel(plan)
				if err != nil {
					t.Fatalf("%s: building %v: %v", name, plan, err)
				}
				y := make([]float64, n)
				k.MulVec(x, y)
				k.Close()
				for i := range y {
					if d := math.Abs(y[i] - want[i]); d > tol*math.Max(1, math.Abs(want[i])) {
						t.Fatalf("%s %v: y[%d] = %g, serial %g (|Δ| = %.2e)",
							name, plan, i, y[i], want[i], d)
					}
				}
			}
		}
	}
}

// TestAutoKernelReorderedPlanSolves checks a reordered plan end to end
// through CG: the permutation wrap must keep SolveCG (which type-asserts the
// kernel and uses the fused mul-dot path) converging to the right answer.
func TestAutoKernelReorderedPlanSolves(t *testing.T) {
	A, err := GeneratePoisson2D(30)
	if err != nil {
		t.Fatal(err)
	}
	k, err := A.planKernel(autotune.Plan{Format: SSSIndexed, Threads: 2, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()

	n := A.N()
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	b := make([]float64, n)
	A.MulVec(ones, b)
	x := make([]float64, n)
	res, err := SolveCG(k, b, x, CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG on the reordered kernel did not converge: %+v", res)
	}
	for i := range x {
		if math.Abs(x[i]-1) > 1e-8 {
			t.Fatalf("x[%d] = %g, want 1", i, x[i])
		}
	}
}
