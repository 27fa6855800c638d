package symspmv

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (DESIGN.md §5 maps each to its experiment), plus
// real-kernel SpM×V wall-clock benchmarks.
//
// Model-backed benchmarks build every data structure for real and report
// the paper's headline series through b.ReportMetric (speedups, Gflop/s,
// densities); host benchmarks time the real kernels on this machine.
//
// The suite scale defaults to 0.02 so `go test -bench=.` stays fast on a
// laptop; set REPRO_BENCH_SCALE=0.125 (or 1.0) for paper-sized runs.

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/cg"
	"repro/internal/core"
	"repro/internal/csx"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
	"repro/internal/stream"
)

func benchScale() float64 {
	if v := os.Getenv("REPRO_BENCH_SCALE"); v != "" {
		if s, err := strconv.ParseFloat(v, 64); err == nil && s > 0 {
			return s
		}
	}
	return 0.02
}

var (
	suiteOnce sync.Once
	suiteVal  []*harness.SuiteMatrix
	suiteErr  error
	suiteCfg  harness.Config
)

func benchSuite(b *testing.B) ([]*harness.SuiteMatrix, harness.Config) {
	b.Helper()
	suiteOnce.Do(func() {
		suiteCfg = harness.Config{Scale: benchScale(), Iterations: 16}
		suiteVal, suiteErr = harness.LoadSuite(suiteCfg)
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteVal, suiteCfg
}

// BenchmarkTableI_CompressionRatios measures CSX-Sym encoding over the suite
// and reports the average compression ratio (paper Table I).
func BenchmarkTableI_CompressionRatios(b *testing.B) {
	suite, _ := benchSuite(b)
	var avgCR float64
	for i := 0; i < b.N; i++ {
		sum := 0.0
		for _, sm := range suite {
			smx := csx.NewSym(sm.S, 16, core.Indexed, csx.DefaultOptions())
			sum += smx.CompressionRatio()
		}
		avgCR = sum / float64(len(suite))
	}
	b.ReportMetric(100*avgCR, "%CR")
}

// BenchmarkTableII_Stream runs the STREAM triad (paper Table II calibration).
func BenchmarkTableII_Stream(b *testing.B) {
	pool := parallel.NewPool(parallel.DefaultThreads())
	defer pool.Close()
	var triad float64
	for i := 0; i < b.N; i++ {
		res := stream.Run(pool, 1<<21, 1)
		triad = stream.GB(res.Triad)
	}
	b.ReportMetric(triad, "GB/s")
}

// BenchmarkFig4_EffectiveDensity runs the symbolic conflict analysis at the
// paper's featured thread counts and reports the suite-average density.
func BenchmarkFig4_EffectiveDensity(b *testing.B) {
	suite, _ := benchSuite(b)
	for _, p := range []int{24, 256} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var avg float64
			for i := 0; i < b.N; i++ {
				sum := 0.0
				for _, sm := range suite {
					_, _, d := core.ConflictIndexDensity(sm.S, p)
					sum += d
				}
				avg = sum / float64(len(suite))
			}
			b.ReportMetric(100*avg, "%density")
		})
	}
}

// BenchmarkFig5_ReductionOverhead builds the three reduction methods at 24
// threads and reports each working-set overhead over the serial SSS traffic.
func BenchmarkFig5_ReductionOverhead(b *testing.B) {
	suite, _ := benchSuite(b)
	for _, method := range []core.ReductionMethod{core.Naive, core.EffectiveRanges, core.Indexed} {
		b.Run(method.String(), func(b *testing.B) {
			pool := parallel.NewPool(24)
			defer pool.Close()
			var overhead float64
			for i := 0; i < b.N; i++ {
				sum := 0.0
				for _, sm := range suite {
					serial := core.SerialTraffic(sm.S)
					k := core.NewKernel(sm.S, method, pool)
					sum += float64(k.Traffic().RedBytes) /
						float64(serial.MultMatrixBytes+serial.MultVectorBytes)
				}
				overhead = sum / float64(len(suite))
			}
			b.ReportMetric(100*overhead, "%overhead")
		})
	}
}

// modeledSpeedup builds fmt at p threads for every suite matrix and reports
// the geometric-mean modeled speedup over serial CSR on pl.
func modeledSpeedup(b *testing.B, f Format, pl perfmodel.Platform, p int) {
	suite, cfg := benchSuite(b)
	pl = pl.WithCacheScale(cfg.Scale)
	var speed float64
	for i := 0; i < b.N; i++ {
		logSum, n := 0.0, 0
		pool := parallel.NewPool(p)
		for _, sm := range suite {
			base := perfmodel.CSRCost(sm.CSR).SerialSeconds(pl)
			cost := harness.Cost(sm, f, pool)
			s := base / cost.Seconds(pl, p)
			if s > 0 {
				logSum += ln(s)
				n++
			}
		}
		pool.Close()
		speed = exp(logSum / float64(n))
	}
	b.ReportMetric(speed, "xCSRserial")
}

// BenchmarkFig9_ReductionMethods reports the Fig. 9 endpoints: modeled
// speedup of the three SSS reduction methods and CSR at each platform's
// featured thread count.
func BenchmarkFig9_ReductionMethods(b *testing.B) {
	for _, f := range []Format{
		CSR, SSSNaive, SSSEffective, SSSIndexed,
	} {
		b.Run("Dunnington24/"+f.String(), func(b *testing.B) {
			modeledSpeedup(b, f, perfmodel.Dunnington, 24)
		})
		b.Run("Gainestown16/"+f.String(), func(b *testing.B) {
			modeledSpeedup(b, f, perfmodel.Gainestown, 16)
		})
	}
}

// BenchmarkFig10_Breakdown reports the modeled reduction share of the
// symmetric SpM×V at 24 threads on Dunnington per method.
func BenchmarkFig10_Breakdown(b *testing.B) {
	suite, cfg := benchSuite(b)
	pl := perfmodel.Dunnington.WithCacheScale(cfg.Scale)
	for _, f := range []Format{
		SSSNaive, SSSEffective, SSSIndexed,
	} {
		b.Run(f.String(), func(b *testing.B) {
			var share float64
			for i := 0; i < b.N; i++ {
				pool := parallel.NewPool(24)
				sum := 0.0
				for _, sm := range suite {
					c := harness.Cost(sm, f, pool)
					sum += c.RedSeconds(pl, 24) / c.Seconds(pl, 24)
				}
				pool.Close()
				share = sum / float64(len(suite))
			}
			b.ReportMetric(100*share, "%reduction")
		})
	}
}

// BenchmarkFig11_CSXSym reports the Fig. 11 endpoints for CSX and CSX-Sym.
func BenchmarkFig11_CSXSym(b *testing.B) {
	for _, f := range []Format{CSX, CSXSym} {
		b.Run("Dunnington24/"+f.String(), func(b *testing.B) {
			modeledSpeedup(b, f, perfmodel.Dunnington, 24)
		})
		b.Run("Gainestown16/"+f.String(), func(b *testing.B) {
			modeledSpeedup(b, f, perfmodel.Gainestown, 16)
		})
	}
}

// BenchmarkFig12_Gflops reports the suite-average modeled Gflop/s at 16
// threads on Gainestown per format (the Fig. 12 bars).
func BenchmarkFig12_Gflops(b *testing.B) {
	suite, cfg := benchSuite(b)
	pl := perfmodel.Gainestown.WithCacheScale(cfg.Scale)
	for _, f := range []Format{
		CSR, CSX, SSSIndexed, CSXSym,
	} {
		b.Run(f.String(), func(b *testing.B) {
			var g float64
			for i := 0; i < b.N; i++ {
				pool := parallel.NewPool(16)
				sum := 0.0
				for _, sm := range suite {
					sum += harness.Cost(sm, f, pool).Gflops(pl, 16)
				}
				pool.Close()
				g = sum / float64(len(suite))
			}
			b.ReportMetric(g, "Gflop/s")
		})
	}
}

// BenchmarkTableIII_RCM measures the full RCM pipeline (reordering +
// re-encoding) and reports the modeled CSX-Sym improvement at 24 threads on
// Dunnington (the Table III headline).
func BenchmarkTableIII_RCM(b *testing.B) {
	suite, cfg := benchSuite(b)
	pl := perfmodel.Dunnington.WithCacheScale(cfg.Scale)
	var improvement float64
	for i := 0; i < b.N; i++ {
		pool := parallel.NewPool(24)
		sum, n := 0.0, 0
		for _, sm := range suite {
			rm, err := sm.Reordered()
			if err != nil {
				b.Fatal(err)
			}
			before := harness.Cost(sm, CSXSym, pool).Seconds(pl, 24)
			after := harness.Cost(rm, CSXSym, pool).Seconds(pl, 24)
			sum += before/after - 1
			n++
		}
		pool.Close()
		improvement = sum / float64(n)
	}
	b.ReportMetric(100*improvement, "%improvement")
}

// BenchmarkFig13_Reordered reports the suite-average modeled Gflop/s of
// CSX-Sym on the RCM-reordered suite (the Fig. 13 bars).
func BenchmarkFig13_Reordered(b *testing.B) {
	suite, cfg := benchSuite(b)
	pl := perfmodel.Gainestown.WithCacheScale(cfg.Scale)
	var g float64
	for i := 0; i < b.N; i++ {
		pool := parallel.NewPool(16)
		sum := 0.0
		for _, sm := range suite {
			rm, err := sm.Reordered()
			if err != nil {
				b.Fatal(err)
			}
			sum += harness.Cost(rm, CSXSym, pool).Gflops(pl, 16)
		}
		pool.Close()
		g = sum / float64(len(suite))
	}
	b.ReportMetric(g, "Gflop/s")
}

// BenchmarkPreprocCost measures real CSX-Sym construction (the §V-E cost)
// per suite matrix.
func BenchmarkPreprocCost(b *testing.B) {
	suite, _ := benchSuite(b)
	for _, sm := range suite {
		b.Run(sm.Spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = csx.NewSym(sm.S, 16, core.Indexed, csx.DefaultOptions())
			}
		})
	}
}

// BenchmarkCSXSymEncode times CSX-Sym construction alone — sampling
// statistics, substructure detection, ctl encoding — on the two matrix
// classes of the perf benchmark (block-banded FEM, scrambled stencil) at a
// tenth of paper size, with the benchmark's two threads.
func BenchmarkCSXSymEncode(b *testing.B) {
	for _, name := range []string{"bmwcra_1", "parabolic_fem"} {
		b.Run(name, func(b *testing.B) {
			spec, err := gen.SpecByName(name)
			if err != nil {
				b.Fatal(err)
			}
			m, err := gen.Generate(spec, 0.1)
			if err != nil {
				b.Fatal(err)
			}
			s, err := core.FromCOO(m)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = csx.NewSym(s, 2, core.Indexed, csx.DefaultOptions())
			}
		})
	}
}

// BenchmarkFig14_CG runs the real CG solver (fixed iterations) on the host
// for the formats Fig. 14 compares, on the first suite matrix.
func BenchmarkFig14_CG(b *testing.B) {
	suite, _ := benchSuite(b)
	sm := suite[0]
	n := sm.S.N
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	for _, f := range []Format{CSR, SSSIndexed, CSXSym} {
		b.Run(f.String(), func(b *testing.B) {
			pool := parallel.NewPool(parallel.DefaultThreads())
			defer pool.Close()
			built := harness.Build(sm, f, pool)
			op := built.Op()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := make([]float64, n)
				benchCG(op, pool, rhs, x)
			}
		})
	}
}

// BenchmarkCGIteration prices one CG iteration of the real solver on one
// SSS-indexed kernel, three ways: the fused two-handoff iteration (MulVecDot
// + CGStep), the unfused three-handoff one (MulVec, Dot, CGStep), and Jacobi
// on the fused iteration with z = D⁻¹·r folded into CGStep's sweeps. Plain
// CG's iterates are bitwise identical fused or not; only the synchronization
// differs. Reports ns per iteration; allocs/op counts a whole solve.
func BenchmarkCGIteration(b *testing.B) {
	suite, _ := benchSuite(b)
	sm := suite[0]
	n := sm.S.N
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	pool := parallel.NewPool(parallel.DefaultThreads())
	defer pool.Close()
	k := core.NewKernel(sm.S, core.Indexed, pool)
	const iters = 16
	opts := cg.Options{MaxIter: iters, FixedIterations: true}
	for _, tc := range []struct {
		name  string
		solve func(x []float64)
	}{
		{"fused", func(x []float64) { _, _ = cg.Solve(k, pool, rhs, x, opts) }},
		{"unfused", func(x []float64) { _, _ = cg.Solve(cg.MulVecFunc(k.MulVec), pool, rhs, x, opts) }},
		{"jacobi", func(x []float64) { _, _ = cg.SolveJacobi(k, sm.S.DValues, pool, rhs, x, opts) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			x := make([]float64, n)
			tc.solve(x) // the kernel's first-use buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(x)
				tc.solve(x)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*iters), "ns/iter")
		})
	}
}

// BenchmarkSpMVDispatch times the symmetric SpM×V per reduction method on a
// small matrix, where the pool's hand-off and the barrier between multiply
// and reduce are a visible fraction of the kernel.
func BenchmarkSpMVDispatch(b *testing.B) {
	suite, _ := benchSuite(b)
	sm := suite[0]
	n := sm.S.N
	for _, method := range []core.ReductionMethod{core.Naive, core.EffectiveRanges, core.Indexed} {
		b.Run(method.String(), func(b *testing.B) {
			pool := parallel.NewPool(parallel.DefaultThreads())
			defer pool.Close()
			k := core.NewKernel(sm.S, method, pool)
			x := make([]float64, n)
			y := make([]float64, n)
			for i := range x {
				x[i] = 1.0 / float64(i+1)
			}
			flops := float64(2 * sm.S.LogicalNNZ())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.MulVec(x, y)
			}
			b.StopTimer()
			gflops := flops * float64(b.N) / b.Elapsed().Seconds() / 1e9
			b.ReportMetric(gflops, "Gflop/s")
		})
	}
}

// BenchmarkSpMV times the real kernels on this host with the §V-A protocol,
// per format, on the first (small, high-bandwidth) and a blocked matrix.
func BenchmarkSpMV(b *testing.B) {
	suite, _ := benchSuite(b)
	picks := suite
	if len(suite) > 3 {
		picks = []*harness.SuiteMatrix{suite[0], suite[2], suite[len(suite)-1]}
	}
	for _, sm := range picks {
		for _, f := range Formats() {
			b.Run(sm.Spec.Name+"/"+f.String(), func(b *testing.B) {
				pool := parallel.NewPool(parallel.DefaultThreads())
				defer pool.Close()
				built := harness.Build(sm, f, pool)
				n := sm.S.N
				x := make([]float64, n)
				y := make([]float64, n)
				for i := range x {
					x[i] = 1.0 / float64(i+1)
				}
				b.SetBytes(built.Bytes)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					built.Mul(x, y)
				}
			})
		}
	}
}

// BenchmarkSpMM measures the multi-vector kernel: streaming the matrix once
// across nv right-hand sides amortizes the dominant matrix traffic, so
// throughput per vector rises with nv (compare ns/op across sub-benches
// divided by the vector count).
func BenchmarkSpMM(b *testing.B) {
	suite, _ := benchSuite(b)
	sm := suite[2] // consph-analog: blocked structural
	s := sm.S
	pool := parallel.NewPool(parallel.DefaultThreads())
	defer pool.Close()
	k := core.NewKernel(s, core.Indexed, pool)
	for _, nv := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("vecs=%d", nv), func(b *testing.B) {
			x := make([]float64, s.N*nv)
			y := make([]float64, s.N*nv)
			for i := range x {
				x[i] = 1.0 / float64(i+1)
			}
			b.SetBytes(int64(2 * 8 * s.N * nv))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.MulMat(x, y, nv)
			}
		})
	}
}

func ln(v float64) float64  { return math.Log(v) }
func exp(v float64) float64 { return math.Exp(v) }

// benchCG runs a short fixed-iteration CG solve with the given operator
// (fused when it implements cg.MulVecDotter).
func benchCG(op cg.MulVecer, pool *parallel.Pool, rhs, x []float64) {
	_, _ = cg.Solve(op, pool, rhs, x, cg.Options{MaxIter: 16, FixedIterations: true})
}
