package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	symspmv "repro"
	"repro/internal/cg"
	"repro/internal/color"
	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/csx"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/reorder"
	"repro/internal/stream"
	"repro/internal/vec"
)

// Sample counts of the traced run at the contract's --seconds. The per-layer
// metrics are ungated, so they take fewer samples than the end-to-end ones.
const (
	layerRounds  = 10
	layerKernel  = 100 // per kernel: single MulVec / MulMat / vector-op calls
	layerSolves  = 4   // per solve variant
	layerReqs    = 6   // per single-client request kind
	layerWindows = 13  // throughput windows; 13·8 ≥ 100 latencies, so a p90 has ten samples beyond it
	triadBytes   = 16 << 20
	microBatch   = 200 // calls per sample of a µs-scale operation
)

// op is one timed quantity of the traced run's round loop.
type op struct {
	layer, name string
	fn          func()
	n           int     // samples over the whole run
	per         float64 // calls per sample; a sample's time is divided by it
	s           series
}

func (o *op) gate() float64 { return o.s.gate() }

// spannedOp is a cg operator whose every product the benchmark wraps in a
// span, so a traced solve shows cg's own time apart from the kernel's.
type spannedOp struct {
	parent span
	layer  string
	mul    func(x, y []float64)
	mulDot func(x, y []float64) float64
}

func (o spannedOp) MulVec(x, y []float64) {
	c := o.parent.child(o.layer, "MulVec")
	o.mul(x, y)
	c.end()
}

// fusedOp adds the fused product+dot, which makes cg.Solve take its
// two-handoff iteration.
type fusedOp struct{ spannedOp }

func (o fusedOp) MulVecDot(x, y []float64) float64 {
	c := o.parent.child(o.layer, "MulVecDot")
	d := o.mulDot(x, y)
	c.end()
	return d
}

// layerRun is the state of one traced run: the matrix taken apart into the
// objects of each layer, and the per-layer values collected so far.
type layerRun struct {
	*runner
	in     *inputs
	factor float64
	val    map[string]float64

	main *prepared                             // the facade's set-up, for the facade solves and the service
	pool *parallel.Pool                        // P workers, shared by every layer kernel (one operation at a time)
	one  *parallel.Pool                        // the single-thread baseline's
	kern map[core.ReductionMethod]*core.Kernel // the four SSS reduction methods at P
	idx1 *core.Kernel                          // SSS-indexed on one thread
	csrP *csr.Parallel
	csr1 *csr.Parallel
	sym  *csx.SymMatrix

	pinned   *core.Kernel // the pinned format's core kernel (SSS-indexed where the pinned format is CSX-Sym)
	pinnedMs float64      // gated product time of the pinned format's layer kernel, scalar
	spmm4Ms  float64
	fastest  float64 // fastest measured format's gated product time, for autotune.regret
	iters    int
	scalarS  float64 // gated bare scalar SolveCG, the solve a request runs
}

// perLayer is the traced run: the same matrix taken apart layer by layer,
// every call from the benchmark into a layer inside a span.
func (r *runner) perLayer(in *inputs, factor float64) ([]metric, error) {
	r.tr = newTracer()
	before := readCPUStat()
	l := &layerRun{runner: r, in: in, factor: factor, val: map[string]float64{}}
	defer l.close()
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"setup", l.setup}, {"kernels", l.products}, {"solves", l.solves}, {"autotune", l.autotune}, {"serve", l.serve},
	} {
		stop := r.section(step.name)
		err := step.run()
		stop()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", step.name, err)
		}
	}
	l.val["host.steal_frac"] = stealFrac(before, readCPUStat())
	if l.val["host.steal_frac"] > 0.5 {
		fmt.Fprintln(r.log, "# contended: true")
	}

	tracePath := filepath.Join(r.dir, r.w.name+".trace.json")
	if err := r.tr.writeChrome(tracePath); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(r.log, "# %s seed=%d N=%d nnz=%d format=%v P=%d nv=%d, %d CG iterations; trace in %s\n",
		r.w.name, r.seed, in.n, in.nnz, r.w.format, r.threads, r.w.nv, l.iters, tracePath)
	r.tr.writeSelfTable(r.log)

	names := make([]string, 0, len(l.val))
	for name := range l.val {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]metric, 0, len(names))
	for _, name := range names {
		out = append(out, metric{name, l.val[name], layerUnits[name]})
	}
	return out, nil
}

func (l *layerRun) close() {
	if l.main != nil {
		l.main.k.Close()
	}
	if l.pool != nil {
		l.pool.Close()
		l.one.Close()
	}
}

// timed runs fn inside a child span of parent and returns its seconds.
func timed(parent span, layer, name string, fn func()) float64 {
	c := parent.child(layer, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	c.end()
	return d
}

// setup runs the set-up once through the facade (one root span) and once
// taken apart along the same path, one span per call into a layer.
func (l *layerRun) setup() error {
	w, P, val := l.w, l.threads, l.val
	sp := l.tr.root(0, "bench", "setup")
	main, _, err := l.setupOnce(l.in.path, sp)
	sp.end()
	if err != nil {
		return err
	}
	l.main = main
	if main.perm != nil { // a reordered kernel represents P·A·Pᵀ; move the references there
		refMul(l.in.coo, main.perm, l.in.x, l.in.want, w.nv)
		refMul(l.in.coo, main.perm, l.in.star, l.in.b, w.nv)
	}

	root := l.tr.root(0, "bench", "setup by layer")
	defer root.end()
	var coo *matrix.COO
	val["matrix.mm_read_s"] = timed(root, "matrix", "ReadMatrixMarketFile", func() { coo, err = matrix.ReadMatrixMarketFile(l.in.path) })
	if err != nil {
		return err
	}
	timed(root, "matrix", "Normalize", func() { coo.Normalize() })
	val["reorder.rcm_s"], val["reorder.bandwidth_ratio"] = 0, 1
	if w.rcm {
		before := matrix.ComputeStats(coo).Bandwidth
		var perm []int32
		val["reorder.rcm_s"] = timed(root, "reorder", "RCM", func() { perm, err = reorder.RCM(coo) })
		if err != nil {
			return err
		}
		timed(root, "matrix", "Permute", func() { coo, err = coo.Permute(perm) })
		if err != nil {
			return err
		}
		timed(root, "matrix", "Normalize", func() { coo.Normalize() })
		val["reorder.bandwidth_ratio"] = float64(matrix.ComputeStats(coo).Bandwidth) / float64(before)
	}
	var sss *core.SSS
	val["core.sss_build_s"] = timed(root, "core", "FromCOO", func() { sss, err = core.FromCOO(coo) })
	if err != nil {
		return err
	}
	var part *partition.RowPartition
	val["partition.split_s"] = timed(root, "partition", "ByNNZ", func() { part = partition.ByNNZ(sss.RowPtr, P) })
	val["partition.imbalance"] = part.Imbalance(sss.RowPtr)

	l.pool, l.one = parallel.NewPool(P), parallel.NewPool(1)
	l.kern = map[core.ReductionMethod]*core.Kernel{}
	for _, m := range []core.ReductionMethod{core.Naive, core.EffectiveRanges, core.Indexed, core.Colored} {
		d := timed(root, "core", "NewKernel "+m.String(), func() { l.kern[m] = core.NewKernel(sss, m, l.pool) })
		if m == core.Indexed {
			val["core.kernel_build_s"] = d // the conflict-index build
		}
	}
	l.idx1 = core.NewKernel(sss, core.Indexed, l.one)
	var sched *color.Schedule
	val["color.build_s"] = timed(root, "color", "Build", func() { sched = color.Build(sss.N, sss.RowPtr, sss.ColIdx, P, color.Options{}) })
	val["color.colors"] = float64(sched.NumColors)
	var csrM *csr.Matrix
	val["csr.build_s"] = timed(root, "csr", "FromCOO", func() { csrM = csr.FromCOO(coo) })
	l.csrP, l.csr1 = csr.NewParallel(csrM, l.pool), csr.NewParallel(csrM, l.one)
	val["csx.encode_s"] = timed(root, "csx", "NewSym", func() { l.sym = csx.NewSym(sss, P, core.Indexed, csx.DefaultOptions()) })
	val["csx.bytes_ratio"] = float64(l.sym.Bytes()) / float64(sss.Bytes())

	// The pinned format's core kernel carries the traffic account; CSX-Sym
	// is not a core kernel, so fem-banded reports the indexed one's.
	l.pinned = l.kern[core.Indexed]
	if w.format == symspmv.SSSColored {
		l.pinned = l.kern[core.Colored]
	}
	tf := l.pinned.Traffic()
	val["core.mult_bytes"] = float64(tf.MultMatrixBytes + tf.MultVectorBytes)
	val["core.red_bytes"] = float64(tf.RedBytes)
	val["core.localvec_mb"] = float64(tf.WorkingSetOverhead) / 1e6
	val["core.flop_per_byte"] = float64(tf.TotalFlops()) / float64(tf.TotalBytes())
	return nil
}

func (l *layerRun) symMul(x, y []float64) { l.sym.MulVec(l.pool, x, y) }

// products checks every layer kernel against the reference and then times
// one product of each, the pool and the vector operations in interleaved
// rounds, one root span per sample.
func (l *layerRun) products() error {
	r, in, val, n, nv, pool := l.runner, l.in, l.val, l.in.n, l.w.nv, l.pool
	x1, want1 := lane(in.x, nv, 0), lane(in.want, nv, 0)
	y1 := make([]float64, n)
	x4, y4, want4 := in.x, make([]float64, n*4), in.want
	if nv != 4 {
		x4 = randomVectorSeeded(r.seed, n*4)
		want4 = make([]float64, n*4)
		refMul(in.coo, l.main.perm, x4, want4, 4)
	}
	idx := l.kern[core.Indexed]
	for _, k := range []struct {
		name string
		mul  func(x, y []float64)
	}{
		{"core.naive", l.kern[core.Naive].MulVec}, {"core.effective", l.kern[core.EffectiveRanges].MulVec},
		{"core.indexed", idx.MulVec}, {"core.colored", l.kern[core.Colored].MulVec}, {"core.indexed p=1", l.idx1.MulVec},
		{"csr", l.csrP.MulVec}, {"csr p=1", l.csr1.MulVec}, {"csx.sym", l.symMul},
	} {
		for i := range y1 {
			y1[i] = -1 // a kernel must overwrite, not accumulate
		}
		k.mul(x1, y1)
		d := maxRelDiff(y1, want1)
		r.check(d <= productTol, "%s product differs from the reference by %.3g", k.name, d)
	}
	if err := idx.MulMat(x4, y4, 4); err != nil {
		return err
	}
	d := maxRelDiff(y4, want4)
	r.check(d <= productTol, "core.indexed MulMat nv=4 differs from the reference by %.3g", d)
	dot := idx.MulVecDot(x1, y1)
	r.check(maxRelDiff(y1, want1) <= productTol && relClose(dot, dotRef(x1, want1), 1e-9), "core.indexed MulVecDot: dot %.12g, reference %.12g", dot, dotRef(x1, want1))

	// Operands of the vec-layer operations.
	va, vb, vc, vd := randomVectorSeeded(r.seed+1, n), randomVectorSeeded(r.seed+2, n), make([]float64, n), make([]float64, n)
	m4 := [4][]float64{randomVectorSeeded(r.seed+3, 4*n), randomVectorSeeded(r.seed+4, 4*n), make([]float64, 4*n), make([]float64, 4*n)}
	alpha4, rr4, rrNew4 := []float64{1e-9, 1e-9, 1e-9, 1e-9}, []float64{1, 1, 1, 1}, make([]float64, 4)
	triad, yard := newTriad(r.threads), newYardstick()
	empty := func(int) {}
	var sink float64

	nK := scaled(layerKernel, l.factor, 4)
	kernel := func(layer, name string, fn func()) *op {
		return &op{layer: layer, name: name, fn: fn, n: nK, per: 1}
	}
	micro := func(layer, name string, fn func()) *op {
		return &op{layer: layer, name: name, n: scaled(layerKernel/4, l.factor, 2), per: microBatch, fn: func() {
			for i := 0; i < microBatch; i++ {
				fn()
			}
		}}
	}
	var (
		oNaive   = kernel("core", "naive.MulVec", func() { l.kern[core.Naive].MulVec(x1, y1) })
		oEff     = kernel("core", "effective.MulVec", func() { l.kern[core.EffectiveRanges].MulVec(x1, y1) })
		oIdx     = kernel("core", "indexed.MulVec", func() { idx.MulVec(x1, y1) })
		oCol     = kernel("core", "colored.MulVec", func() { l.kern[core.Colored].MulVec(x1, y1) })
		oIdx1    = kernel("core", "indexed.MulVec p=1", func() { l.idx1.MulVec(x1, y1) })
		oDot     = kernel("core", "indexed.MulVecDot", func() { sink += idx.MulVecDot(x1, y1) })
		oMM4     = kernel("core", "indexed.MulMat nv=4", func() { _ = idx.MulMat(x4, y4, 4) }) // the checked call above took the same arguments
		oSampled = kernel("core", "indexed.MulVec sampled", func() { obs.SetSampling(true); idx.MulVec(x1, y1); obs.SetSampling(false) })
		oCSR     = kernel("csr", "MulVec", func() { l.csrP.MulVec(x1, y1) })
		oCSR1    = kernel("csr", "MulVec p=1", func() { l.csr1.MulVec(x1, y1) })
		oSym     = kernel("csx", "sym.MulVec", func() { l.symMul(x1, y1) })
		oTriad   = kernel("bench", "triad", triad.run)
		oYard    = kernel("bench", "yardstick", func() { yard.run() })
		oVecDot  = kernel("vec", "Dot", func() { sink += vec.Dot(pool, va, vb) })
		oCGStep  = kernel("vec", "CGStep", func() { sink += vec.CGStep(pool, 1e-9, 1, va, vb, vc, vd) })
		oMultiCG = kernel("vec", "MultiCGStep nv=4", func() { vec.MultiCGStep(pool, alpha4, rr4, m4[0], m4[1], m4[2], m4[3], 4, rrNew4) })
		oRun     = micro("parallel", "Run", func() { pool.Run(empty) })
		oPhases2 = micro("parallel", "RunPhases 2", func() { pool.RunPhases(empty, empty) })
		ops      = []*op{oNaive, oEff, oIdx, oCol, oIdx1, oDot, oMM4, oSampled, oCSR, oCSR1, oSym, oTriad, oYard, oVecDot, oCGStep, oMultiCG, oRun, oPhases2}
	)
	for _, o := range ops { // warm-up: the discarded first samples
		for i := 0; i < 3; i++ {
			o.fn()
		}
	}
	rounds := min(layerRounds, nK)
	for round := 0; round < rounds; round++ {
		for _, o := range ops {
			for i := share(o.n, round, rounds); i > 0; i-- {
				sp := r.tr.root(0, o.layer, o.name)
				t0 := time.Now()
				o.fn()
				o.s.add(round, time.Since(t0).Seconds()/o.per)
				sp.end()
			}
		}
	}
	_ = sink

	ms := func(o *op) float64 { return 1e3 * o.gate() }
	val["core.naive.spmv_ms"] = ms(oNaive)
	val["core.effective.spmv_ms"] = ms(oEff)
	val["core.indexed.spmv_ms"] = ms(oIdx)
	val["core.colored.spmv_ms"] = ms(oCol)
	val["core.indexed.spmv1_ms"] = ms(oIdx1)
	val["core.par_speedup"] = oIdx1.gate() / oIdx.gate()
	val["core.spmvdot_ms"] = ms(oDot)
	val["core.spmm4_ms"] = ms(oMM4)
	val["core.spmm4_gain"] = 4 * oIdx.gate() / oMM4.gate()
	val["csr.spmv_ms"] = ms(oCSR)
	val["csr.spmv1_ms"] = ms(oCSR1)
	val["csx.sym_spmv_ms"] = ms(oSym)
	pinnedOp := map[symspmv.Format]*op{symspmv.SSSIndexed: oIdx, symspmv.SSSColored: oCol, symspmv.CSXSym: oSym}[l.w.format]
	l.pinnedMs, l.spmm4Ms = pinnedOp.gate(), oMM4.gate()
	val["core.sym_speedup"] = oCSR.gate() / pinnedOp.gate()
	val["obs.sampling_overhead_rel"] = oSampled.gate() / oIdx.gate()
	triadBest := oTriad.s.summary().best
	val["yardstick.triad_gbps"] = 3 * triadBytes / triadBest / 1e9
	val["yardstick.contention"] = oTriad.s.summary().median / triadBest
	val["yardstick.cpu_ms"] = ms(oYard)
	pinnedCore := oIdx
	if l.w.format == symspmv.SSSColored {
		pinnedCore = oCol
	}
	val["core.achieved_gbps"] = float64(l.pinned.Traffic().TotalBytes()) / pinnedCore.gate() / 1e9
	val["core.roofline_frac"] = val["core.achieved_gbps"] / val["yardstick.triad_gbps"]
	sp := r.tr.root(0, "stream", "Run")
	val["stream.triad_gbps"] = stream.GB(stream.Run(pool, triadBytes/8, 3).Triad)
	sp.end()
	val["parallel.run_us"] = 1e6 * oRun.gate()
	val["parallel.phases2_us"] = 1e6 * oPhases2.gate()
	val["parallel.barrier_us"] = 1e6 * (oPhases2.gate() - oRun.gate())
	val["vec.dot_ms"] = ms(oVecDot)
	val["vec.cgstep_ms"] = ms(oCGStep)
	val["vec.multicgstep4_ms"] = ms(oMultiCG)
	val["vec.gbps"] = 16 * float64(n) / oVecDot.gate() / 1e9
	l.fastest = oCSR.gate()
	for _, o := range []*op{oNaive, oEff, oIdx, oCol, oSym} {
		l.fastest = min(l.fastest, o.gate())
	}
	return nil
}

// solves times four kinds of solve, interleaved: the workload's facade solve
// inside a span and outside (the median of their ratios, pair by pair, is
// bench.span_overhead_rel, what the span around a solve costs; the untraced
// run is another process, so its solve_s is not at hand to divide by), the scalar facade solve a request
// runs, and cg.Solve over the pinned format's layer kernel fused and unfused,
// every product it asks for in a span of its own.
func (l *layerRun) solves() error {
	r, in, n, nv := l.runner, l.in, l.in.n, l.w.nv
	x := make([]float64, n*nv)
	b0, star0, xs := lane(in.b, nv, 0), lane(in.star, nv, 0), make([]float64, n)
	layer, mul, mulDot := "core", l.pinned.MulVec, l.pinned.MulVecDot
	if l.w.format == symspmv.CSXSym {
		layer, mul = "csx", l.symMul
		mulDot = func(x, y []float64) float64 { return l.sym.MulVecDot(l.pool, x, y) }
	}
	byLayer := func(fused bool) (float64, error) {
		for i := range xs {
			xs[i] = 0
		}
		runtime.GC()
		root := r.tr.root(0, "bench", "solve by layer")
		defer root.end()
		c := root.child("cg", map[bool]string{true: "Solve fused", false: "Solve unfused"}[fused])
		defer c.end()
		so := spannedOp{parent: c, layer: layer, mul: mul, mulDot: mulDot}
		var a cg.MulVecer = so
		if fused {
			a = fusedOp{so}
		}
		t0 := time.Now()
		res, err := cg.Solve(a, l.pool, b0, xs, cg.Options{Tol: solveTol})
		dt := time.Since(t0).Seconds()
		if err != nil {
			return 0, err
		}
		d := maxRelDiff(xs, star0)
		r.check(res.Converged && d <= solutionTol, "cg.Solve (fused=%v): converged=%v, ‖x−x*‖∞/‖x*‖∞ = %.3g", fused, res.Converged, d)
		return dt, nil
	}

	var spanRelS, plainS, scalarS, fusedS, unfusedS series
	for i, nS := 0, scaled(layerSolves, l.factor, 2); i <= nS; i++ { // pass 0 warms up, checks and is not recorded
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sp := r.tr.root(0, "bench", "solve")
		c := sp.child("symspmv", "SolveCG")
		traced, err := r.solve(l.main.k, in.b, x)
		c.end()
		sp.end()
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		plain, err := r.solve(l.main.k, in.b, x)
		if err != nil {
			return err
		}
		for j := range xs {
			xs[j] = 0
		}
		runtime.GC()
		sp = r.tr.root(0, "bench", "solve scalar")
		c = sp.child("symspmv", "SolveCG")
		t0 := time.Now()
		_, err = symspmv.SolveCG(l.main.k, b0, xs, symspmv.CGOptions{Tol: solveTol})
		scalar := time.Since(t0).Seconds()
		c.end()
		sp.end()
		if err != nil {
			return err
		}
		fused, err := byLayer(true)
		if err != nil {
			return err
		}
		unfused, err := byLayer(false)
		if err != nil {
			return err
		}
		if i == 0 {
			l.iters = traced.iters
			l.val["cg.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
			d := maxRelDiff(x, in.star)
			r.check(traced.converged && d <= solutionTol, "solve: converged=%v after %d iterations, ‖x−x*‖∞/‖x*‖∞ = %.3g", traced.converged, traced.iters, d)
			continue
		}
		r.check(traced.iters == l.iters && plain.iters == l.iters, "solves took %d and %d iterations, the first took %d", traced.iters, plain.iters, l.iters)
		spanRelS.add(i, traced.seconds/plain.seconds) // back to back, so the pair shares the box's speed of the moment
		plainS.add(i, plain.seconds)
		scalarS.add(i, scalar)
		fusedS.add(i, fused)
		unfusedS.add(i, unfused)
	}
	solve := plainS.gate()
	l.scalarS = scalarS.gate()
	l.val["cg.iters"] = float64(l.iters)
	l.val["cg.iter_ms"] = 1e3 * solve / float64(l.iters)
	perIter := l.pinnedMs
	if nv == 4 {
		perIter = l.spmm4Ms
	}
	l.val["cg.spmv_share"] = float64(l.iters) * perIter / solve
	l.val["cg.fused_gain"] = unfusedS.gate() / fusedS.gate()
	l.val["bench.span_overhead_rel"] = spanRelS.summary().median
	return nil
}

// autotune runs one search against an empty tuning cache and one cache hit.
// The search tunes the scalar product on every workload, so its pick and its
// regret compare against the scalar kernels measured above.
func (l *layerRun) autotune() error {
	r, val, n := l.runner, l.val, l.in.n
	cacheDir := filepath.Join(r.dir, fmt.Sprintf("tunecache.%s.seed%d", r.w.name, r.seed))
	_ = os.RemoveAll(cacheDir) // a missing directory is the normal case
	defer os.RemoveAll(cacheDir)
	auto := []symspmv.AutoOption{symspmv.AutoCacheDir(cacheDir), symspmv.AutoMaxThreads(r.threads)}
	sp := r.tr.root(0, "bench", "autotune")
	defer sp.end()
	var ak, hit symspmv.Kernel
	var dec, hitDec *symspmv.Decision
	var err error
	val["autotune.tune_s"] = timed(sp, "autotune", "AutoKernel search", func() { ak, dec, err = symspmv.AutoKernel(l.main.a, auto...) })
	if err != nil {
		return err
	}
	defer ak.Close()
	val["autotune.cache_hit_s"] = timed(sp, "autotune", "AutoKernel cache hit", func() { hit, hitDec, err = symspmv.AutoKernel(l.main.a, auto...) })
	if err != nil {
		return err
	}
	hit.Close()
	r.check(hitDec.CacheHit && hitDec.Trials == 0, "second AutoKernel: cache hit=%v, %d trials", hitDec.CacheHit, hitDec.Trials)
	val["autotune.trials"] = float64(dec.Trials)
	val["autotune.pick_is_pinned"] = 0
	if ak.Format() == r.w.format {
		val["autotune.pick_is_pinned"] = 1
	}
	x1, want1, y1 := lane(l.in.x, r.w.nv, 0), lane(l.in.want, r.w.nv, 0), make([]float64, n)
	ak.MulVec(x1, y1)
	d := maxRelDiff(y1, want1)
	r.check(d <= productTol, "autotuned %v product differs from the reference by %.3g", ak.Format(), d)
	var s series
	for i, nK := 0, scaled(layerKernel, l.factor, 4); i < nK; i++ {
		t0 := time.Now()
		ak.MulVec(x1, y1)
		s.add(i, time.Since(t0).Seconds())
	}
	val["autotune.regret"] = s.gate() / l.fastest
	fmt.Fprintf(r.log, "# autotune chose %v\n", dec.Plan)
	return nil
}

// serve measures internal/serve: load, the request kinds one at a time, and
// the closed-loop throughput phase with its coalescing factor.
func (l *layerRun) serve() error {
	r, in, val, n, nv := l.runner, l.in, l.val, l.in.n, l.w.nv
	svc, err := startService(r.threads, loadClients)
	if err != nil {
		return err
	}
	defer svc.stop()
	path, err := r.serveFile(in, l.main)
	if err != nil {
		return err
	}
	runtime.GC()
	sp := r.tr.root(0, "serve", "Registry.Load")
	t0 := time.Now()
	err = svc.load(path, r.w.serveFormat, r.threads)
	val["serve.load_s"] = time.Since(t0).Seconds()
	sp.end()
	if err != nil {
		return err
	}

	x1, want1, b0 := lane(in.x, nv, 0), lane(in.want, nv, 0), lane(in.b, nv, 0)
	bodySolve, err := solveBody(b0, solveTol)
	if err != nil {
		return err
	}
	bodyX, err := spmvBody(x1)
	if err != nil {
		return err
	}
	bodyOnes, err := spmvBody(nil)
	if err != nil {
		return err
	}
	if err := r.verifyHTTPSolve(svc, l.main.k, b0, bodySolve); err != nil {
		return err
	}
	var buf bytes.Buffer
	status, err := svc.post("spmv", bodyX, &buf)
	var got spmvReply
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(buf.Bytes(), &got)
	}
	lib := make([]float64, n)
	l.main.k.MulVec(x1, lib)
	r.check(err == nil && status == http.StatusOK && len(got.Y) == n && maxRelDiff(got.Y, lib) <= sameTol && maxRelDiff(got.Y, want1) <= productTol,
		"HTTP spmv: status %d, err %v, %d entries", status, err, len(got.Y))

	var spmvS, onesS, solveS series
	request := func(s *series, round int, op string, body []byte) {
		runtime.GC()
		sp := r.tr.root(0, "serve", "POST "+op)
		t0 := time.Now()
		status, err := svc.post(op, body, &buf)
		s.add(round, time.Since(t0).Seconds())
		sp.end()
		r.check(err == nil && status == http.StatusOK, "%s request: status %d, %v", op, status, err)
	}
	for i, nR := 0, scaled(layerReqs, l.factor, 2); i < nR; i++ {
		request(&spmvS, i, "spmv", bodyX)
		request(&onesS, i, "spmv", bodyOnes)
		request(&solveS, i, "solve", bodySolve)
	}
	val["serve.spmv_req_ms"] = 1e3 * spmvS.gate()
	val["serve.decode_ms"] = 1e3 * (spmvS.gate() - onesS.gate())
	val["serve.solve_overhead_ms"] = 1e3 * (solveS.gate() - l.scalarS)

	svc.runWindow(nil, loadClients, loadClients, "solve", bodySolve) // warm every client connection
	var lat []float64
	lanes, ok := 0, 0
	for i, nW := 0, scaled(layerWindows, l.factor, 2); i < nW; i++ {
		runtime.GC()
		win := r.window(svc, bodySolve)
		lanes += win.lanes
		ok += win.ok
		lat = append(lat, win.lat...)
	}
	val["serve.lanes_mean"] = float64(lanes) / float64(max(ok, 1))
	sort.Float64s(lat)
	val["serve.req_p50_ms"] = 1e3 * quantile(lat, 0.5)
	val["serve.req_p90_ms"] = 1e3 * quantile(lat, 0.9)
	val["serve.rejected"], err = svc.rejected()
	return err
}

// triadLoop is the benchmark's own bandwidth yardstick: a[i] = b[i] + s·c[i]
// over three 16 MiB arrays on P goroutines, the STREAM triad. The arrays are
// far larger than L2 and, on a host whose L3 is shared with other tenants,
// as far out of cache as a container can arrange.
type triadLoop struct {
	p       int
	a, b, c []float64
}

func newTriad(p int) *triadLoop {
	n := triadBytes / 8
	t := &triadLoop{p: p, a: make([]float64, n), b: make([]float64, n), c: make([]float64, n)}
	for i := range t.b {
		t.b[i], t.c[i] = 1, 2
	}
	return t
}

func (t *triadLoop) run() {
	var wg sync.WaitGroup
	n := len(t.a)
	for g := 0; g < t.p; g++ {
		lo, hi := g*n/t.p, (g+1)*n/t.p
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, b, c := t.a[lo:hi], t.b[lo:hi], t.c[lo:hi]
			for i := range a {
				a[i] = b[i] + 3*c[i]
			}
		}()
	}
	wg.Wait()
}
