package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	symspmv "repro"
)

// Tolerances of the correctness checks.
const (
	solveTol    = 1e-8  // CG relative-residual target, library and HTTP
	productTol  = 1e-10 // ‖A·x − reference‖∞ / ‖reference‖∞
	solutionTol = 1e-5  // ‖x − x*‖∞ / ‖x*‖∞ after a converged solve; observed up to 2.2e-6 (Poisson), below 1e-6 on the suite matrices
	sameTol     = 1e-12 // HTTP answer vs the library's for the same input
)

// loadClients is C, the closed-loop client count of the throughput phase:
// the fewest with which two requests can be waiting when a dispatch ends, so
// that the batcher coalesces at all (with two they ping-pong at one lane).
const loadClients = 4

type metric struct {
	name  string
	value float64
	unit  string
}

// runner carries one benchmark run of one workload.
type runner struct {
	w       workload
	seed    int64
	threads int // P, the kernel thread count
	dir     string
	tr      *tracer // nil on the untraced run
	log     io.Writer

	attempted, failed int

	wall      map[string]time.Duration // wall-clock per section of the run, printed so the run length can be budgeted
	wallOrder []string
}

// section starts the wall clock of a named section of the run; the returned
// func stops it.
func (r *runner) section(name string) func() {
	t0 := time.Now()
	return func() {
		if r.wall == nil {
			r.wall = map[string]time.Duration{}
		}
		if _, seen := r.wall[name]; !seen {
			r.wallOrder = append(r.wallOrder, name)
		}
		r.wall[name] += time.Since(t0)
	}
}

// printWall prints the section wall clocks.
func (r *runner) printWall() {
	fmt.Fprintf(r.log, "# wall clock:")
	for _, name := range r.wallOrder {
		fmt.Fprintf(r.log, " %s %.1fs", name, r.wall[name].Seconds())
	}
	fmt.Fprintln(r.log)
}

// check counts one verified output or operation.
func (r *runner) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
	}
}

// prepared is the product of one set-up: what a user holds once the matrix
// file has become a kernel ready to multiply.
type prepared struct {
	a    *symspmv.Matrix
	k    symspmv.Kernel
	perm []int32 // RCM permutation (perm[old] = new) on the reordered workload
}

// setupOnce is the timed set-up path, through the public facade only:
// Matrix Market file on disk → (RCM) → kernel in the pinned format at P.
func (r *runner) setupOnce(path string, root span) (*prepared, float64, error) {
	runtime.GC()
	t0 := time.Now()
	var p prepared
	var err error
	root.in("symspmv", "ReadMatrixMarketFile", func() { p.a, err = symspmv.ReadMatrixMarketFile(path) })
	if err != nil {
		return nil, 0, err
	}
	if r.w.rcm {
		root.in("symspmv", "ReorderRCM", func() { p.a, p.perm, err = p.a.ReorderRCM() })
		if err != nil {
			return nil, 0, err
		}
	}
	root.in("symspmv", "Matrix.Kernel", func() { p.k, err = p.a.Kernel(r.w.format, symspmv.Threads(r.threads)) })
	if err != nil {
		return nil, 0, err
	}
	return &p, time.Since(t0).Seconds(), nil
}

// mul is the workload's timed product: MulVec, or MulMat above one lane.
func (r *runner) mul(k symspmv.Kernel, x, y []float64) error {
	if r.w.nv == 1 {
		k.MulVec(x, y)
		return nil
	}
	return symspmv.MulMat(k, x, y, r.w.nv)
}

type solveOutcome struct {
	seconds   float64
	iters     int
	converged bool
}

// solve is the workload's timed solve from x₀ = 0: SolveCG, or SolveCGBlock
// above one lane. x is overwritten with the solution.
func (r *runner) solve(k symspmv.Kernel, b, x []float64) (solveOutcome, error) {
	for i := range x {
		x[i] = 0
	}
	runtime.GC()
	opts := symspmv.CGOptions{Tol: solveTol}
	t0 := time.Now()
	if r.w.nv == 1 {
		res, err := symspmv.SolveCG(k, b, x, opts)
		return solveOutcome{time.Since(t0).Seconds(), res.Iterations, res.Converged}, err
	}
	res, err := symspmv.SolveCGBlock(k, b, x, r.w.nv, opts)
	return solveOutcome{time.Since(t0).Seconds(), res.Iterations, res.AllConverged()}, err
}

// scaled applies --seconds to a base count, keeping at least lo samples.
func scaled(base int, factor float64, lo int) int {
	n := int(math.Round(float64(base) * factor))
	if n < lo {
		n = lo
	}
	return n
}

// endToEnd measures the six end-to-end metrics with interleaved rounds, the
// yardstick in every round beside every quantity.
func (r *runner) endToEnd(in *inputs, factor float64) ([]metric, error) {
	w, c := r.w, r.w.counts
	nSetup := scaled(c.setup, factor, 2)
	nSpmv := scaled(c.spmv, factor, 4)
	nSolve := scaled(c.solve, factor, 2)
	nReq := scaled(c.req, factor, 2)
	nWin := scaled(c.windows, factor, 2)
	rounds := nWin // one throughput window per round

	// The first set-up is a sample like the others and also yields the
	// long-lived kernel the rest of the run multiplies and solves with.
	var setupS, spmvS, solveS, reqS, yardS series
	rateS := series{higherBetter: true}
	yard := newYardstick()
	stop := r.section("checks")
	main, secs, err := r.setupOnce(in.path, span{})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer main.k.Close()
	setupS.add(0, secs)

	// A reordered kernel represents P·A·Pᵀ; move the references there.
	if main.perm != nil {
		refMul(in.coo, main.perm, in.x, in.want, w.nv)
		refMul(in.coo, main.perm, in.star, in.b, w.nv)
	}
	n, nv := in.n, w.nv
	r.check(main.a.N() == n && main.a.NNZ() == in.nnz, "matrix read back as N=%d nnz=%d, generated N=%d nnz=%d", main.a.N(), main.a.NNZ(), n, in.nnz)

	// Product check, then warm-up (the discarded first samples).
	y := make([]float64, n*nv)
	if err := r.mul(main.k, in.x, y); err != nil {
		return nil, err
	}
	d := maxRelDiff(y, in.want)
	r.check(d <= productTol, "%v product differs from the reference by %.3g", w.format, d)
	for i := 0; i < 3; i++ {
		if err := r.mul(main.k, in.x, y); err != nil {
			return nil, err
		}
	}

	// Solve check and warm-up; its iteration count is the one every later
	// solve of the run must repeat.
	x := make([]float64, n*nv)
	first, err := r.solve(main.k, in.b, x)
	if err != nil {
		return nil, fmt.Errorf("solve: %w", err)
	}
	solErr := maxRelDiff(x, in.star)
	r.check(first.converged && solErr <= solutionTol, "solve: converged=%v after %d iterations, ‖x−x*‖∞/‖x*‖∞ = %.3g", first.converged, first.iters, solErr)

	// The HTTP layer: the same matrix file behind internal/serve with the
	// same pinned format (the reordered workload serves the reordered file).
	svc, err := startService(r.threads, loadClients)
	if err != nil {
		return nil, err
	}
	defer svc.stop()
	servePath, err := r.serveFile(in, main)
	if err != nil {
		return nil, err
	}
	if err := svc.load(servePath, w.serveFormat, r.threads); err != nil {
		return nil, fmt.Errorf("serve load: %w", err)
	}
	b0 := lane(in.b, nv, 0)
	body, err := solveBody(b0, solveTol)
	if err != nil {
		return nil, err
	}
	if err := r.verifyHTTPSolve(svc, main.k, b0, body); err != nil {
		return nil, err
	}
	svc.runWindow(nil, loadClients, loadClients, "solve", body) // warm every client connection
	stop()

	var buf bytes.Buffer
	lanesSum := 0
	quantities := []struct {
		name   string
		n      int
		sample func(round int) error
	}{
		{"setup", nSetup - 1, func(round int) error {
			p, secs, err := r.setupOnce(in.path, span{})
			if err != nil {
				return err
			}
			p.k.Close()
			setupS.add(round, secs)
			return nil
		}},
		{"spmv", nSpmv, func(round int) error {
			t0 := time.Now()
			err := r.mul(main.k, in.x, y)
			spmvS.add(round, time.Since(t0).Seconds())
			return err
		}},
		{"solve", nSolve, func(round int) error {
			o, err := r.solve(main.k, in.b, x)
			if err != nil {
				return err
			}
			r.check(o.converged && o.iters == first.iters, "solve took %d iterations (converged=%v), the first took %d", o.iters, o.converged, first.iters)
			solveS.add(round, o.seconds)
			return nil
		}},
		{"request", nReq, func(round int) error {
			runtime.GC()
			t0 := time.Now()
			status, err := svc.post("solve", body, &buf)
			reqS.add(round, time.Since(t0).Seconds())
			r.check(err == nil && status == http.StatusOK, "solve request: status %d, %v", status, err)
			return nil
		}},
		{"throughput", nWin, func(round int) error {
			runtime.GC()
			win := r.window(svc, body)
			// A failed request counts as missing: only 200s add to the rate.
			rateS.add(round, float64(win.ok)/win.seconds)
			lanesSum += win.lanes
			return nil
		}},
	}
	for round := 0; round < rounds; round++ {
		for _, q := range quantities {
			stop := r.section("yardstick")
			for i := 0; i < yardPerSlot; i++ {
				yardS.add(round, yard.run())
			}
			stop()
			stop = r.section(q.name)
			for i := share(q.n, round, rounds); i > 0; i-- {
				if err := q.sample(round); err != nil {
					return nil, fmt.Errorf("%s: %w", q.name, err)
				}
			}
			stop()
		}
	}
	// The last solve's answer is still in x: it must be the first one's.
	d = maxRelDiff(x, in.star)
	r.check(d <= solutionTol, "last solve: ‖x−x*‖∞/‖x*‖∞ = %.3g", d)

	// Every timing is reported as it would read with the yardstick at its
	// nominal time: the box's speed of the moment divided out.
	adjust := yardNominal / yardS.gate()
	flops := 2 * float64(in.nnz) * float64(nv)
	out := []metric{
		{"setup_s", adjust * setupS.gate(), "s"},
		{"matrix_mb", float64(main.k.Bytes()) / 1e6, "MB"},
		{"spmv_gflops", flops / (adjust * spmvS.gate()) / 1e9, "Gflop/s"},
		{"solve_s", adjust * solveS.gate(), "s"},
		{"req_ms", 1e3 * adjust * reqS.gate(), "ms"},
		{"req_per_s", rateS.gate() / adjust, "1/s"},
	}
	fmt.Fprintf(r.log, "# %s seed=%d N=%d nnz=%d format=%v P=%d nv=%d clients=%d cg_iters=%d\n", w.name, r.seed, n, in.nnz, w.format, r.threads, nv, loadClients, first.iters)
	fmt.Fprintf(r.log, "# as measured (the metrics below are these means times %.4f, the yardstick's nominal %.4g ms over its measured time):\n", adjust, 1e3*yardNominal)
	r.diag("yardstick", "ms", 1e3, &yardS)
	r.diag("setup_s", "s", 1, &setupS)
	r.diag("spmv time", "ms", 1e3, &spmvS)
	r.diag("solve_s", "s", 1, &solveS)
	r.diag("req_ms", "ms", 1e3, &reqS)
	r.diag("req_per_s", "1/s", 1, &rateS)
	fmt.Fprintf(r.log, "#   mean batch_lanes of the throughput phase: %.2f; ‖x−x*‖∞/‖x*‖∞ of the first solve: %.3g\n", float64(lanesSum)/float64(nWin*c.perWin), solErr)
	return out, nil
}

// diag prints a series' gated trimmed mean with its ungated diagnostics.
func (r *runner) diag(name, unit string, scale float64, s *series) {
	m := s.summary()
	fmt.Fprintf(r.log, "#   %-12s mean of the best 9/10 %.6g %s  median %.6g  best %.6g  p90 %.6g  n=%d  split-half %.3f\n",
		name, scale*m.trimmed, unit, scale*m.median, scale*m.best, scale*m.p90, m.n, m.splitHalf)
}

// verifyHTTPSolve decodes one untimed HTTP solve and holds it against the
// library's answer for the same right-hand side.
func (r *runner) verifyHTTPSolve(svc *service, k symspmv.Kernel, b []float64, body []byte) error {
	want := make([]float64, len(b))
	res, err := symspmv.SolveCG(k, b, want, symspmv.CGOptions{Tol: solveTol})
	if err != nil {
		return fmt.Errorf("library solve: %w", err)
	}
	var buf bytes.Buffer
	status, err := svc.post("solve", body, &buf)
	var got solveReply
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(buf.Bytes(), &got)
	}
	ok := err == nil && status == http.StatusOK && got.Converged && len(got.X) == len(want) &&
		got.Iterations == res.Iterations && maxRelDiff(got.X, want) <= sameTol
	r.check(ok, "HTTP solve: status %d, err %v, converged=%v, %d iterations (library %d), %d entries",
		status, err, got.Converged, got.Iterations, res.Iterations, len(got.X))
	return nil
}

// serveFile is the matrix file the service loads: the workload's own, or on
// the reordered workload the reordered matrix written out beside it.
func (r *runner) serveFile(in *inputs, main *prepared) (string, error) {
	if !r.w.rcm {
		return in.path, nil
	}
	path := filepath.Join(r.dir, fmt.Sprintf("%s.seed%d.rcm.mtx", r.w.name, r.seed))
	in.temp = append(in.temp, path)
	return path, writeMatrix(main.a, path)
}

// window runs one throughput window and counts its requests as operations.
func (r *runner) window(svc *service, body []byte) window {
	win := svc.runWindow(r.tr, loadClients, r.w.counts.perWin, "solve", body)
	r.attempted += r.w.counts.perWin
	r.failed += win.failed
	if win.failed > 0 {
		fmt.Fprintf(os.Stderr, "FAILED: %d of %d requests of a throughput window\n", win.failed, r.w.counts.perWin)
	}
	return win
}

func writeMatrix(a *symspmv.Matrix, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = a.WriteMatrixMarket(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
