package autotune

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/format"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
	"repro/internal/reorder"
)

// Tuner telemetry: completed searches and individual timed trials.
var (
	tuneDecisions = obs.NewCounter("symspmv_autotune_decisions_total",
		"Completed autotune searches.")
	tuneTrials = obs.NewCounter("symspmv_autotune_trials_total",
		"Individual timed candidate trials run by the autotuner.")
)

// Plan is one executable configuration: what to build and how to run it.
type Plan struct {
	Format  format.ID
	Threads int
	Reorder bool // build on the RCM-permuted matrix, permuting x/y around the kernel
}

// String renders the plan compactly, e.g. "SSS-indexed p=4 (RCM)".
func (p Plan) String() string {
	s := fmt.Sprintf("%s p=%d", p.Format, p.Threads)
	if p.Reorder {
		s += " (RCM)"
	}
	return s
}

// Candidate reports one examined configuration for the Decision record.
type Candidate struct {
	Plan
	ModeledSeconds float64 // model-stage predicted seconds per operation
	MeasuredNs     float64 // last micro-trial ns per operation (0 = never timed)
	PreprocNs      float64 // wall-clock build cost, amortized into the score
	Bytes          int64   // encoded size (trialed candidates only)
	Status         string  // "chosen", "trialed", "pruned (model)", "eliminated (round N)", "build failed: ..."
}

// Decision is the full record of one tuning run: the chosen plan plus every
// candidate examined, why the losers lost, and how much timing was spent.
type Decision struct {
	Plan       Plan
	CacheHit   bool // plan came from the tuning cache; no candidates were timed
	Trials     int  // timed micro-trials executed (0 on a cache hit)
	Features   Features
	Candidates []Candidate
	Elapsed    time.Duration
}

// Report renders a human-readable decision summary.
func (d *Decision) Report() string {
	var b strings.Builder
	if d.CacheHit {
		fmt.Fprintf(&b, "plan %v (tuning cache hit, 0 trials)\n", d.Plan)
		return b.String()
	}
	fmt.Fprintf(&b, "plan %v (%d trials in %v)\n", d.Plan, d.Trials, d.Elapsed.Round(time.Millisecond))
	for _, c := range d.Candidates {
		meas := "      -"
		if c.MeasuredNs > 0 {
			meas = fmt.Sprintf("%7.0f", c.MeasuredNs)
		}
		fmt.Fprintf(&b, "  %-22s model %8.1fµs  measured %sns  %s\n",
			c.Plan.String(), c.ModeledSeconds*1e6, meas, c.Status)
	}
	return b.String()
}

// Problem is the matrix under tuning. S and M are required; CSR and Stats
// are reused when the caller already has them (the harness does) and built
// on demand otherwise.
type Problem struct {
	format.Matrix
	Stats matrix.Stats
}

// The search's two fixed trade-offs: one value each is in use, so they are
// constants, not Options.
const (
	// pruneRatio drops candidates whose modeled time exceeds the modeled best
	// by this factor before any trial runs: wide enough that the optimistic
	// CSX-Sym size estimate (format/estimate.go) keeps it in the trials, and
	// the two-survivor floor in modelStage covers a model that is off by more.
	pruneRatio = 2.5
	// amortizeOps is the number of SpM×V operations the preprocessing cost
	// (CSX-Sym encoding) is spread over in the trial score — the expected
	// lifetime of a tuned kernel, a few CG solves.
	amortizeOps = 1000
)

// Options configures the search. The zero value is ready to use.
type Options struct {
	// MaxThreads caps the thread-count candidates (default GOMAXPROCS).
	MaxThreads int
	// Formats restricts the searched formats (default: every format with the
	// Tuned capability).
	Formats []format.ID
	// DisableReorder removes the RCM-reordered variants from the space.
	DisableReorder bool
	// TrialIters is the operation count of the first micro-trial round;
	// each successive-halving round doubles it. Default 8.
	TrialIters int
	// Rounds caps the successive-halving rounds. Default 4.
	Rounds int
	// NV tunes for a multi-RHS (SpMM) workload over NV interleaved vectors
	// instead of single-vector SpMV: the search space shrinks to the
	// SpMM-capable formats, the model prices each candidate's SpMM sweep,
	// and the micro-trials time MulMat. Default 1 (plain SpMV).
	NV int
	// Platform overrides the model-stage platform (default a host-derived
	// one from perfmodel.Host).
	Platform *perfmodel.Platform
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

func (o Options) withDefaults() Options {
	if o.MaxThreads <= 0 {
		o.MaxThreads = runtime.GOMAXPROCS(0)
	}
	if len(o.Formats) == 0 {
		for _, f := range format.All() {
			if f.Desc().Caps&format.Tuned != 0 {
				o.Formats = append(o.Formats, f)
			}
		}
	}
	if o.TrialIters <= 0 {
		o.TrialIters = 8
	}
	if o.Rounds <= 0 {
		o.Rounds = 4
	}
	if o.NV < 1 {
		o.NV = 1
	}
	if o.NV > 1 {
		// The permuted-vector wrappers are single-vector; reordered plans
		// have no SpMM path.
		o.DisableReorder = true
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, "autotune: "+format+"\n", args...)
	}
}

// threadCandidates is the geometric thread sweep {1, 2, 4, ...} up to and
// always including max.
func threadCandidates(max int) []int {
	if max < 1 {
		max = 1
	}
	var out []int
	for p := 1; p < max; p *= 2 {
		out = append(out, p)
	}
	return append(out, max)
}

// tuner carries one search's state.
type tuner struct {
	pr    Problem
	o     Options
	feat  Features
	shape format.Shape // feat plus the symbolic scans, as the format estimates read them
	pl    perfmodel.Platform
	d     *Decision

	pools     map[int]*parallel.Pool // by thread count
	symStats  map[int][2]int64
	colorMemo map[int][2]int // colored-schedule {colors, blocks} per thread count

	// RCM permutation and the permuted matrix, built lazily on first
	// reordered trial.
	rcmDone bool
	rcmErr  error
	perm    []int32
	rcm     format.Matrix
}

// planCaps is what a format must offer on the matrix's class to be in the
// plan space at nv vectors.
func planCaps(nv int) format.Caps {
	if nv > 1 {
		return format.Tuned | format.MulMat
	}
	return format.Tuned
}

// Tune runs the two-stage search and returns the full decision record.
func Tune(pr Problem, o Options) (*Decision, error) {
	if pr.S == nil || pr.M == nil {
		return nil, errors.New("autotune: Problem needs S and M")
	}
	o = o.withDefaults()
	// The plan space is what the format table says runs this symmetry class
	// (and, for a multi-RHS search, has an SpMM kernel on it): on a skew or
	// structural matrix that keeps the unsymmetric baselines and the
	// kind-generalized SSS methods, and of those only CSR when NV > 1.
	need := planCaps(o.NV)
	var kept []format.ID
	for _, f := range o.Formats {
		if f.Valid() && f.Desc().Has(need, pr.S.Kind) {
			kept = append(kept, f)
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("autotune: no searched format supports %s matrices at nv=%d", pr.S.Kind, o.NV)
	}
	o.Formats = kept
	if pr.S.Kind == core.Structural {
		// Problem.M is a general COO for structural matrices; the RCM
		// rebuild path assumes symmetric lower storage.
		o.DisableReorder = true
	}
	if pr.Stats.Rows == 0 {
		pr.Stats = matrix.ComputeStats(pr.M)
	}
	t := newTuner(pr, o)
	defer t.closePools()

	start := time.Now()
	survivors := t.modelStage()
	if err := t.trialStage(survivors); err != nil {
		return nil, err
	}
	t.d.Elapsed = time.Since(start)
	tuneDecisions.Inc()
	return t.d, nil
}

// newTuner assembles the search state for a problem whose Stats are filled
// in and options that went through withDefaults.
func newTuner(pr Problem, o Options) *tuner {
	t := &tuner{
		pr:        pr,
		o:         o,
		feat:      ExtractFeatures(pr.Stats),
		d:         &Decision{},
		pools:     make(map[int]*parallel.Pool),
		symStats:  make(map[int][2]int64),
		colorMemo: make(map[int][2]int),
	}
	t.shape = format.Shape{
		N:          int64(t.feat.N),
		NNZLower:   int64(t.feat.NNZLower),
		LogicalNNZ: int64(t.feat.LogicalNNZ),
		CSRBytes:   t.feat.CSRBytes,
		SSSBytes:   t.feat.SSSBytes,
		Kind:       pr.S.Kind,
		Conflict:   t.symbolic,
		Colors:     t.colorCount,
	}
	if o.Platform != nil {
		t.pl = *o.Platform
	} else {
		t.pl = perfmodel.Host()
	}
	t.d.Features = t.feat
	return t
}

// pool returns the shared warm pool of p threads, creating it on first use.
func (t *tuner) pool(p int) *parallel.Pool {
	pl, ok := t.pools[p]
	if !ok {
		pl = parallel.NewPool(p)
		t.pools[p] = pl
	}
	return pl
}

func (t *tuner) closePools() {
	for _, pl := range t.pools {
		pl.Close()
	}
	t.pools = nil
}

// modelStage prices every (format, threads) pair, records one candidate per
// format at its modeled-best thread count, prunes the clearly hopeless
// formats, and appends RCM variants when the x-locality model says
// reordering could pay. Returns the indices of the surviving candidates.
func (t *tuner) modelStage() []int {
	ps := threadCandidates(t.o.MaxThreads)
	for _, f := range t.o.Formats {
		best := Candidate{Plan: Plan{Format: f}, ModeledSeconds: -1}
		for _, p := range ps {
			sec := t.modelCost(f, p, false).SpMM(t.o.NV).Seconds(t.pl, p)
			if best.ModeledSeconds < 0 || sec < best.ModeledSeconds {
				best.Plan.Threads = p
				best.ModeledSeconds = sec
			}
		}
		t.d.Candidates = append(t.d.Candidates, best)
	}

	// Colored blow-up guard: on a near-complete conflict graph (power-law
	// matrices, where every block's write set reaches the hub columns) the
	// coloring degenerates to O(blocks) colors and the plan serializes into a
	// barrier chain with almost no concurrency inside each phase. The model's
	// per-barrier charge underprices that collapse badly enough to let such a
	// plan survive to trials, so candidates whose schedule burns a large
	// fraction of the block count as colors are rejected outright.
	for i := range t.d.Candidates {
		c := &t.d.Candidates[i]
		if c.Format != format.SSSColored || c.Threads <= 1 {
			continue
		}
		colors, blocks := t.colorStats(c.Threads)
		if colors > 8 && 3*colors > blocks {
			c.Status = fmt.Sprintf("rejected (colored blow-up: %d colors over %d blocks)", colors, blocks)
		}
	}

	bestSec := -1.0
	for _, c := range t.d.Candidates {
		if bestSec < 0 || c.ModeledSeconds < bestSec {
			bestSec = c.ModeledSeconds
		}
	}
	var survivors []int
	for i := range t.d.Candidates {
		c := &t.d.Candidates[i]
		if c.Status != "" {
			continue // rejected above; never trialed, never resurrected
		}
		if c.ModeledSeconds > pruneRatio*bestSec {
			c.Status = fmt.Sprintf("pruned (model: %.1fx off best)", c.ModeledSeconds/bestSec)
			continue
		}
		survivors = append(survivors, i)
	}
	// Never trial fewer than two candidates (when the space allows): the
	// model earns pruning, not the final call.
	if len(survivors) < 2 && len(t.d.Candidates) > len(survivors) {
		type pair struct {
			i   int
			sec float64
		}
		var pruned []pair
		for i := range t.d.Candidates {
			// Only model-pruned candidates come back; guard-rejected ones
			// (colored blow-up) stay out no matter how thin the field is.
			if strings.HasPrefix(t.d.Candidates[i].Status, "pruned") {
				pruned = append(pruned, pair{i, t.d.Candidates[i].ModeledSeconds})
			}
		}
		sort.Slice(pruned, func(a, b int) bool { return pruned[a].sec < pruned[b].sec })
		for _, pr := range pruned {
			if len(survivors) >= 2 {
				break
			}
			t.d.Candidates[pr.i].Status = ""
			survivors = append(survivors, pr.i)
		}
		sort.Ints(survivors)
	}

	// RCM variants: only worth trialing when the model charges x-miss
	// traffic at the current span (§V-D reason 1).
	if !t.o.DisableReorder && t.pl.XMissFraction(t.feat.XSpanBytes) > 0.02 {
		for _, i := range append([]int(nil), survivors...) {
			c := t.d.Candidates[i]
			rc := Candidate{Plan: Plan{Format: c.Format, Threads: c.Threads, Reorder: true}}
			rc.ModeledSeconds = t.modelCost(c.Format, c.Threads, true).Seconds(t.pl, c.Threads)
			t.d.Candidates = append(t.d.Candidates, rc)
			survivors = append(survivors, len(t.d.Candidates)-1)
		}
	}
	t.o.logf("model stage: %d candidates, %d survive to trials", len(t.d.Candidates), len(survivors))
	return survivors
}

// trial is one buildable survivor during the trial stage.
type trial struct {
	ci    int // index into d.Candidates
	mul   func(x, y []float64)
	score float64
}

// trialStage builds the survivors and races them under successive halving:
// each round doubles the measured operation count and keeps the faster
// half, so long accurate timings are spent only on close contenders. The
// score amortizes the build cost over amortizeOps operations, which is what
// lets cheap-to-build SSS beat CSX-Sym for one-shot workloads and lose for
// long solver runs.
func (t *tuner) trialStage(survivors []int) error {
	var live []*trial
	for _, ci := range survivors {
		c := &t.d.Candidates[ci]
		b, err := t.build(c.Plan)
		if err != nil {
			c.Status = "build failed: " + err.Error()
			continue
		}
		c.Bytes = b.Bytes
		c.PreprocNs = float64(b.Preproc.Nanoseconds())
		mul := b.Mul
		if nv := t.o.NV; nv > 1 {
			// NV>1 trials time the interleaved SpMM sweep; the plan space was
			// filtered to formats that have one.
			mul = func(x, y []float64) {
				if merr := b.MulMat(x, y, nv); merr != nil {
					panic(merr) // arguments are tuner-controlled
				}
			}
		}
		live = append(live, &trial{ci: ci, mul: mul})
	}
	if len(live) == 0 {
		return errors.New("autotune: every candidate failed to build")
	}

	n := t.feat.N * t.o.NV // NV>1 trials time the interleaved SpMM sweep
	iters := t.o.TrialIters
	for round := 1; ; round++ {
		for _, tr := range live {
			c := &t.d.Candidates[tr.ci]
			ns := measure(tr.mul, n, iters)
			c.MeasuredNs = ns
			c.Status = "trialed"
			tr.score = ns + c.PreprocNs/amortizeOps
			t.d.Trials++
			tuneTrials.Inc()
			t.o.logf("round %d: %-22s %.0f ns/op (%d iters)", round, c.Plan, ns, iters)
		}
		sort.Slice(live, func(a, b int) bool { return live[a].score < live[b].score })
		if len(live) == 1 || round >= t.o.Rounds {
			break
		}
		keep := (len(live) + 1) / 2
		for _, tr := range live[keep:] {
			t.d.Candidates[tr.ci].Status = fmt.Sprintf("eliminated (round %d)", round)
		}
		live = live[:keep]
		if len(live) == 1 {
			break
		}
		iters *= 2
	}
	winner := &t.d.Candidates[live[0].ci]
	winner.Status = "chosen"
	t.d.Plan = winner.Plan
	t.o.logf("chosen: %v (%.0f ns/op)", winner.Plan, winner.MeasuredNs)
	return nil
}

// measure times iters operations of mul with the §V-A protocol: the input
// and output vectors swap every iteration (defeating cache reuse of x) and
// renormalize periodically so repeated operator application cannot
// overflow. One untimed warm-up operation absorbs cold caches.
func measure(mul func(x, y []float64), n, iters int) (nsPerOp float64) {
	x := make([]float64, n)
	y := make([]float64, n)
	fill(x)
	mul(x, y)
	x, y = y, x
	renormalize(x)
	t0 := time.Now()
	for it := 0; it < iters; it++ {
		mul(x, y)
		x, y = y, x
		if it%16 == 15 {
			renormalize(x)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(iters)
}

func fill(v []float64) {
	state := uint64(0x9E3779B97F4A7C15)
	for i := range v {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		v[i] = float64(int64(state))/float64(1<<63)*0.5 + 0.25
	}
}

func renormalize(v []float64) {
	maxAbs := 0.0
	for _, x := range v {
		if x > maxAbs {
			maxAbs = x
		} else if -x > maxAbs {
			maxAbs = -x
		}
	}
	if maxAbs == 0 || (maxAbs > 0.5 && maxAbs < 2) {
		return
	}
	s := 1 / maxAbs
	for i := range v {
		v[i] *= s
	}
}

// reordered lazily computes the RCM permutation and the permuted
// structures, shared by every reordered trial.
func (t *tuner) reordered() error {
	if t.rcmDone {
		return t.rcmErr
	}
	t.rcmDone = true
	perm, err := reorder.RCM(t.pr.M)
	if err != nil {
		t.rcmErr = err
		return err
	}
	pm, err := t.pr.M.Permute(perm)
	if err != nil {
		t.rcmErr = err
		return err
	}
	s, err := core.FromCOO(pm)
	if err != nil {
		t.rcmErr = err
		return err
	}
	t.perm, t.rcm = perm, format.Matrix{S: s, M: pm}
	return nil
}

// build constructs the real kernel for one plan on a shared warm pool.
// Construction panics (malformed structures) are converted to errors so one
// broken candidate cannot abort the search.
func (t *tuner) build(plan Plan) (b *format.Built, err error) {
	defer func() {
		if r := recover(); r != nil {
			b, err = nil, fmt.Errorf("autotune: building %v: %v", plan, r)
		}
	}()

	src := &t.pr.Matrix
	if plan.Reorder {
		if err := t.reordered(); err != nil {
			return nil, fmt.Errorf("autotune: RCM: %w", err)
		}
		src = &t.rcm
	}
	// Default build options: a trial must time the kernel AutoKernel will
	// build from the winning plan, and that build passes no CSX overrides.
	b, err = format.Build(src, plan.Format, t.pool(plan.Threads), format.Options{})
	if err != nil {
		return nil, err
	}
	if plan.Reorder {
		b.Permute(t.perm)
	}
	return b, nil
}
