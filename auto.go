package symspmv

// AutoKernel is the empirical autotuning entry point: instead of the caller
// hand-picking a Format, reduction method, and thread count, the library
// measures its way to the best execution plan for this matrix on this
// machine (internal/autotune) and remembers the decision in a persistent
// tuning cache, so repeat solves of the same system skip the search.

import (
	"fmt"
	"io"

	"repro/internal/autotune"
	"repro/internal/format"
)

// Decision is the autotuner's full record of one plan selection: the chosen
// plan, every candidate examined with modeled and measured timings, why the
// losers were pruned or eliminated, and whether the tuning cache supplied
// the answer without any timing at all.
type Decision = autotune.Decision

// autoOpts collects AutoKernel configuration.
type autoOpts struct {
	cacheDir string
	noCache  bool
	tune     autotune.Options
}

// AutoOption configures AutoKernel.
type AutoOption func(*autoOpts)

// AutoCacheDir overrides the tuning-cache directory (default:
// <user cache dir>/symspmv/autotune).
func AutoCacheDir(dir string) AutoOption {
	return func(o *autoOpts) { o.cacheDir = dir }
}

// AutoNoCache disables the persistent tuning cache: every call re-runs the
// search.
func AutoNoCache() AutoOption {
	return func(o *autoOpts) { o.noCache = true }
}

// AutoMaxThreads caps the thread counts the search considers (default:
// GOMAXPROCS).
func AutoMaxThreads(n int) AutoOption {
	return func(o *autoOpts) { o.tune.MaxThreads = n }
}

// AutoFormats restricts the searched formats (default: every format with the
// Tuned capability). CSX is not in the plan space — it is dominated by CSX-Sym
// on the symmetric operators this library holds.
func AutoFormats(fs ...Format) AutoOption {
	return func(o *autoOpts) { o.tune.Formats = fs }
}

// AutoReorder enables or disables the RCM-reordered plan variants (default:
// enabled; the tuner only trials them when the locality model says
// reordering could pay, and charges the reorder to their build cost). A
// reordered plan's kernel runs on P·A·Pᵀ and permutes its operands once per
// call — once per product, once per solve — so it offers every operation
// the natural-order kernel does.
func AutoReorder(enable bool) AutoOption {
	return func(o *autoOpts) { o.tune.DisableReorder = !enable }
}

// AutoVectors tunes for the multi-RHS kernel (MulMat) with nv simultaneous
// vectors instead of single-vector SpM×V. The plan space is restricted to
// the SpMM-capable formats, and the winning plan is cached per width.
func AutoVectors(nv int) AutoOption {
	return func(o *autoOpts) { o.tune.NV = nv }
}

// AutoTrialIters sets the operation count of the first micro-trial round
// (default 8); successive-halving rounds double it.
func AutoTrialIters(n int) AutoOption {
	return func(o *autoOpts) { o.tune.TrialIters = n }
}

// AutoLog directs the tuner's progress lines to w.
func AutoLog(w io.Writer) AutoOption {
	return func(o *autoOpts) { o.tune.Log = w }
}

// TuneCacheStats reports process-wide tuning-cache lookup outcomes. A plain
// miss means no entry existed for the key; a corrupt miss means an entry
// existed but was unreadable (torn write, bit flip, version skew, or keyed
// to a different matrix/machine) and was retuned over.
type TuneCacheStats struct {
	Hits          int64
	Misses        int64
	CorruptMisses int64
}

// AutoCacheStats reports the tuning-cache lookup outcomes accumulated by
// every AutoKernel call in this process.
func AutoCacheStats() TuneCacheStats {
	h, m, c := autotune.CacheStats()
	return TuneCacheStats{Hits: h, Misses: m, CorruptMisses: c}
}

// AutoKernel selects and builds the best kernel for the matrix on this
// machine. The search prunes the candidate space with the performance
// model, then times the survivors with real micro-trials (see
// internal/autotune); the winning plan is persisted in a versioned,
// checksummed tuning cache keyed by the matrix structure fingerprint and a
// machine signature, so a second AutoKernel call on the same system runs
// zero trials. The returned Decision reports what was tried and why.
//
// The returned Kernel must be released with Close, like any other.
func AutoKernel(a *Matrix, options ...AutoOption) (Kernel, *Decision, error) {
	o := autoOpts{cacheDir: autotune.DefaultCacheDir()}
	for _, opt := range options {
		opt(&o)
	}
	for _, f := range o.tune.Formats {
		if !f.Valid() || f.Desc().Caps&format.Tuned == 0 {
			return nil, nil, fmt.Errorf("symspmv: AutoKernel: format %v is not in the autotune plan space", f)
		}
	}

	key := autotune.Key{
		Fingerprint: autotune.Fingerprint(a.fm.S),
		Machine:     autotune.MachineSignature(),
		NV:          o.tune.NV,
		Kind:        a.fm.S.Kind,
	}
	store := autotune.Store{Dir: o.cacheDir}
	if !o.noCache {
		// A corrupt or mismatched entry is a plain miss (the diagnostic is
		// only worth surfacing to a log); retuning overwrites it.
		if plan, ok, lerr := store.Load(key); ok {
			if k, err := a.planKernel(plan); err == nil {
				return k, &Decision{Plan: plan, CacheHit: true}, nil
			}
			// A cached plan that no longer builds (e.g. cache copied from
			// an incompatible setup) falls through to a fresh search.
		} else if lerr != nil && o.tune.Log != nil {
			fmt.Fprintf(o.tune.Log, "%v (retuning)\n", lerr)
		}
	}

	d, err := autotune.Tune(autotune.Problem{Matrix: a.fm, Stats: a.Stats()}, o.tune)
	if err != nil {
		return nil, nil, err
	}
	if !o.noCache {
		score := 0.0
		for _, c := range d.Candidates {
			if c.Status == "chosen" {
				score = c.MeasuredNs
			}
		}
		if serr := store.Save(key, d.Plan, score); serr != nil && o.tune.Log != nil {
			fmt.Fprintf(o.tune.Log, "autotune: saving cache: %v\n", serr)
		}
	}
	k, err := a.planKernel(d.Plan)
	if err != nil {
		return nil, nil, err
	}
	return k, d, nil
}

// planKernel builds the kernel an autotune plan describes. A reordered plan
// is the kernel on the RCM-permuted matrix plus its permutation, which every
// operation applies once per call, so the returned Kernel still computes
// y = A·x in the caller's original row order.
func (a *Matrix) planKernel(plan autotune.Plan) (Kernel, error) {
	if !plan.Format.Valid() {
		return nil, fmt.Errorf("symspmv: plan format %v unknown", plan.Format)
	}
	if !plan.Reorder {
		return a.Kernel(plan.Format, Threads(plan.Threads))
	}
	rm, perm, err := a.ReorderRCM()
	if err != nil {
		return nil, err
	}
	k, err := rm.Kernel(plan.Format, Threads(plan.Threads))
	if err != nil {
		return nil, err
	}
	k.(*boundKernel).perm = perm
	return k, nil
}
