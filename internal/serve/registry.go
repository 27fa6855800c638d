package serve

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	symspmv "repro"
	"repro/internal/obs"
)

// Options configures the registry and the batchers it creates.
type Options struct {
	// Threads caps the autotune search (or sets the thread count for a fixed
	// format). 0 means the facade default.
	Threads int

	// TuneCacheDir is the persistent tuning-cache directory handed to
	// AutoKernel: matrices seen before (same fingerprint, same machine)
	// warm-start without timed trials. "" uses the facade default; "off"
	// disables caching.
	TuneCacheDir string

	// Window bounds how long the batcher holds a batch open while another
	// request to its matrix is in the server and might still join it. 0
	// disables holding; draining what is already queued still coalesces.
	Window time.Duration

	// MaxBatch caps real lanes per dispatch (clamped to [1, 8]).
	MaxBatch int

	// QueueDepth bounds each matrix's request queue; a full queue rejects
	// with ErrQueueFull.
	QueueDepth int
}

// DefaultOptions are the server defaults. A request alone in the server
// never waits, so the window costs solo traffic nothing; 8 ms covers the
// decode of a concurrent request's body (about 6 ms for a 131k-row vector).
func DefaultOptions() Options {
	return Options{
		Window:     8 * time.Millisecond,
		MaxBatch:   maxLanes,
		QueueDepth: 64,
	}
}

// LoadSpec describes one matrix to register.
type LoadSpec struct {
	// Path is a Matrix Market file on the server's filesystem.
	Path string
	// Format fixes the kernel format by any name symspmv.ParseFormat accepts
	// (what the list endpoint reports parses back); empty or "auto" autotunes
	// with the tuning cache as warm start.
	Format string
	// Threads overrides Options.Threads for this matrix.
	Threads int
}

// Entry is one loaded matrix: the prepared kernel, its batcher, and the
// metadata the list endpoint reports.
type Entry struct {
	ID       string
	N        int
	NNZ      int
	Format   string
	Threads  int
	Bytes    int64
	SpMM     bool // kernel has an SpMM fast path, so requests can coalesce
	CacheHit bool // autotune plan came from the tuning cache (no timed trials)
	Trials   int
	LoadedAt time.Time

	batcher  *Batcher
	kern     symspmv.Kernel
	requests *obs.Counter
}

// Registry owns the loaded matrices. All methods are safe for concurrent
// use; kernel preparation happens outside the registry lock so a slow
// autotune does not block serving other matrices.
type Registry struct {
	opts Options

	mu      sync.Mutex
	entries map[string]*Entry
	loading map[string]bool // ids with a Load in flight (reserves the id)
	closed  bool
}

// NewRegistry builds an empty registry.
func NewRegistry(opts Options) *Registry {
	if opts.MaxBatch == 0 {
		opts.MaxBatch = maxLanes
	}
	if opts.QueueDepth == 0 {
		opts.QueueDepth = 64
	}
	return &Registry{
		opts:    opts,
		entries: make(map[string]*Entry),
		loading: make(map[string]bool),
	}
}

// Load reads the matrix at spec.Path, prepares a kernel for it (autotuned
// with the tuning cache unless spec.Format pins one), and registers it
// under id. Each matrix is prepared exactly once; concurrent loads of the
// same id conflict with ErrExists.
func (reg *Registry) Load(id string, spec LoadSpec) (*Entry, error) {
	if id == "" || strings.ContainsAny(id, "/ \t\n") {
		return nil, BadRequestf("matrix id %q must be non-empty without slashes or spaces", id)
	}

	reg.mu.Lock()
	if reg.closed {
		reg.mu.Unlock()
		return nil, ErrDraining
	}
	if reg.entries[id] != nil || reg.loading[id] {
		reg.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrExists, id)
	}
	reg.loading[id] = true
	reg.mu.Unlock()
	defer func() {
		reg.mu.Lock()
		delete(reg.loading, id)
		reg.mu.Unlock()
	}()

	a, err := symspmv.ReadMatrixMarketFile(spec.Path)
	if err != nil {
		return nil, BadRequestf("read %s: %v", spec.Path, err)
	}
	kern, info, err := reg.prepare(a, spec)
	if err != nil {
		return nil, err
	}
	// Bind the roofline attribution engine while the kernel is idle — only
	// when sampling is on (the first bind per pool shape runs a short STREAM
	// calibration, which a sampling-off server should not pay at load time).
	// No-op for formats attribution does not model.
	if obs.SamplingEnabled() {
		if _, err := symspmv.EnableAttribution(kern); err != nil {
			kern.Close()
			return nil, fmt.Errorf("serve: bind attribution: %w", err)
		}
	}

	e := &Entry{
		ID:       id,
		N:        a.N(),
		NNZ:      a.NNZ(),
		Format:   info.format,
		Threads:  kern.Threads(),
		Bytes:    kern.Bytes(),
		SpMM:     symspmv.SupportsMulMat(kern),
		CacheHit: info.cacheHit,
		Trials:   info.trials,
		LoadedAt: time.Now(),
		kern:     kern,
		batcher:  newBatcher(kern, a.N(), reg.opts.QueueDepth, reg.opts.MaxBatch, reg.opts.Window),
		requests: obs.NewCounter("symspmv_serve_matrix_requests_total",
			"requests per loaded matrix", "matrix", id),
	}

	reg.mu.Lock()
	if reg.closed {
		reg.mu.Unlock()
		e.batcher.Stop()
		kern.Close()
		return nil, ErrDraining
	}
	reg.entries[id] = e
	reg.mu.Unlock()
	loadsTotal.Inc()
	return e, nil
}

type prepInfo struct {
	format   string
	cacheHit bool
	trials   int
}

func (reg *Registry) prepare(a *symspmv.Matrix, spec LoadSpec) (symspmv.Kernel, prepInfo, error) {
	threads := spec.Threads
	if threads == 0 {
		threads = reg.opts.Threads
	}
	if spec.Format == "" || strings.EqualFold(spec.Format, "auto") {
		var auto []symspmv.AutoOption
		if threads > 0 {
			auto = append(auto, symspmv.AutoMaxThreads(threads))
		}
		switch reg.opts.TuneCacheDir {
		case "":
		case "off":
			auto = append(auto, symspmv.AutoNoCache())
		default:
			auto = append(auto, symspmv.AutoCacheDir(reg.opts.TuneCacheDir))
		}
		kern, d, err := symspmv.AutoKernel(a, auto...)
		if err != nil {
			return nil, prepInfo{}, fmt.Errorf("serve: autotune: %w", err)
		}
		return kern, prepInfo{format: d.Plan.String(), cacheHit: d.CacheHit, trials: d.Trials}, nil
	}
	f, err := symspmv.ParseFormat(spec.Format)
	if err != nil {
		return nil, prepInfo{}, BadRequestf("%v", err)
	}
	var opts []symspmv.Option
	if threads > 0 {
		opts = append(opts, symspmv.Threads(threads))
	}
	kern, err := a.Kernel(f, opts...)
	if err != nil {
		return nil, prepInfo{}, BadRequestf("build %v kernel: %v", f, err)
	}
	return kern, prepInfo{format: f.String()}, nil
}

// Get returns the entry for id, or ErrNotFound.
func (reg *Registry) Get(id string) (*Entry, error) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	e := reg.entries[id]
	if e == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return e, nil
}

// List snapshots the loaded entries, sorted by id.
func (reg *Registry) List() []*Entry {
	reg.mu.Lock()
	out := make([]*Entry, 0, len(reg.entries))
	for _, e := range reg.entries {
		out = append(out, e)
	}
	reg.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Unload removes id, stops its batcher (queued requests fail with
// ErrUnloaded), and releases the kernel.
func (reg *Registry) Unload(id string) error {
	reg.mu.Lock()
	e := reg.entries[id]
	delete(reg.entries, id)
	reg.mu.Unlock()
	if e == nil {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	e.batcher.Stop()
	e.kern.Close()
	return nil
}

// Close drains every matrix: new loads fail with ErrDraining, every batcher
// stops after finishing its in-flight dispatch, kernels are released.
func (reg *Registry) Close() {
	reg.mu.Lock()
	if reg.closed {
		reg.mu.Unlock()
		return
	}
	reg.closed = true
	entries := make([]*Entry, 0, len(reg.entries))
	for _, e := range reg.entries {
		entries = append(entries, e)
	}
	reg.entries = make(map[string]*Entry)
	reg.mu.Unlock()
	for _, e := range entries {
		e.batcher.Stop()
		e.kern.Close()
	}
}
