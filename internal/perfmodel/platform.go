// Package perfmodel converts exactly-counted memory traffic and flops into
// predicted execution times for the paper's two evaluation platforms.
//
// This is the hardware substitution documented in DESIGN.md §4: the
// reproduction container has a single CPU, so multicore scaling cannot be
// timed directly. Every curve in the paper's evaluation, however, is an
// artefact of memory traffic meeting a bandwidth-saturation ceiling — and
// the traffic is a property of the data structures, which this library
// builds for real and counts exactly (internal/core.Traffic, CSX blob
// sizes, conflict-index lengths). The model maps
//
//	t_phase(p) = max(flops / (cores(p)·F1), bytes / BW(p)) + barrier(p)
//
// with a platform bandwidth curve BW(p) = min(p·BW1, sockets(p)·BWsocket),
// the same first-order roofline reasoning the paper itself uses (§III,
// flop:byte ratios; Table II STREAM numbers).
package perfmodel

import "runtime"

// Platform models one machine's memory system and cores.
type Platform struct {
	Name string
	// Cores is the number of physical cores; ThreadsMax the maximum
	// hardware threads (SMT included).
	Cores, ThreadsMax int
	// Sockets is the number of memory controllers (NUMA domains); threads
	// are assumed interleaved across sockets, as the paper's NUMA-aware
	// allocator arranges.
	Sockets int
	// ClockGHz is the core frequency; F1 the sustained per-core flop rate
	// (GFlop/s) on SpM×V-like dependent mul-add chains.
	ClockGHz, F1 float64
	// BW1 is the sustained single-thread bandwidth (GB/s); BWSocket the
	// saturated bandwidth of one socket (GB/s). Table II's "sustained B/W"
	// is Sockets·BWSocket.
	BW1, BWSocket float64
	// BarrierBaseNs and BarrierPerThreadNs model the synchronization cost
	// of one parallel phase barrier.
	BarrierBaseNs, BarrierPerThreadNs float64
	// LLCBytes is the aggregate last-level cache (reporting only; the
	// traffic counts already follow the paper's working-set equations).
	LLCBytes int64
	// XCachePerThreadBytes is the effective cache capacity available to one
	// thread for input-vector reuse (roughly its private L2 plus its share
	// of L3). When a kernel's x-access span exceeds it, the model charges
	// extra x traffic — the cache-miss effect RCM reordering removes (§V-D
	// reason 1).
	XCachePerThreadBytes int64
}

// WithCacheScale returns a copy with cache capacities scaled by s. The
// harness scales the platform caches together with the matrix suite so that
// span-versus-cache ratios at reduced scale mirror the full-size ones.
func (pl Platform) WithCacheScale(s float64) Platform {
	if s > 0 && s != 1 {
		pl.LLCBytes = int64(float64(pl.LLCBytes) * s)
		pl.XCachePerThreadBytes = int64(float64(pl.XCachePerThreadBytes) * s)
	}
	return pl
}

// XMissFraction reports the modeled fraction of irregular x accesses that
// miss the per-thread cache, given the kernel's average access span.
func (pl Platform) XMissFraction(xSpanBytes int64) float64 {
	if xSpanBytes <= pl.XCachePerThreadBytes || xSpanBytes == 0 {
		return 0
	}
	return 1 - float64(pl.XCachePerThreadBytes)/float64(xSpanBytes)
}

// Dunnington is the paper's quad-socket six-core SMP system (Table II):
// Intel Xeon X7460, 24 cores, one shared front-side bus domain with
// 5.4 GB/s sustained — the bandwidth-starved platform.
var Dunnington = Platform{
	Name:                 "Dunnington",
	Cores:                24,
	ThreadsMax:           24,
	Sockets:              1, // four packages share one FSB-limited memory system
	ClockGHz:             2.66,
	F1:                   1.33, // ~1 mul-add per 2 cycles on irregular code
	BW1:                  1.6,
	BWSocket:             5.4,
	BarrierBaseNs:        3000,
	BarrierPerThreadNs:   220,
	LLCBytes:             4 * 16 << 20,
	XCachePerThreadBytes: 1536 << 10, // 3 MiB L2 per core pair + L3 share
}

// Gainestown is the paper's two-socket quad-core NUMA system (Table II):
// Intel Xeon W5580, 8 cores / 16 threads, 2×15.5 GB/s sustained — the
// bandwidth-rich platform where the compute side shows through.
var Gainestown = Platform{
	Name:                 "Gainestown",
	Cores:                8,
	ThreadsMax:           16,
	Sockets:              2,
	ClockGHz:             3.20,
	F1:                   1.60,
	BW1:                  5.5,
	BWSocket:             15.5,
	BarrierBaseNs:        1500,
	BarrierPerThreadNs:   120,
	LLCBytes:             2 * 8 << 20,
	XCachePerThreadBytes: 1 << 20, // 256 KiB L2 + 8 MiB L3 per quad-core socket
}

// Bandwidth reports the sustained aggregate bandwidth (GB/s) available to p
// threads: linear in p until the engaged sockets saturate. Threads are
// interleaved over sockets, so p threads engage min(p, Sockets) controllers.
func (pl Platform) Bandwidth(p int) float64 {
	if p < 1 {
		p = 1
	}
	engaged := p
	if engaged > pl.Sockets {
		engaged = pl.Sockets
	}
	linear := float64(p) * pl.BW1
	sat := float64(engaged) * pl.BWSocket
	if linear < sat {
		return linear
	}
	return sat
}

// effectiveCores reports the flop-capable core count at p threads: SMT
// threads beyond the physical cores add no flop throughput.
func (pl Platform) effectiveCores(p int) int {
	if p > pl.Cores {
		return pl.Cores
	}
	if p < 1 {
		return 1
	}
	return p
}

// BarrierSeconds reports the modeled cost of one phase barrier at p threads.
func (pl Platform) BarrierSeconds(p int) float64 {
	return (pl.BarrierBaseNs + pl.BarrierPerThreadNs*float64(p)) * 1e-9
}

// PhaseSeconds predicts the time of one parallel phase moving `bytes` from
// memory and executing `flops`, ending in one barrier. The roofline max of
// the compute and traffic terms models their overlap.
func (pl Platform) PhaseSeconds(p int, flops, bytes int64) float64 {
	tFlop := float64(flops) / (float64(pl.effectiveCores(p)) * pl.F1 * 1e9)
	tMem := float64(bytes) / (pl.Bandwidth(p) * 1e9)
	t := tFlop
	if tMem > t {
		t = tMem
	}
	return t + pl.BarrierSeconds(p)
}

// SerialSeconds predicts a single-thread phase without barrier cost.
func (pl Platform) SerialSeconds(flops, bytes int64) float64 {
	tFlop := float64(flops) / (pl.F1 * 1e9)
	tMem := float64(bytes) / (pl.BW1 * 1e9)
	if tMem > tFlop {
		return tMem
	}
	return tFlop
}

// Gflops converts a flop count and a predicted time into the Gflop/s metric
// the paper plots (useful flops of the operator: 2·NNZ for SpM×V).
func Gflops(flops int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(flops) / seconds / 1e9
}

// Host returns a generic platform sized to the current process: GOMAXPROCS
// cores on one memory domain with middle-of-the-road per-core bandwidth and
// flop rates. It exists for the autotuner's model-pruning stage, which only
// needs candidate *ranking* on the machine actually running the trials —
// the absolute numbers are never reported, and the timed micro-trials make
// the final call.
func Host() Platform {
	p := runtime.GOMAXPROCS(0)
	return Platform{
		Name:                 "Host",
		Cores:                p,
		ThreadsMax:           p,
		Sockets:              1,
		ClockGHz:             3.0,
		F1:                   2.0,
		BW1:                  8,
		BWSocket:             24,
		BarrierBaseNs:        800,
		BarrierPerThreadNs:   100,
		LLCBytes:             32 << 20,
		XCachePerThreadBytes: 2 << 20,
	}
}

// CalibratedHost returns the generic Host platform re-shaped to a live pool
// of p threads and anchored to a measured bandwidth: the saturated bandwidth
// is the measured STREAM triad rate triadGBs (BW1 scaled so the p threads
// reach it). The attribution engine uses it as the *independent* model-time
// predictor: its phase times carry flop and barrier terms the plain
// bytes/bandwidth roofline does not, so measured/model error is a separate
// signal from the roofline fraction rather than its reciprocal.
func CalibratedHost(p int, triadGBs float64) Platform {
	pl := Host()
	if p < 1 {
		p = 1
	}
	pl.Name = "CalibratedHost"
	pl.Cores = p
	pl.ThreadsMax = p
	if triadGBs > 0 {
		pl.BWSocket = triadGBs
		pl.BW1 = triadGBs / float64(p)
	}
	return pl
}

// Platforms lists the paper's two machines in presentation order.
var Platforms = []Platform{Dunnington, Gainestown}

// ByName returns the built-in platform with the given name, or false.
func ByName(name string) (Platform, bool) {
	for _, pl := range Platforms {
		if pl.Name == name {
			return pl, true
		}
	}
	return Platform{}, false
}
