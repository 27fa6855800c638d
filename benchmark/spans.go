package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory: one span around every
// call the benchmark makes into a layer of the program, with the span that
// caused it as parent. A nil *tracer records nothing, so the untraced run
// pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []spanRec
}

type spanRec struct {
	Name   string
	Layer  string
	Start  int64 // ns since the tracer's epoch
	End    int64
	Parent int // index into spans; -1 for a root span (one per setup/solve/request)
	Lane   int // goroutine lane: 0 for the main goroutine, 1.. for load clients
}

// span is a handle on an open span; the zero value (tracing off) is inert.
type span struct {
	t    *tracer
	id   int
	lane int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// root opens a top-level span on the given lane.
func (t *tracer) root(lane int, layer, name string) span {
	return t.open(-1, lane, layer, name)
}

func (t *tracer) open(parent, lane int, layer, name string) span {
	if t == nil {
		return span{}
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{Name: name, Layer: layer, Start: now, End: -1, Parent: parent, Lane: lane})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return span{t: t, id: id, lane: lane}
}

// child opens a span caused by s, on the same lane.
func (s span) child(layer, name string) span {
	if s.t == nil {
		return span{}
	}
	return s.t.open(s.id, s.lane, layer, name)
}

func (s span) end() {
	if s.t == nil {
		return
	}
	now := int64(time.Since(s.t.epoch))
	s.t.mu.Lock()
	s.t.spans[s.id].End = now
	s.t.mu.Unlock()
}

// in runs fn inside a child span of s.
func (s span) in(layer, name string, fn func()) {
	c := s.child(layer, name)
	fn()
	c.end()
}

// selfTimes returns, per span, its duration minus the part of that interval
// its child spans cover (children may overlap each other, so the covered part
// is the union of their intervals clipped to the parent).
func selfTimes(spans []spanRec) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= s.Start {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.Start
		for _, k := range ivs {
			lo, hi := k.lo, k.hi
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerSelf sums span self times by layer.
func layerSelf(spans []spanRec) map[string]int64 {
	out := map[string]int64{}
	for i, st := range selfTimes(spans) {
		out[spans[i].Layer] += st
	}
	return out
}

// writeSelfTable prints the per-layer self-time table of a traced run.
func (t *tracer) writeSelfTable(w io.Writer) {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	by := layerSelf(spans)
	count := map[string]int{}
	for _, s := range spans {
		count[s.Layer]++
	}
	layers := make([]string, 0, len(by))
	var total int64
	for l, v := range by {
		layers = append(layers, l)
		total += v
	}
	sort.Slice(layers, func(a, b int) bool { return by[layers[a]] > by[layers[b]] })
	fmt.Fprintf(w, "# self time per layer (span duration minus the part its children cover), %d spans\n", len(spans))
	for _, l := range layers {
		fmt.Fprintf(w, "#   %-10s %10.3f ms  %5.1f%%  %6d spans\n", l, float64(by[l])/1e6, 100*float64(by[l])/float64(total), count[l])
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace_event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing, perfetto).
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Lane, Args: map[string]int{"id": i, "parent": s.Parent},
		})
	}
	err = json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
