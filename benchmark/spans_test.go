package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []spanRec{
		{Name: "root", Layer: "bench", Start: 0, End: 100, Parent: -1},
		{Name: "a", Layer: "core", Start: 10, End: 40, Parent: 0},
		{Name: "b", Layer: "core", Start: 30, End: 60, Parent: 0},     // overlaps a: union covers 10..60
		{Name: "c", Layer: "vec", Start: 90, End: 120, Parent: 0},     // runs past the parent: clipped to 90..100
		{Name: "d", Layer: "parallel", Start: 35, End: 38, Parent: 1}, // grandchild: only a's business
		{Name: "open", Layer: "cg", Start: 5, End: -1, Parent: 0},     // never closed: ignored
	}
	self := selfTimes(spans)
	want := []int64{40, 27, 30, 30, 3, 0}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %q = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	by := layerSelf(spans)
	if by["bench"] != 40 || by["core"] != 57 || by["vec"] != 30 || by["parallel"] != 3 {
		t.Errorf("per-layer self times %v", by)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	sp := tr.root(0, "bench", "x")
	ran := false
	sp.in("core", "y", func() { ran = true })
	sp.child("core", "z").end()
	sp.end()
	if !ran {
		t.Error("span.in did not run its function with tracing off")
	}
}

func TestTracerWritesLoadableChromeTrace(t *testing.T) {
	tr := newTracer()
	root := tr.root(3, "bench", "solve")
	root.in("cg", "Solve", func() {})
	root.end()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(text, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	child := doc.TraceEvents[1]
	if child.Ph != "X" || child.Cat != "cg" || child.Tid != 3 || child.Args["parent"] != 0 {
		t.Errorf("child event %+v: want a complete event of layer cg on lane 3 with parent 0", child)
	}
}
