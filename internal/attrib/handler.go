package attrib

import (
	"encoding/json"
	"net/http"

	"repro/internal/obs"
	"repro/internal/stream"
)

// SnapshotEntry is one attribution stream's cumulative state, as served by
// /debug/attrib.
type SnapshotEntry struct {
	Method              string  `json:"method"`
	Phase               string  `json:"phase"`
	Ops                 int64   `json:"ops"`
	MeasuredUsPerOp     float64 `json:"measured_us_per_op"`
	ModelUsPerOp        float64 `json:"model_us_per_op"`
	PredictedBytesPerOp float64 `json:"predicted_bytes_per_op"`
	AchievedGBs         float64 `json:"achieved_gbps"`
	RooflineGBs         float64 `json:"roofline_gbps"`
	RooflineFraction    float64 `json:"roofline_fraction"`
	ModelError          float64 `json:"model_error"`
}

// SnapshotStream is one pool size's calibrated STREAM measurement.
type SnapshotStream struct {
	Threads  int     `json:"threads"`
	TriadGBs float64 `json:"triad_gbps"`
	ArrayMB  float64 `json:"array_mb"`
}

// Snapshot is the /debug/attrib document.
type Snapshot struct {
	Stream  []SnapshotStream `json:"stream"`
	Entries []SnapshotEntry  `json:"entries"`
}

// Snapshot returns the engine's current attribution state.
func (e *Engine) Snapshot() Snapshot {
	snap := Snapshot{Stream: []SnapshotStream{}, Entries: []SnapshotEntry{}}
	calMu.Lock()
	for _, r := range calCache {
		snap.Stream = append(snap.Stream, SnapshotStream{
			Threads:  r.Threads,
			TriadGBs: stream.GB(r.Triad),
			ArrayMB:  float64(r.ArrayBytes) / (1 << 20),
		})
	}
	calMu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	for _, key := range e.order {
		en := e.entries[key]
		ops := float64(en.ops)
		se := SnapshotEntry{
			Method:              key.Method,
			Phase:               key.Phase,
			Ops:                 en.ops,
			MeasuredUsPerOp:     en.sumMeasNs / ops / 1e3,
			ModelUsPerOp:        en.sumModelNs / ops / 1e3,
			PredictedBytesPerOp: en.sumBytes / ops,
			AchievedGBs:         en.sumBytes / en.sumMeasNs,
			RooflineGBs:         en.rooflineGBs,
		}
		if en.rooflineGBs > 0 {
			se.RooflineFraction = se.AchievedGBs / en.rooflineGBs
		}
		if en.sumModelNs > 0 {
			se.ModelError = en.sumMeasNs / en.sumModelNs
		}
		snap.Entries = append(snap.Entries, se)
	}
	return snap
}

// ServeHTTP serves the snapshot as JSON, making the engine mountable as the
// /debug/attrib endpoint.
func (e *Engine) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(e.Snapshot())
}

func init() {
	obs.HandleDebug("/debug/attrib", Default)
}
