package attrib

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
	"repro/internal/stream"
)

// smallCalibration shrinks the STREAM arrays so a test bind measures in
// microseconds instead of hundreds of milliseconds, restoring the defaults
// (and clearing the memoized results, which were measured at test size)
// afterwards.
func smallCalibration(t *testing.T) {
	t.Helper()
	size, reps := CalibrationSize, CalibrationReps
	CalibrationSize = 1 << 14
	CalibrationReps = 1
	t.Cleanup(func() {
		CalibrationSize, CalibrationReps = size, reps
		calMu.Lock()
		calCache = map[int]stream.Result{}
		calMu.Unlock()
	})
}

// testKernel builds a deterministic pentadiagonal symmetric kernel.
func testKernel(t *testing.T, method core.ReductionMethod, threads int) (*core.Kernel, *parallel.Pool) {
	t.Helper()
	const n = 3000
	m := matrix.NewCOO(n, n, 3*n)
	m.Symmetric = true
	for i := 0; i < n; i++ {
		m.Add(i, i, 4)
		if i >= 1 {
			m.Add(i, i-1, -1)
		}
		if i >= 40 {
			m.Add(i, i-40, -0.5)
		}
	}
	s, err := core.FromCOO(m)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(threads)
	t.Cleanup(pool.Close)
	return core.NewKernel(s, method, pool), pool
}

// TestAttributionExposition drives sampled operations through a bound engine
// and checks the full export surface: Prometheus family names, labels and
// HELP text; the JSON snapshot's entries; and the /debug/attrib registration.
func TestAttributionExposition(t *testing.T) {
	smallCalibration(t)
	k, _ := testKernel(t, core.EffectiveRanges, 2)
	obs.SetSampling(true)
	t.Cleanup(func() { obs.SetSampling(false) })

	if err := Default.Bind(k); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, k.S.N)
	y := make([]float64, k.S.N)
	for i := range x {
		x[i] = 1 + float64(i%7)
	}
	for i := 0; i < 4; i++ {
		k.MulVec(x, y)
	}

	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# HELP symspmv_attrib_achieved_gbps ",
		"# TYPE symspmv_attrib_achieved_gbps gauge",
		"# TYPE symspmv_attrib_roofline_fraction gauge",
		"# TYPE symspmv_attrib_model_error gauge",
		"# TYPE symspmv_attrib_stream_gbps gauge",
		"# TYPE symspmv_attrib_fraction histogram",
		`symspmv_attrib_achieved_gbps{method="effective-ranges",phase="compute"}`,
		`symspmv_attrib_roofline_fraction{method="effective-ranges",phase="reduction"}`,
		"\nsymspmv_attrib_stream_gbps ",
		`symspmv_attrib_fraction_bucket{method="effective-ranges",phase="compute",le="1.5"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus exposition missing %q", want)
		}
	}

	snap := Default.Snapshot()
	if len(snap.Stream) == 0 {
		t.Fatal("snapshot has no stream calibration")
	}
	found := 0
	for _, e := range snap.Entries {
		if e.Method != "effective-ranges" {
			continue
		}
		found++
		if e.Ops < 4 {
			t.Errorf("%s/%s: ops = %d, want >= 4", e.Method, e.Phase, e.Ops)
		}
		if e.AchievedGBs <= 0 || e.MeasuredUsPerOp <= 0 || e.PredictedBytesPerOp <= 0 {
			t.Errorf("%s/%s: non-positive rates: %+v", e.Method, e.Phase, e)
		}
		if e.RooflineFraction <= 0 {
			t.Errorf("%s/%s: roofline fraction %v, want > 0", e.Method, e.Phase, e.RooflineFraction)
		}
		if e.ModelError <= 0 {
			t.Errorf("%s/%s: model error %v, want > 0", e.Method, e.Phase, e.ModelError)
		}
	}
	if found < 2 {
		t.Fatalf("snapshot has %d effective-ranges entries, want compute and reduction", found)
	}

	// The engine is mounted as a debug endpoint and serves its snapshot.
	if _, ok := obs.DebugHandlers()["/debug/attrib"]; !ok {
		t.Fatal("/debug/attrib not registered")
	}
	rec := httptest.NewRecorder()
	Default.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/attrib", nil))
	var decoded Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("/debug/attrib is not JSON: %v", err)
	}
	if len(decoded.Entries) == 0 {
		t.Fatal("/debug/attrib served no entries")
	}
}

// TestAttributionSkipsEmptyPhases: methods without a phase (colored has no
// reduction) must not grow zero-rate attribution streams.
func TestAttributionSkipsEmptyPhases(t *testing.T) {
	smallCalibration(t)
	eng := newEngine()
	k, _ := testKernel(t, core.Colored, 2)
	obs.SetSampling(true)
	t.Cleanup(func() { obs.SetSampling(false) })
	if err := eng.Bind(k); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, k.S.N)
	y := make([]float64, k.S.N)
	for i := range x {
		x[i] = 1
	}
	for i := 0; i < 3; i++ {
		k.MulVec(x, y)
	}
	for _, e := range eng.Snapshot().Entries {
		if e.Phase == "reduction" {
			t.Fatalf("colored kernel grew a reduction stream: %+v", e)
		}
	}
}

// TestCalibrateMemoizes: same pool size, one measurement.
func TestCalibrateMemoizes(t *testing.T) {
	smallCalibration(t)
	pool := parallel.NewPool(2)
	defer pool.Close()
	a := Calibrate(pool)
	b := Calibrate(pool)
	if a.Triad <= 0 || a != b {
		t.Fatalf("Calibrate did not memoize per pool size: %+v then %+v", a, b)
	}
}

// TestFusedDotPricedPerLane: a fused product at nv lanes is priced as the
// SpMM plus its dot's x and y streams once per lane — the indexed method's
// trailing sweep is compute work.
func TestFusedDotPricedPerLane(t *testing.T) {
	smallCalibration(t)
	eng := newEngine()
	k, _ := testKernel(t, core.Indexed, 2)
	obs.SetSampling(true)
	t.Cleanup(func() { obs.SetSampling(false) })
	if err := eng.Bind(k); err != nil {
		t.Fatal(err)
	}
	const nv = 4
	x, y, dots := make([]float64, k.S.N*nv), make([]float64, k.S.N*nv), make([]float64, nv)
	for i := range x {
		x[i] = 1
	}
	for i := 0; i < 3; i++ {
		if err := k.MulMatDot(x, y, nv, dots); err != nil {
			t.Fatal(err)
		}
	}
	want := float64(perfmodel.SSSCost(k).SpMM(nv).MultBytes + 2*8*int64(k.S.N)*nv)
	for _, e := range eng.Snapshot().Entries {
		if e.Method == "indexed" && e.Phase == "compute" {
			if e.PredictedBytesPerOp != want {
				t.Fatalf("compute bytes per fused nv=%d product %g, want %g", nv, e.PredictedBytesPerOp, want)
			}
			return
		}
	}
	t.Fatal("no indexed compute entry")
}
