package fuzzcheck

import (
	"errors"
	"math"
	"testing"

	symspmv "repro"
	"repro/internal/core"
	"repro/internal/format"
)

// The SpMM differential suite: every adversarial case × every SpMM-capable
// format × widths spanning the generic fallback (3) and the register-blocked
// specializations (2, 4, 8) × thread counts, against a serial dense
// multi-RHS reference.

var spmmThreads = []int{1, 3, 8}
var spmmWidths = []int{1, 2, 3, 4, 8}

func TestDifferentialSpMM(t *testing.T) {
	for _, tc := range AdversarialSuite() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			a := buildMatrix(t, tc.M)
			n := tc.M.Rows
			for _, nv := range spmmWidths {
				x := TestX(n*nv, int64(n*nv)+13)
				ref, scale := ReferenceMat(tc.M, x, nv)
				for _, f := range formatsWith(format.MulMat, core.Sym) {
					for _, p := range spmmThreads {
						k, err := a.Kernel(f, symspmv.Threads(p))
						if err != nil {
							t.Errorf("%v p=%d: Kernel: %v", f, p, err)
							continue
						}
						y := make([]float64, n*nv)
						for rep := 0; rep < 2; rep++ {
							for i := range y {
								y[i] = math.NaN()
							}
							if err := symspmv.MulMat(k, x, y, nv); err != nil {
								t.Errorf("%v p=%d nv=%d: MulMat: %v", f, p, nv, err)
								break
							}
							if err := Compare(y, ref, scale, Tol); err != nil {
								t.Errorf("%v p=%d nv=%d rep=%d: %v", f, p, nv, rep, err)
								break
							}
						}
						k.Close()
					}
				}
			}
		})
	}
}

// TestSpMMUnsupportedFormats pins the error contract: formats without an
// SpMM kernel return a typed *MulMatError, never a panic or a wrong answer.
func TestSpMMUnsupportedFormats(t *testing.T) {
	tc := AdversarialSuite()[0]
	for _, c := range AdversarialSuite() {
		if c.Name == "random-spd-150" {
			tc = c
		}
	}
	a := buildMatrix(t, tc.M)
	n := tc.M.Rows
	for _, f := range symspmv.Formats() {
		if f.Desc().Has(format.MulMat, core.Sym) {
			continue
		}
		k, err := a.Kernel(f, symspmv.Threads(2))
		if err != nil {
			t.Fatalf("%v: Kernel: %v", f, err)
		}
		x := make([]float64, n*4)
		y := make([]float64, n*4)
		err = symspmv.MulMat(k, x, y, 4)
		var me *symspmv.MulMatError
		if !errors.As(err, &me) {
			t.Errorf("%v: MulMat error = %v, want *MulMatError", f, err)
		} else if me.Format != f || me.NV != 4 {
			t.Errorf("%v: MulMatError carries %v/nv=%d", f, me.Format, me.NV)
		}
		k.Close()
	}
}
