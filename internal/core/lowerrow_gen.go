// Code generated by go run ./gen (internal/core/gen/main.go); DO NOT EDIT.

package core

// multiplyNaiveT is the lower-row loop with the local write policy, the sym
// value policy and lane width 1.
func (k *Kernel) multiplyNaiveT(tid int, x []float64) {
	s := k.S
	n := s.N
	x = x[:n]
	rowPtr := s.RowPtr[: n+1 : n+1]
	colIdx := s.ColIdx
	val := s.Val[:len(colIdx)]
	dv := s.DValues[:n]
	local := k.LV.Vecs[tid][:n]
	lo, hi := int(k.Part.Start[tid]), int(k.Part.End[tid])
	j := uint(rowPtr[lo]) // carried across rows: row r ends where r+1 begins
	for r := lo; r < hi; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		xr := x[r]
		acc := dv[r] * xr
		for ; j < jhi; j++ {
			c := colIdx[j]
			v := val[j]
			acc += v * x[c]    // gather
			local[c] += v * xr // scatter
		}
		local[r] += acc
	}
}

// multiplyEffectiveT is the lower-row loop with the split write policy, the sym
// value policy and lane width 1.
func (k *Kernel) multiplyEffectiveT(tid int, x, y []float64) {
	s := k.S
	n := s.N
	x = x[:n]
	y = y[:n]
	rowPtr := s.RowPtr[: n+1 : n+1]
	colIdx := s.ColIdx
	val := s.Val[:len(colIdx)]
	dv := s.DValues[:n]
	local := k.LV.Vecs[tid]
	lo, hi := int(k.Part.Start[tid]), int(k.Part.End[tid])
	startT := int32(lo)
	j := uint(rowPtr[lo]) // carried across rows: row r ends where r+1 begins
	mid := int(k.splitEnd[tid])
	for r := lo; r < mid; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		xr := x[r]
		acc := dv[r] * xr
		// Columns ascend within a row, so the effective-range boundary is a
		// point in the row: local writes up to it, y writes after it.
		for ; j < jhi; j++ {
			c := colIdx[j]
			if c >= startT {
				break
			}
			v := val[j]
			acc += v * x[c]    // gather
			local[c] += v * xr // scatter
		}
		for ; j < jhi; j++ {
			c := colIdx[j]
			v := val[j]
			acc += v * x[c] // gather
			y[c] += v * xr  // scatter
		}
		y[r] = acc
	}
	// Past the frontier no row stores a column below startT: the y loop alone.
	for r := mid; r < hi; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		xr := x[r]
		acc := dv[r] * xr
		for ; j < jhi; j++ {
			c := colIdx[j]
			v := val[j]
			acc += v * x[c] // gather
			y[c] += v * xr  // scatter
		}
		y[r] = acc
	}
}

// multiplyColoredT is the lower-row loop with the direct write policy, the sym
// value policy and lane width 1.
func (k *Kernel) multiplyColoredT(tid int, cross bool, x, y []float64) {
	s := k.S
	n := s.N
	x = x[:n]
	y = y[:n]
	rowPtr := s.RowPtr[: n+1 : n+1]
	colIdx := s.ColIdx
	val := s.Val[:len(colIdx)]
	dv := s.DValues[:n]
	lo, hi := int(k.Part.Start[tid]), int(k.Part.End[tid])
	startT := int32(lo)
	j := uint(rowPtr[lo]) // carried across rows: row r ends where r+1 begins
	mid := int(k.splitEnd[tid])
	if cross {
		// Phase 2: the frontier rows' columns below startT, which phase 1 skipped.
		for r := lo; r < mid; r++ {
			j = uint(rowPtr[r])
			// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
			jhi := uint(rowPtr[r+1])
			if jhi > uint(len(colIdx)) {
				panic(rowPtrOverrun(r))
			}
			xr := x[r]
			acc := y[r]
			for ; j < jhi; j++ {
				c := colIdx[j]
				if c >= startT {
					break
				}
				v := val[j]
				acc += v * x[c] // gather
				y[c] += v * xr  // scatter
			}
			y[r] = acc
		}
		return
	}
	for r := lo; r < mid; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		xr := x[r]
		acc := dv[r] * xr
		// The columns below startT are phase 2's.
		for j < jhi && colIdx[j] < startT {
			j++
		}
		for ; j < jhi; j++ {
			c := colIdx[j]
			v := val[j]
			acc += v * x[c] // gather
			y[c] += v * xr  // scatter
		}
		y[r] = acc
	}
	// Past the frontier no row stores a column below startT: the y loop alone.
	for r := mid; r < hi; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		xr := x[r]
		acc := dv[r] * xr
		for ; j < jhi; j++ {
			c := colIdx[j]
			v := val[j]
			acc += v * x[c] // gather
			y[c] += v * xr  // scatter
		}
		y[r] = acc
	}
}

// multiplyNaiveKindT is the lower-row loop with the local write policy, the kind
// value policy and lane width 1.
func (k *Kernel) multiplyNaiveKindT(tid int, x []float64) {
	s := k.S
	n := s.N
	x = x[:n]
	rowPtr := s.RowPtr[: n+1 : n+1]
	colIdx := s.ColIdx
	val := s.Val[:len(colIdx)]
	uval, sign := s.kindUval()
	uval = uval[:len(colIdx)]
	dv := s.DValues
	local := k.LV.Vecs[tid][:n]
	lo, hi := int(k.Part.Start[tid]), int(k.Part.End[tid])
	j := uint(rowPtr[lo]) // carried across rows: row r ends where r+1 begins
	for r := lo; r < hi; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		xr := x[r]
		acc := 0.0
		if dv != nil {
			acc = dv[r] * xr
		}
		for ; j < jhi; j++ {
			c := colIdx[j]
			acc += val[j] * x[c]            // gather
			local[c] += sign * uval[j] * xr // scatter
		}
		local[r] += acc
	}
}

// multiplyEffectiveKindT is the lower-row loop with the split write policy, the kind
// value policy and lane width 1.
func (k *Kernel) multiplyEffectiveKindT(tid int, x, y []float64) {
	s := k.S
	n := s.N
	x = x[:n]
	y = y[:n]
	rowPtr := s.RowPtr[: n+1 : n+1]
	colIdx := s.ColIdx
	val := s.Val[:len(colIdx)]
	uval, sign := s.kindUval()
	uval = uval[:len(colIdx)]
	dv := s.DValues
	local := k.LV.Vecs[tid]
	lo, hi := int(k.Part.Start[tid]), int(k.Part.End[tid])
	startT := int32(lo)
	j := uint(rowPtr[lo]) // carried across rows: row r ends where r+1 begins
	mid := int(k.splitEnd[tid])
	for r := lo; r < mid; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		xr := x[r]
		acc := 0.0
		if dv != nil {
			acc = dv[r] * xr
		}
		// Columns ascend within a row, so the effective-range boundary is a
		// point in the row: local writes up to it, y writes after it.
		for ; j < jhi; j++ {
			c := colIdx[j]
			if c >= startT {
				break
			}
			acc += val[j] * x[c]            // gather
			local[c] += sign * uval[j] * xr // scatter
		}
		for ; j < jhi; j++ {
			c := colIdx[j]
			acc += val[j] * x[c]        // gather
			y[c] += sign * uval[j] * xr // scatter
		}
		y[r] = acc
	}
	// Past the frontier no row stores a column below startT: the y loop alone.
	for r := mid; r < hi; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		xr := x[r]
		acc := 0.0
		if dv != nil {
			acc = dv[r] * xr
		}
		for ; j < jhi; j++ {
			c := colIdx[j]
			acc += val[j] * x[c]        // gather
			y[c] += sign * uval[j] * xr // scatter
		}
		y[r] = acc
	}
}

// multiplyColoredKindT is the lower-row loop with the direct write policy, the kind
// value policy and lane width 1.
func (k *Kernel) multiplyColoredKindT(tid int, cross bool, x, y []float64) {
	s := k.S
	n := s.N
	x = x[:n]
	y = y[:n]
	rowPtr := s.RowPtr[: n+1 : n+1]
	colIdx := s.ColIdx
	val := s.Val[:len(colIdx)]
	uval, sign := s.kindUval()
	uval = uval[:len(colIdx)]
	dv := s.DValues
	lo, hi := int(k.Part.Start[tid]), int(k.Part.End[tid])
	startT := int32(lo)
	j := uint(rowPtr[lo]) // carried across rows: row r ends where r+1 begins
	mid := int(k.splitEnd[tid])
	if cross {
		// Phase 2: the frontier rows' columns below startT, which phase 1 skipped.
		for r := lo; r < mid; r++ {
			j = uint(rowPtr[r])
			// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
			jhi := uint(rowPtr[r+1])
			if jhi > uint(len(colIdx)) {
				panic(rowPtrOverrun(r))
			}
			xr := x[r]
			acc := y[r]
			for ; j < jhi; j++ {
				c := colIdx[j]
				if c >= startT {
					break
				}
				acc += val[j] * x[c]        // gather
				y[c] += sign * uval[j] * xr // scatter
			}
			y[r] = acc
		}
		return
	}
	for r := lo; r < mid; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		xr := x[r]
		acc := 0.0
		if dv != nil {
			acc = dv[r] * xr
		}
		// The columns below startT are phase 2's.
		for j < jhi && colIdx[j] < startT {
			j++
		}
		for ; j < jhi; j++ {
			c := colIdx[j]
			acc += val[j] * x[c]        // gather
			y[c] += sign * uval[j] * xr // scatter
		}
		y[r] = acc
	}
	// Past the frontier no row stores a column below startT: the y loop alone.
	for r := mid; r < hi; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		xr := x[r]
		acc := 0.0
		if dv != nil {
			acc = dv[r] * xr
		}
		for ; j < jhi; j++ {
			c := colIdx[j]
			acc += val[j] * x[c]        // gather
			y[c] += sign * uval[j] * xr // scatter
		}
		y[r] = acc
	}
}

// mulMatNaiveT is the lower-row loop with the local write policy, the sym
// value policy and lane width nv.
func (k *Kernel) mulMatNaiveT(tid, nv int) {
	s := k.S
	n := s.N
	x := k.curX
	rowPtr := s.RowPtr[: n+1 : n+1]
	colIdx := s.ColIdx
	val := s.Val[:len(colIdx)]
	dv := s.DValues[:n]
	local := k.LV.Vecs[tid]
	lo, hi := int(k.Part.Start[tid]), int(k.Part.End[tid])
	j := uint(rowPtr[lo]) // carried across rows: row r ends where r+1 begins
	for r := lo; r < hi; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		ri := r * nv
		xr := x[ri : ri+nv : ri+nv]
		row := local[ri : ri+nv : ri+nv]
		d := dv[r]
		for v := range xr {
			row[v] += d * xr[v]
		}
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			ci := c * nv
			a := val[j]
			xc := x[ci : ci+nv : ci+nv]     // gather
			tc := local[ci : ci+nv : ci+nv] // scatter
			for v := range xc {
				row[v] += a * xc[v]
				tc[v] += a * xr[v]
			}
		}
	}
}

// mulMatNaive2T is the lower-row loop with the local write policy, the sym
// value policy and lane width 2.
func (k *Kernel) mulMatNaive2T(tid int) {
	s := k.S
	n := s.N
	x := k.curX
	rowPtr := s.RowPtr[: n+1 : n+1]
	colIdx := s.ColIdx
	val := s.Val[:len(colIdx)]
	dv := s.DValues[:n]
	local := k.LV.Vecs[tid]
	lo, hi := int(k.Part.Start[tid]), int(k.Part.End[tid])
	j := uint(rowPtr[lo]) // carried across rows: row r ends where r+1 begins
	for r := lo; r < hi; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		ri := r * 2
		xr := x[ri : ri+2 : ri+2]
		xr0 := xr[0]
		xr1 := xr[1]
		d := dv[r]
		acc0 := d * xr0
		acc1 := d * xr1
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			ci := c * 2
			a := val[j]
			xc := x[ci : ci+2 : ci+2] // gather
			acc0 += a * xc[0]
			acc1 += a * xc[1]
			tc := local[ci : ci+2 : ci+2] // scatter
			tc[0] += a * xr0
			tc[1] += a * xr1
		}
		row := local[ri : ri+2 : ri+2]
		row[0] += acc0
		row[1] += acc1
	}
}

// mulMatNaive4T is the lower-row loop with the local write policy, the sym
// value policy and lane width 4.
func (k *Kernel) mulMatNaive4T(tid int) {
	s := k.S
	n := s.N
	x := k.curX
	rowPtr := s.RowPtr[: n+1 : n+1]
	colIdx := s.ColIdx
	val := s.Val[:len(colIdx)]
	dv := s.DValues[:n]
	local := k.LV.Vecs[tid]
	lo, hi := int(k.Part.Start[tid]), int(k.Part.End[tid])
	j := uint(rowPtr[lo]) // carried across rows: row r ends where r+1 begins
	for r := lo; r < hi; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		ri := r * 4
		xr := x[ri : ri+4 : ri+4]
		xr0 := xr[0]
		xr1 := xr[1]
		xr2 := xr[2]
		xr3 := xr[3]
		d := dv[r]
		acc0 := d * xr0
		acc1 := d * xr1
		acc2 := d * xr2
		acc3 := d * xr3
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			ci := c * 4
			a := val[j]
			xc := x[ci : ci+4 : ci+4] // gather
			acc0 += a * xc[0]
			acc1 += a * xc[1]
			acc2 += a * xc[2]
			acc3 += a * xc[3]
			tc := local[ci : ci+4 : ci+4] // scatter
			tc[0] += a * xr0
			tc[1] += a * xr1
			tc[2] += a * xr2
			tc[3] += a * xr3
		}
		row := local[ri : ri+4 : ri+4]
		row[0] += acc0
		row[1] += acc1
		row[2] += acc2
		row[3] += acc3
	}
}

// mulMatNaive8T is the lower-row loop with the local write policy, the sym
// value policy and lane width 8.
func (k *Kernel) mulMatNaive8T(tid int) {
	s := k.S
	n := s.N
	x := k.curX
	rowPtr := s.RowPtr[: n+1 : n+1]
	colIdx := s.ColIdx
	val := s.Val[:len(colIdx)]
	dv := s.DValues[:n]
	local := k.LV.Vecs[tid]
	lo, hi := int(k.Part.Start[tid]), int(k.Part.End[tid])
	j := uint(rowPtr[lo]) // carried across rows: row r ends where r+1 begins
	for r := lo; r < hi; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		ri := r * 8
		xr := x[ri : ri+8 : ri+8]
		xr0 := xr[0]
		xr1 := xr[1]
		xr2 := xr[2]
		xr3 := xr[3]
		xr4 := xr[4]
		xr5 := xr[5]
		xr6 := xr[6]
		xr7 := xr[7]
		d := dv[r]
		acc0 := d * xr0
		acc1 := d * xr1
		acc2 := d * xr2
		acc3 := d * xr3
		acc4 := d * xr4
		acc5 := d * xr5
		acc6 := d * xr6
		acc7 := d * xr7
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			ci := c * 8
			a := val[j]
			xc := x[ci : ci+8 : ci+8] // gather
			acc0 += a * xc[0]
			acc1 += a * xc[1]
			acc2 += a * xc[2]
			acc3 += a * xc[3]
			acc4 += a * xc[4]
			acc5 += a * xc[5]
			acc6 += a * xc[6]
			acc7 += a * xc[7]
			tc := local[ci : ci+8 : ci+8] // scatter
			tc[0] += a * xr0
			tc[1] += a * xr1
			tc[2] += a * xr2
			tc[3] += a * xr3
			tc[4] += a * xr4
			tc[5] += a * xr5
			tc[6] += a * xr6
			tc[7] += a * xr7
		}
		row := local[ri : ri+8 : ri+8]
		row[0] += acc0
		row[1] += acc1
		row[2] += acc2
		row[3] += acc3
		row[4] += acc4
		row[5] += acc5
		row[6] += acc6
		row[7] += acc7
	}
}

// mulMatEffectiveT is the lower-row loop with the split write policy, the sym
// value policy and lane width nv.
func (k *Kernel) mulMatEffectiveT(tid, nv int) {
	s := k.S
	n := s.N
	x, y := k.curX, k.curY
	rowPtr := s.RowPtr[: n+1 : n+1]
	colIdx := s.ColIdx
	val := s.Val[:len(colIdx)]
	dv := s.DValues[:n]
	local := k.LV.Vecs[tid]
	lo, hi := int(k.Part.Start[tid]), int(k.Part.End[tid])
	startT := lo
	j := uint(rowPtr[lo]) // carried across rows: row r ends where r+1 begins
	mid := int(k.splitEnd[tid])
	for r := lo; r < mid; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		ri := r * nv
		xr := x[ri : ri+nv : ri+nv]
		row := y[ri : ri+nv : ri+nv]
		d := dv[r]
		for v := range xr {
			row[v] = d * xr[v]
		}
		// Columns ascend within a row, so the effective-range boundary is a
		// point in the row: local writes up to it, y writes after it.
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			if c >= startT {
				break
			}
			ci := c * nv
			a := val[j]
			xc := x[ci : ci+nv : ci+nv]     // gather
			tc := local[ci : ci+nv : ci+nv] // scatter
			for v := range xc {
				row[v] += a * xc[v]
				tc[v] += a * xr[v]
			}
		}
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			ci := c * nv
			a := val[j]
			xc := x[ci : ci+nv : ci+nv] // gather
			tc := y[ci : ci+nv : ci+nv] // scatter
			for v := range xc {
				row[v] += a * xc[v]
				tc[v] += a * xr[v]
			}
		}
	}
	// Past the frontier no row stores a column below startT: the y loop alone.
	for r := mid; r < hi; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		ri := r * nv
		xr := x[ri : ri+nv : ri+nv]
		row := y[ri : ri+nv : ri+nv]
		d := dv[r]
		for v := range xr {
			row[v] = d * xr[v]
		}
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			ci := c * nv
			a := val[j]
			xc := x[ci : ci+nv : ci+nv] // gather
			tc := y[ci : ci+nv : ci+nv] // scatter
			for v := range xc {
				row[v] += a * xc[v]
				tc[v] += a * xr[v]
			}
		}
	}
}

// mulMatEffective2T is the lower-row loop with the split write policy, the sym
// value policy and lane width 2.
func (k *Kernel) mulMatEffective2T(tid int) {
	s := k.S
	n := s.N
	x, y := k.curX, k.curY
	rowPtr := s.RowPtr[: n+1 : n+1]
	colIdx := s.ColIdx
	val := s.Val[:len(colIdx)]
	dv := s.DValues[:n]
	local := k.LV.Vecs[tid]
	lo, hi := int(k.Part.Start[tid]), int(k.Part.End[tid])
	startT := lo
	j := uint(rowPtr[lo]) // carried across rows: row r ends where r+1 begins
	mid := int(k.splitEnd[tid])
	for r := lo; r < mid; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		ri := r * 2
		xr := x[ri : ri+2 : ri+2]
		xr0 := xr[0]
		xr1 := xr[1]
		d := dv[r]
		acc0 := d * xr0
		acc1 := d * xr1
		// Columns ascend within a row, so the effective-range boundary is a
		// point in the row: local writes up to it, y writes after it.
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			if c >= startT {
				break
			}
			ci := c * 2
			a := val[j]
			xc := x[ci : ci+2 : ci+2] // gather
			acc0 += a * xc[0]
			acc1 += a * xc[1]
			tc := local[ci : ci+2 : ci+2] // scatter
			tc[0] += a * xr0
			tc[1] += a * xr1
		}
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			ci := c * 2
			a := val[j]
			xc := x[ci : ci+2 : ci+2] // gather
			acc0 += a * xc[0]
			acc1 += a * xc[1]
			tc := y[ci : ci+2 : ci+2] // scatter
			tc[0] += a * xr0
			tc[1] += a * xr1
		}
		row := y[ri : ri+2 : ri+2]
		row[0] = acc0
		row[1] = acc1
	}
	// Past the frontier no row stores a column below startT: the y loop alone.
	for r := mid; r < hi; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		ri := r * 2
		xr := x[ri : ri+2 : ri+2]
		xr0 := xr[0]
		xr1 := xr[1]
		d := dv[r]
		acc0 := d * xr0
		acc1 := d * xr1
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			ci := c * 2
			a := val[j]
			xc := x[ci : ci+2 : ci+2] // gather
			acc0 += a * xc[0]
			acc1 += a * xc[1]
			tc := y[ci : ci+2 : ci+2] // scatter
			tc[0] += a * xr0
			tc[1] += a * xr1
		}
		row := y[ri : ri+2 : ri+2]
		row[0] = acc0
		row[1] = acc1
	}
}

// mulMatEffective4T is the lower-row loop with the split write policy, the sym
// value policy and lane width 4.
func (k *Kernel) mulMatEffective4T(tid int) {
	s := k.S
	n := s.N
	x, y := k.curX, k.curY
	rowPtr := s.RowPtr[: n+1 : n+1]
	colIdx := s.ColIdx
	val := s.Val[:len(colIdx)]
	dv := s.DValues[:n]
	local := k.LV.Vecs[tid]
	lo, hi := int(k.Part.Start[tid]), int(k.Part.End[tid])
	startT := lo
	j := uint(rowPtr[lo]) // carried across rows: row r ends where r+1 begins
	mid := int(k.splitEnd[tid])
	for r := lo; r < mid; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		ri := r * 4
		xr := x[ri : ri+4 : ri+4]
		xr0 := xr[0]
		xr1 := xr[1]
		xr2 := xr[2]
		xr3 := xr[3]
		d := dv[r]
		acc0 := d * xr0
		acc1 := d * xr1
		acc2 := d * xr2
		acc3 := d * xr3
		// Columns ascend within a row, so the effective-range boundary is a
		// point in the row: local writes up to it, y writes after it.
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			if c >= startT {
				break
			}
			ci := c * 4
			a := val[j]
			xc := x[ci : ci+4 : ci+4] // gather
			acc0 += a * xc[0]
			acc1 += a * xc[1]
			acc2 += a * xc[2]
			acc3 += a * xc[3]
			tc := local[ci : ci+4 : ci+4] // scatter
			tc[0] += a * xr0
			tc[1] += a * xr1
			tc[2] += a * xr2
			tc[3] += a * xr3
		}
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			ci := c * 4
			a := val[j]
			xc := x[ci : ci+4 : ci+4] // gather
			acc0 += a * xc[0]
			acc1 += a * xc[1]
			acc2 += a * xc[2]
			acc3 += a * xc[3]
			tc := y[ci : ci+4 : ci+4] // scatter
			tc[0] += a * xr0
			tc[1] += a * xr1
			tc[2] += a * xr2
			tc[3] += a * xr3
		}
		row := y[ri : ri+4 : ri+4]
		row[0] = acc0
		row[1] = acc1
		row[2] = acc2
		row[3] = acc3
	}
	// Past the frontier no row stores a column below startT: the y loop alone.
	for r := mid; r < hi; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		ri := r * 4
		xr := x[ri : ri+4 : ri+4]
		xr0 := xr[0]
		xr1 := xr[1]
		xr2 := xr[2]
		xr3 := xr[3]
		d := dv[r]
		acc0 := d * xr0
		acc1 := d * xr1
		acc2 := d * xr2
		acc3 := d * xr3
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			ci := c * 4
			a := val[j]
			xc := x[ci : ci+4 : ci+4] // gather
			acc0 += a * xc[0]
			acc1 += a * xc[1]
			acc2 += a * xc[2]
			acc3 += a * xc[3]
			tc := y[ci : ci+4 : ci+4] // scatter
			tc[0] += a * xr0
			tc[1] += a * xr1
			tc[2] += a * xr2
			tc[3] += a * xr3
		}
		row := y[ri : ri+4 : ri+4]
		row[0] = acc0
		row[1] = acc1
		row[2] = acc2
		row[3] = acc3
	}
}

// mulMatEffective8T is the lower-row loop with the split write policy, the sym
// value policy and lane width 8.
func (k *Kernel) mulMatEffective8T(tid int) {
	s := k.S
	n := s.N
	x, y := k.curX, k.curY
	rowPtr := s.RowPtr[: n+1 : n+1]
	colIdx := s.ColIdx
	val := s.Val[:len(colIdx)]
	dv := s.DValues[:n]
	local := k.LV.Vecs[tid]
	lo, hi := int(k.Part.Start[tid]), int(k.Part.End[tid])
	startT := lo
	j := uint(rowPtr[lo]) // carried across rows: row r ends where r+1 begins
	mid := int(k.splitEnd[tid])
	for r := lo; r < mid; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		ri := r * 8
		xr := x[ri : ri+8 : ri+8]
		xr0 := xr[0]
		xr1 := xr[1]
		xr2 := xr[2]
		xr3 := xr[3]
		xr4 := xr[4]
		xr5 := xr[5]
		xr6 := xr[6]
		xr7 := xr[7]
		d := dv[r]
		acc0 := d * xr0
		acc1 := d * xr1
		acc2 := d * xr2
		acc3 := d * xr3
		acc4 := d * xr4
		acc5 := d * xr5
		acc6 := d * xr6
		acc7 := d * xr7
		// Columns ascend within a row, so the effective-range boundary is a
		// point in the row: local writes up to it, y writes after it.
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			if c >= startT {
				break
			}
			ci := c * 8
			a := val[j]
			xc := x[ci : ci+8 : ci+8] // gather
			acc0 += a * xc[0]
			acc1 += a * xc[1]
			acc2 += a * xc[2]
			acc3 += a * xc[3]
			acc4 += a * xc[4]
			acc5 += a * xc[5]
			acc6 += a * xc[6]
			acc7 += a * xc[7]
			tc := local[ci : ci+8 : ci+8] // scatter
			tc[0] += a * xr0
			tc[1] += a * xr1
			tc[2] += a * xr2
			tc[3] += a * xr3
			tc[4] += a * xr4
			tc[5] += a * xr5
			tc[6] += a * xr6
			tc[7] += a * xr7
		}
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			ci := c * 8
			a := val[j]
			xc := x[ci : ci+8 : ci+8] // gather
			acc0 += a * xc[0]
			acc1 += a * xc[1]
			acc2 += a * xc[2]
			acc3 += a * xc[3]
			acc4 += a * xc[4]
			acc5 += a * xc[5]
			acc6 += a * xc[6]
			acc7 += a * xc[7]
			tc := y[ci : ci+8 : ci+8] // scatter
			tc[0] += a * xr0
			tc[1] += a * xr1
			tc[2] += a * xr2
			tc[3] += a * xr3
			tc[4] += a * xr4
			tc[5] += a * xr5
			tc[6] += a * xr6
			tc[7] += a * xr7
		}
		row := y[ri : ri+8 : ri+8]
		row[0] = acc0
		row[1] = acc1
		row[2] = acc2
		row[3] = acc3
		row[4] = acc4
		row[5] = acc5
		row[6] = acc6
		row[7] = acc7
	}
	// Past the frontier no row stores a column below startT: the y loop alone.
	for r := mid; r < hi; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		ri := r * 8
		xr := x[ri : ri+8 : ri+8]
		xr0 := xr[0]
		xr1 := xr[1]
		xr2 := xr[2]
		xr3 := xr[3]
		xr4 := xr[4]
		xr5 := xr[5]
		xr6 := xr[6]
		xr7 := xr[7]
		d := dv[r]
		acc0 := d * xr0
		acc1 := d * xr1
		acc2 := d * xr2
		acc3 := d * xr3
		acc4 := d * xr4
		acc5 := d * xr5
		acc6 := d * xr6
		acc7 := d * xr7
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			ci := c * 8
			a := val[j]
			xc := x[ci : ci+8 : ci+8] // gather
			acc0 += a * xc[0]
			acc1 += a * xc[1]
			acc2 += a * xc[2]
			acc3 += a * xc[3]
			acc4 += a * xc[4]
			acc5 += a * xc[5]
			acc6 += a * xc[6]
			acc7 += a * xc[7]
			tc := y[ci : ci+8 : ci+8] // scatter
			tc[0] += a * xr0
			tc[1] += a * xr1
			tc[2] += a * xr2
			tc[3] += a * xr3
			tc[4] += a * xr4
			tc[5] += a * xr5
			tc[6] += a * xr6
			tc[7] += a * xr7
		}
		row := y[ri : ri+8 : ri+8]
		row[0] = acc0
		row[1] = acc1
		row[2] = acc2
		row[3] = acc3
		row[4] = acc4
		row[5] = acc5
		row[6] = acc6
		row[7] = acc7
	}
}

// mulMatColoredT is the lower-row loop with the direct write policy, the sym
// value policy and lane width nv.
func (k *Kernel) mulMatColoredT(tid int, cross bool, nv int) {
	s := k.S
	n := s.N
	x, y := k.curX, k.curY
	rowPtr := s.RowPtr[: n+1 : n+1]
	colIdx := s.ColIdx
	val := s.Val[:len(colIdx)]
	dv := s.DValues[:n]
	lo, hi := int(k.Part.Start[tid]), int(k.Part.End[tid])
	startT := lo
	j := uint(rowPtr[lo]) // carried across rows: row r ends where r+1 begins
	mid := int(k.splitEnd[tid])
	if cross {
		// Phase 2: the frontier rows' columns below startT, which phase 1 skipped.
		for r := lo; r < mid; r++ {
			j = uint(rowPtr[r])
			// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
			jhi := uint(rowPtr[r+1])
			if jhi > uint(len(colIdx)) {
				panic(rowPtrOverrun(r))
			}
			ri := r * nv
			xr := x[ri : ri+nv : ri+nv]
			row := y[ri : ri+nv : ri+nv]
			for ; j < jhi; j++ {
				c := int(colIdx[j])
				if c >= startT {
					break
				}
				ci := c * nv
				a := val[j]
				xc := x[ci : ci+nv : ci+nv] // gather
				tc := y[ci : ci+nv : ci+nv] // scatter
				for v := range xc {
					row[v] += a * xc[v]
					tc[v] += a * xr[v]
				}
			}
		}
		return
	}
	for r := lo; r < mid; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		ri := r * nv
		xr := x[ri : ri+nv : ri+nv]
		row := y[ri : ri+nv : ri+nv]
		d := dv[r]
		for v := range xr {
			row[v] = d * xr[v]
		}
		// The columns below startT are phase 2's.
		for j < jhi && int(colIdx[j]) < startT {
			j++
		}
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			ci := c * nv
			a := val[j]
			xc := x[ci : ci+nv : ci+nv] // gather
			tc := y[ci : ci+nv : ci+nv] // scatter
			for v := range xc {
				row[v] += a * xc[v]
				tc[v] += a * xr[v]
			}
		}
	}
	// Past the frontier no row stores a column below startT: the y loop alone.
	for r := mid; r < hi; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		ri := r * nv
		xr := x[ri : ri+nv : ri+nv]
		row := y[ri : ri+nv : ri+nv]
		d := dv[r]
		for v := range xr {
			row[v] = d * xr[v]
		}
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			ci := c * nv
			a := val[j]
			xc := x[ci : ci+nv : ci+nv] // gather
			tc := y[ci : ci+nv : ci+nv] // scatter
			for v := range xc {
				row[v] += a * xc[v]
				tc[v] += a * xr[v]
			}
		}
	}
}

// mulMatColored2T is the lower-row loop with the direct write policy, the sym
// value policy and lane width 2.
func (k *Kernel) mulMatColored2T(tid int, cross bool) {
	s := k.S
	n := s.N
	x, y := k.curX, k.curY
	rowPtr := s.RowPtr[: n+1 : n+1]
	colIdx := s.ColIdx
	val := s.Val[:len(colIdx)]
	dv := s.DValues[:n]
	lo, hi := int(k.Part.Start[tid]), int(k.Part.End[tid])
	startT := lo
	j := uint(rowPtr[lo]) // carried across rows: row r ends where r+1 begins
	mid := int(k.splitEnd[tid])
	if cross {
		// Phase 2: the frontier rows' columns below startT, which phase 1 skipped.
		for r := lo; r < mid; r++ {
			j = uint(rowPtr[r])
			// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
			jhi := uint(rowPtr[r+1])
			if jhi > uint(len(colIdx)) {
				panic(rowPtrOverrun(r))
			}
			ri := r * 2
			xr := x[ri : ri+2 : ri+2]
			xr0 := xr[0]
			xr1 := xr[1]
			row := y[ri : ri+2 : ri+2]
			acc0 := row[0]
			acc1 := row[1]
			for ; j < jhi; j++ {
				c := int(colIdx[j])
				if c >= startT {
					break
				}
				ci := c * 2
				a := val[j]
				xc := x[ci : ci+2 : ci+2] // gather
				acc0 += a * xc[0]
				acc1 += a * xc[1]
				tc := y[ci : ci+2 : ci+2] // scatter
				tc[0] += a * xr0
				tc[1] += a * xr1
			}
			row[0] = acc0
			row[1] = acc1
		}
		return
	}
	for r := lo; r < mid; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		ri := r * 2
		xr := x[ri : ri+2 : ri+2]
		xr0 := xr[0]
		xr1 := xr[1]
		d := dv[r]
		acc0 := d * xr0
		acc1 := d * xr1
		// The columns below startT are phase 2's.
		for j < jhi && int(colIdx[j]) < startT {
			j++
		}
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			ci := c * 2
			a := val[j]
			xc := x[ci : ci+2 : ci+2] // gather
			acc0 += a * xc[0]
			acc1 += a * xc[1]
			tc := y[ci : ci+2 : ci+2] // scatter
			tc[0] += a * xr0
			tc[1] += a * xr1
		}
		row := y[ri : ri+2 : ri+2]
		row[0] = acc0
		row[1] = acc1
	}
	// Past the frontier no row stores a column below startT: the y loop alone.
	for r := mid; r < hi; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		ri := r * 2
		xr := x[ri : ri+2 : ri+2]
		xr0 := xr[0]
		xr1 := xr[1]
		d := dv[r]
		acc0 := d * xr0
		acc1 := d * xr1
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			ci := c * 2
			a := val[j]
			xc := x[ci : ci+2 : ci+2] // gather
			acc0 += a * xc[0]
			acc1 += a * xc[1]
			tc := y[ci : ci+2 : ci+2] // scatter
			tc[0] += a * xr0
			tc[1] += a * xr1
		}
		row := y[ri : ri+2 : ri+2]
		row[0] = acc0
		row[1] = acc1
	}
}

// mulMatColored4T is the lower-row loop with the direct write policy, the sym
// value policy and lane width 4.
func (k *Kernel) mulMatColored4T(tid int, cross bool) {
	s := k.S
	n := s.N
	x, y := k.curX, k.curY
	rowPtr := s.RowPtr[: n+1 : n+1]
	colIdx := s.ColIdx
	val := s.Val[:len(colIdx)]
	dv := s.DValues[:n]
	lo, hi := int(k.Part.Start[tid]), int(k.Part.End[tid])
	startT := lo
	j := uint(rowPtr[lo]) // carried across rows: row r ends where r+1 begins
	mid := int(k.splitEnd[tid])
	if cross {
		// Phase 2: the frontier rows' columns below startT, which phase 1 skipped.
		for r := lo; r < mid; r++ {
			j = uint(rowPtr[r])
			// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
			jhi := uint(rowPtr[r+1])
			if jhi > uint(len(colIdx)) {
				panic(rowPtrOverrun(r))
			}
			ri := r * 4
			xr := x[ri : ri+4 : ri+4]
			xr0 := xr[0]
			xr1 := xr[1]
			xr2 := xr[2]
			xr3 := xr[3]
			row := y[ri : ri+4 : ri+4]
			acc0 := row[0]
			acc1 := row[1]
			acc2 := row[2]
			acc3 := row[3]
			for ; j < jhi; j++ {
				c := int(colIdx[j])
				if c >= startT {
					break
				}
				ci := c * 4
				a := val[j]
				xc := x[ci : ci+4 : ci+4] // gather
				acc0 += a * xc[0]
				acc1 += a * xc[1]
				acc2 += a * xc[2]
				acc3 += a * xc[3]
				tc := y[ci : ci+4 : ci+4] // scatter
				tc[0] += a * xr0
				tc[1] += a * xr1
				tc[2] += a * xr2
				tc[3] += a * xr3
			}
			row[0] = acc0
			row[1] = acc1
			row[2] = acc2
			row[3] = acc3
		}
		return
	}
	for r := lo; r < mid; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		ri := r * 4
		xr := x[ri : ri+4 : ri+4]
		xr0 := xr[0]
		xr1 := xr[1]
		xr2 := xr[2]
		xr3 := xr[3]
		d := dv[r]
		acc0 := d * xr0
		acc1 := d * xr1
		acc2 := d * xr2
		acc3 := d * xr3
		// The columns below startT are phase 2's.
		for j < jhi && int(colIdx[j]) < startT {
			j++
		}
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			ci := c * 4
			a := val[j]
			xc := x[ci : ci+4 : ci+4] // gather
			acc0 += a * xc[0]
			acc1 += a * xc[1]
			acc2 += a * xc[2]
			acc3 += a * xc[3]
			tc := y[ci : ci+4 : ci+4] // scatter
			tc[0] += a * xr0
			tc[1] += a * xr1
			tc[2] += a * xr2
			tc[3] += a * xr3
		}
		row := y[ri : ri+4 : ri+4]
		row[0] = acc0
		row[1] = acc1
		row[2] = acc2
		row[3] = acc3
	}
	// Past the frontier no row stores a column below startT: the y loop alone.
	for r := mid; r < hi; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		ri := r * 4
		xr := x[ri : ri+4 : ri+4]
		xr0 := xr[0]
		xr1 := xr[1]
		xr2 := xr[2]
		xr3 := xr[3]
		d := dv[r]
		acc0 := d * xr0
		acc1 := d * xr1
		acc2 := d * xr2
		acc3 := d * xr3
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			ci := c * 4
			a := val[j]
			xc := x[ci : ci+4 : ci+4] // gather
			acc0 += a * xc[0]
			acc1 += a * xc[1]
			acc2 += a * xc[2]
			acc3 += a * xc[3]
			tc := y[ci : ci+4 : ci+4] // scatter
			tc[0] += a * xr0
			tc[1] += a * xr1
			tc[2] += a * xr2
			tc[3] += a * xr3
		}
		row := y[ri : ri+4 : ri+4]
		row[0] = acc0
		row[1] = acc1
		row[2] = acc2
		row[3] = acc3
	}
}

// mulMatColored8T is the lower-row loop with the direct write policy, the sym
// value policy and lane width 8.
func (k *Kernel) mulMatColored8T(tid int, cross bool) {
	s := k.S
	n := s.N
	x, y := k.curX, k.curY
	rowPtr := s.RowPtr[: n+1 : n+1]
	colIdx := s.ColIdx
	val := s.Val[:len(colIdx)]
	dv := s.DValues[:n]
	lo, hi := int(k.Part.Start[tid]), int(k.Part.End[tid])
	startT := lo
	j := uint(rowPtr[lo]) // carried across rows: row r ends where r+1 begins
	mid := int(k.splitEnd[tid])
	if cross {
		// Phase 2: the frontier rows' columns below startT, which phase 1 skipped.
		for r := lo; r < mid; r++ {
			j = uint(rowPtr[r])
			// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
			jhi := uint(rowPtr[r+1])
			if jhi > uint(len(colIdx)) {
				panic(rowPtrOverrun(r))
			}
			ri := r * 8
			xr := x[ri : ri+8 : ri+8]
			xr0 := xr[0]
			xr1 := xr[1]
			xr2 := xr[2]
			xr3 := xr[3]
			xr4 := xr[4]
			xr5 := xr[5]
			xr6 := xr[6]
			xr7 := xr[7]
			row := y[ri : ri+8 : ri+8]
			acc0 := row[0]
			acc1 := row[1]
			acc2 := row[2]
			acc3 := row[3]
			acc4 := row[4]
			acc5 := row[5]
			acc6 := row[6]
			acc7 := row[7]
			for ; j < jhi; j++ {
				c := int(colIdx[j])
				if c >= startT {
					break
				}
				ci := c * 8
				a := val[j]
				xc := x[ci : ci+8 : ci+8] // gather
				acc0 += a * xc[0]
				acc1 += a * xc[1]
				acc2 += a * xc[2]
				acc3 += a * xc[3]
				acc4 += a * xc[4]
				acc5 += a * xc[5]
				acc6 += a * xc[6]
				acc7 += a * xc[7]
				tc := y[ci : ci+8 : ci+8] // scatter
				tc[0] += a * xr0
				tc[1] += a * xr1
				tc[2] += a * xr2
				tc[3] += a * xr3
				tc[4] += a * xr4
				tc[5] += a * xr5
				tc[6] += a * xr6
				tc[7] += a * xr7
			}
			row[0] = acc0
			row[1] = acc1
			row[2] = acc2
			row[3] = acc3
			row[4] = acc4
			row[5] = acc5
			row[6] = acc6
			row[7] = acc7
		}
		return
	}
	for r := lo; r < mid; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		ri := r * 8
		xr := x[ri : ri+8 : ri+8]
		xr0 := xr[0]
		xr1 := xr[1]
		xr2 := xr[2]
		xr3 := xr[3]
		xr4 := xr[4]
		xr5 := xr[5]
		xr6 := xr[6]
		xr7 := xr[7]
		d := dv[r]
		acc0 := d * xr0
		acc1 := d * xr1
		acc2 := d * xr2
		acc3 := d * xr3
		acc4 := d * xr4
		acc5 := d * xr5
		acc6 := d * xr6
		acc7 := d * xr7
		// The columns below startT are phase 2's.
		for j < jhi && int(colIdx[j]) < startT {
			j++
		}
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			ci := c * 8
			a := val[j]
			xc := x[ci : ci+8 : ci+8] // gather
			acc0 += a * xc[0]
			acc1 += a * xc[1]
			acc2 += a * xc[2]
			acc3 += a * xc[3]
			acc4 += a * xc[4]
			acc5 += a * xc[5]
			acc6 += a * xc[6]
			acc7 += a * xc[7]
			tc := y[ci : ci+8 : ci+8] // scatter
			tc[0] += a * xr0
			tc[1] += a * xr1
			tc[2] += a * xr2
			tc[3] += a * xr3
			tc[4] += a * xr4
			tc[5] += a * xr5
			tc[6] += a * xr6
			tc[7] += a * xr7
		}
		row := y[ri : ri+8 : ri+8]
		row[0] = acc0
		row[1] = acc1
		row[2] = acc2
		row[3] = acc3
		row[4] = acc4
		row[5] = acc5
		row[6] = acc6
		row[7] = acc7
	}
	// Past the frontier no row stores a column below startT: the y loop alone.
	for r := mid; r < hi; r++ {
		// The one proof per row: below jhi, colIdx[j] and val[j] need no check.
		jhi := uint(rowPtr[r+1])
		if jhi > uint(len(colIdx)) {
			panic(rowPtrOverrun(r))
		}
		ri := r * 8
		xr := x[ri : ri+8 : ri+8]
		xr0 := xr[0]
		xr1 := xr[1]
		xr2 := xr[2]
		xr3 := xr[3]
		xr4 := xr[4]
		xr5 := xr[5]
		xr6 := xr[6]
		xr7 := xr[7]
		d := dv[r]
		acc0 := d * xr0
		acc1 := d * xr1
		acc2 := d * xr2
		acc3 := d * xr3
		acc4 := d * xr4
		acc5 := d * xr5
		acc6 := d * xr6
		acc7 := d * xr7
		for ; j < jhi; j++ {
			c := int(colIdx[j])
			ci := c * 8
			a := val[j]
			xc := x[ci : ci+8 : ci+8] // gather
			acc0 += a * xc[0]
			acc1 += a * xc[1]
			acc2 += a * xc[2]
			acc3 += a * xc[3]
			acc4 += a * xc[4]
			acc5 += a * xc[5]
			acc6 += a * xc[6]
			acc7 += a * xc[7]
			tc := y[ci : ci+8 : ci+8] // scatter
			tc[0] += a * xr0
			tc[1] += a * xr1
			tc[2] += a * xr2
			tc[3] += a * xr3
			tc[4] += a * xr4
			tc[5] += a * xr5
			tc[6] += a * xr6
			tc[7] += a * xr7
		}
		row := y[ri : ri+8 : ri+8]
		row[0] = acc0
		row[1] = acc1
		row[2] = acc2
		row[3] = acc3
		row[4] = acc4
		row[5] = acc5
		row[6] = acc6
		row[7] = acc7
	}
}
