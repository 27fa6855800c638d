// Code generated by go run ./gen (internal/core/gen); DO NOT EDIT.

package vec

import "repro/internal/parallel"

// subCopyDots1T is the set-up's body, r = b − ap, p = r and per-lane
// partial bᵀb and rᵀr, at lane width 1.
func (m *lanes) subCopyDots1T(tid int) {
	var sb0, sr0 float64
	lo, hi := parallel.Chunk(m.n, m.np, tid)
	r := m.r[lo*1 : hi*1]
	p := m.p[lo*1 : hi*1][:len(r)]
	b := m.b[lo*1 : hi*1][:len(r)]
	ap := m.ap[lo*1 : hi*1][:len(r)]
	for i := range r {
		bi0 := b[i]
		ri0 := bi0 - ap[i]
		r[i] = ri0
		p[i] = ri0
		sb0 += bi0 * bi0
		sr0 += ri0 * ri0
	}
	ps := m.partial[tid*m.stride : tid*m.stride+2]
	ps[0], ps[1] = sb0, sr0
}

// subCopyDotsT is the set-up's body, r = b − ap, p = r and per-lane
// partial bᵀb and rᵀr, at lane width nv.
func (m *lanes) subCopyDotsT(tid int) {
	nv := m.nv
	sb := m.partial[tid*m.stride:][:nv]
	clear(sb)
	sr := m.partial[tid*m.stride+nv:][:nv]
	clear(sr)
	lo, hi := parallel.Chunk(m.n, m.np, tid)
	r := m.r[lo*nv : hi*nv]
	p := m.p[lo*nv : hi*nv][:len(r)]
	b := m.b[lo*nv : hi*nv][:len(r)]
	ap := m.ap[lo*nv : hi*nv][:len(r)]
	for i := 0; i+nv <= len(r); i += nv {
		rw := r[i : i+nv : i+nv]   // lane window
		pw := p[i : i+nv : i+nv]   // lane window
		bw := b[i : i+nv : i+nv]   // lane window
		apw := ap[i : i+nv : i+nv] // lane window
		for v := range rw {
			bi := bw[v]
			ri := bi - apw[v]
			rw[v] = ri
			pw[v] = ri
			sb[v] += bi * bi
			sr[v] += ri * ri
		}
	}
}

// subCopyDots2T is the set-up's body, r = b − ap, p = r and per-lane
// partial bᵀb and rᵀr, at lane width 2.
func (m *lanes) subCopyDots2T(tid int) {
	var sb0, sb1, sr0, sr1 float64
	lo, hi := parallel.Chunk(m.n, m.np, tid)
	r := m.r[lo*2 : hi*2]
	p := m.p[lo*2 : hi*2][:len(r)]
	b := m.b[lo*2 : hi*2][:len(r)]
	ap := m.ap[lo*2 : hi*2][:len(r)]
	for i := 0; i+2 <= len(r); i += 2 {
		rw := r[i : i+2 : i+2]   // lane window
		pw := p[i : i+2 : i+2]   // lane window
		bw := b[i : i+2 : i+2]   // lane window
		apw := ap[i : i+2 : i+2] // lane window
		bi0 := bw[0]
		ri0 := bi0 - apw[0]
		rw[0] = ri0
		pw[0] = ri0
		sb0 += bi0 * bi0
		sr0 += ri0 * ri0
		bi1 := bw[1]
		ri1 := bi1 - apw[1]
		rw[1] = ri1
		pw[1] = ri1
		sb1 += bi1 * bi1
		sr1 += ri1 * ri1
	}
	ps := m.partial[tid*m.stride : tid*m.stride+4]
	ps[0], ps[1], ps[2], ps[3] = sb0, sb1, sr0, sr1
}

// subCopyDots4T is the set-up's body, r = b − ap, p = r and per-lane
// partial bᵀb and rᵀr, at lane width 4.
func (m *lanes) subCopyDots4T(tid int) {
	var sb0, sb1, sb2, sb3, sr0, sr1, sr2, sr3 float64
	lo, hi := parallel.Chunk(m.n, m.np, tid)
	r := m.r[lo*4 : hi*4]
	p := m.p[lo*4 : hi*4][:len(r)]
	b := m.b[lo*4 : hi*4][:len(r)]
	ap := m.ap[lo*4 : hi*4][:len(r)]
	for i := 0; i+4 <= len(r); i += 4 {
		rw := r[i : i+4 : i+4]   // lane window
		pw := p[i : i+4 : i+4]   // lane window
		bw := b[i : i+4 : i+4]   // lane window
		apw := ap[i : i+4 : i+4] // lane window
		bi0 := bw[0]
		ri0 := bi0 - apw[0]
		rw[0] = ri0
		pw[0] = ri0
		sb0 += bi0 * bi0
		sr0 += ri0 * ri0
		bi1 := bw[1]
		ri1 := bi1 - apw[1]
		rw[1] = ri1
		pw[1] = ri1
		sb1 += bi1 * bi1
		sr1 += ri1 * ri1
		bi2 := bw[2]
		ri2 := bi2 - apw[2]
		rw[2] = ri2
		pw[2] = ri2
		sb2 += bi2 * bi2
		sr2 += ri2 * ri2
		bi3 := bw[3]
		ri3 := bi3 - apw[3]
		rw[3] = ri3
		pw[3] = ri3
		sb3 += bi3 * bi3
		sr3 += ri3 * ri3
	}
	ps := m.partial[tid*m.stride : tid*m.stride+8]
	ps[0], ps[1], ps[2], ps[3], ps[4], ps[5], ps[6], ps[7] = sb0, sb1, sb2, sb3, sr0, sr1, sr2, sr3
}

// subCopyDots8T is the set-up's body, r = b − ap, p = r and per-lane
// partial bᵀb and rᵀr, at lane width 8.
func (m *lanes) subCopyDots8T(tid int) {
	var sb0, sb1, sb2, sb3, sb4, sb5, sb6, sb7, sr0, sr1, sr2, sr3, sr4, sr5, sr6, sr7 float64
	lo, hi := parallel.Chunk(m.n, m.np, tid)
	r := m.r[lo*8 : hi*8]
	p := m.p[lo*8 : hi*8][:len(r)]
	b := m.b[lo*8 : hi*8][:len(r)]
	ap := m.ap[lo*8 : hi*8][:len(r)]
	for i := 0; i+8 <= len(r); i += 8 {
		rw := r[i : i+8 : i+8]   // lane window
		pw := p[i : i+8 : i+8]   // lane window
		bw := b[i : i+8 : i+8]   // lane window
		apw := ap[i : i+8 : i+8] // lane window
		bi0 := bw[0]
		ri0 := bi0 - apw[0]
		rw[0] = ri0
		pw[0] = ri0
		sb0 += bi0 * bi0
		sr0 += ri0 * ri0
		bi1 := bw[1]
		ri1 := bi1 - apw[1]
		rw[1] = ri1
		pw[1] = ri1
		sb1 += bi1 * bi1
		sr1 += ri1 * ri1
		bi2 := bw[2]
		ri2 := bi2 - apw[2]
		rw[2] = ri2
		pw[2] = ri2
		sb2 += bi2 * bi2
		sr2 += ri2 * ri2
		bi3 := bw[3]
		ri3 := bi3 - apw[3]
		rw[3] = ri3
		pw[3] = ri3
		sb3 += bi3 * bi3
		sr3 += ri3 * ri3
		bi4 := bw[4]
		ri4 := bi4 - apw[4]
		rw[4] = ri4
		pw[4] = ri4
		sb4 += bi4 * bi4
		sr4 += ri4 * ri4
		bi5 := bw[5]
		ri5 := bi5 - apw[5]
		rw[5] = ri5
		pw[5] = ri5
		sb5 += bi5 * bi5
		sr5 += ri5 * ri5
		bi6 := bw[6]
		ri6 := bi6 - apw[6]
		rw[6] = ri6
		pw[6] = ri6
		sb6 += bi6 * bi6
		sr6 += ri6 * ri6
		bi7 := bw[7]
		ri7 := bi7 - apw[7]
		rw[7] = ri7
		pw[7] = ri7
		sb7 += bi7 * bi7
		sr7 += ri7 * ri7
	}
	ps := m.partial[tid*m.stride : tid*m.stride+16]
	ps[0], ps[1], ps[2], ps[3], ps[4], ps[5], ps[6], ps[7], ps[8], ps[9], ps[10], ps[11], ps[12], ps[13], ps[14], ps[15] = sb0, sb1, sb2, sb3, sb4, sb5, sb6, sb7, sr0, sr1, sr2, sr3, sr4, sr5, sr6, sr7
}

// jacobiSubCopyDots1T is the Jacobi set-up's body, r = b − ap, p = z = d∘r
// and partial bᵀb, rᵀr and rᵀz, at lane width 1.
func (m *lanes) jacobiSubCopyDots1T(tid int) {
	var sb0, sr0, sz0 float64
	lo, hi := parallel.Chunk(m.n, m.np, tid)
	r := m.r[lo*1 : hi*1]
	p := m.p[lo*1 : hi*1][:len(r)]
	b := m.b[lo*1 : hi*1][:len(r)]
	ap := m.ap[lo*1 : hi*1][:len(r)]
	d := m.d[lo*1 : hi*1][:len(r)]
	for i := range r {
		bi0 := b[i]
		ri0 := bi0 - ap[i]
		r[i] = ri0
		zi0 := ri0 * d[i]
		p[i] = zi0
		sb0 += bi0 * bi0
		sz0 += ri0 * zi0
		sr0 += ri0 * ri0
	}
	ps := m.partial[tid*m.stride : tid*m.stride+3]
	ps[0], ps[1], ps[2] = sb0, sr0, sz0
}

// update1T is the step's first phase, x += α·p, r −= α·ap and
// per-lane partial rᵀr, at lane width 1.
func (m *lanes) update1T(tid int) {
	a := m.alpha[:1]
	a0 := a[0]
	var s0 float64
	lo, hi := parallel.Chunk(m.n, m.np, tid)
	r := m.r[lo*1 : hi*1]
	x := m.x[lo*1 : hi*1][:len(r)]
	p := m.p[lo*1 : hi*1][:len(r)]
	ap := m.ap[lo*1 : hi*1][:len(r)]
	for i := range r {
		x[i] += a0 * p[i]
		ri0 := r[i] - a0*ap[i]
		r[i] = ri0
		s0 += ri0 * ri0
	}
	ps := m.partial[tid*m.stride : tid*m.stride+1]
	ps[0] = s0
}

// updateT is the step's first phase, x += α·p, r −= α·ap and
// per-lane partial rᵀr, at lane width nv.
func (m *lanes) updateT(tid int) {
	nv := m.nv
	a := m.alpha[:nv]
	s := m.partial[tid*m.stride:][:nv]
	clear(s)
	lo, hi := parallel.Chunk(m.n, m.np, tid)
	r := m.r[lo*nv : hi*nv]
	x := m.x[lo*nv : hi*nv][:len(r)]
	p := m.p[lo*nv : hi*nv][:len(r)]
	ap := m.ap[lo*nv : hi*nv][:len(r)]
	for i := 0; i+nv <= len(r); i += nv {
		rw := r[i : i+nv : i+nv]   // lane window
		xw := x[i : i+nv : i+nv]   // lane window
		pw := p[i : i+nv : i+nv]   // lane window
		apw := ap[i : i+nv : i+nv] // lane window
		for v := range rw {
			xw[v] += a[v] * pw[v]
			ri := rw[v] - a[v]*apw[v]
			rw[v] = ri
			s[v] += ri * ri
		}
	}
}

// update2T is the step's first phase, x += α·p, r −= α·ap and
// per-lane partial rᵀr, at lane width 2.
func (m *lanes) update2T(tid int) {
	a := m.alpha[:2]
	a0, a1 := a[0], a[1]
	var s0, s1 float64
	lo, hi := parallel.Chunk(m.n, m.np, tid)
	r := m.r[lo*2 : hi*2]
	x := m.x[lo*2 : hi*2][:len(r)]
	p := m.p[lo*2 : hi*2][:len(r)]
	ap := m.ap[lo*2 : hi*2][:len(r)]
	for i := 0; i+2 <= len(r); i += 2 {
		rw := r[i : i+2 : i+2]   // lane window
		xw := x[i : i+2 : i+2]   // lane window
		pw := p[i : i+2 : i+2]   // lane window
		apw := ap[i : i+2 : i+2] // lane window
		xw[0] += a0 * pw[0]
		ri0 := rw[0] - a0*apw[0]
		rw[0] = ri0
		s0 += ri0 * ri0
		xw[1] += a1 * pw[1]
		ri1 := rw[1] - a1*apw[1]
		rw[1] = ri1
		s1 += ri1 * ri1
	}
	ps := m.partial[tid*m.stride : tid*m.stride+2]
	ps[0], ps[1] = s0, s1
}

// update4T is the step's first phase, x += α·p, r −= α·ap and
// per-lane partial rᵀr, at lane width 4.
func (m *lanes) update4T(tid int) {
	a := m.alpha[:4]
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	var s0, s1, s2, s3 float64
	lo, hi := parallel.Chunk(m.n, m.np, tid)
	r := m.r[lo*4 : hi*4]
	x := m.x[lo*4 : hi*4][:len(r)]
	p := m.p[lo*4 : hi*4][:len(r)]
	ap := m.ap[lo*4 : hi*4][:len(r)]
	for i := 0; i+4 <= len(r); i += 4 {
		rw := r[i : i+4 : i+4]   // lane window
		xw := x[i : i+4 : i+4]   // lane window
		pw := p[i : i+4 : i+4]   // lane window
		apw := ap[i : i+4 : i+4] // lane window
		xw[0] += a0 * pw[0]
		ri0 := rw[0] - a0*apw[0]
		rw[0] = ri0
		s0 += ri0 * ri0
		xw[1] += a1 * pw[1]
		ri1 := rw[1] - a1*apw[1]
		rw[1] = ri1
		s1 += ri1 * ri1
		xw[2] += a2 * pw[2]
		ri2 := rw[2] - a2*apw[2]
		rw[2] = ri2
		s2 += ri2 * ri2
		xw[3] += a3 * pw[3]
		ri3 := rw[3] - a3*apw[3]
		rw[3] = ri3
		s3 += ri3 * ri3
	}
	ps := m.partial[tid*m.stride : tid*m.stride+4]
	ps[0], ps[1], ps[2], ps[3] = s0, s1, s2, s3
}

// update8T is the step's first phase, x += α·p, r −= α·ap and
// per-lane partial rᵀr, at lane width 8.
func (m *lanes) update8T(tid int) {
	a := m.alpha[:8]
	a0, a1, a2, a3, a4, a5, a6, a7 := a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	lo, hi := parallel.Chunk(m.n, m.np, tid)
	r := m.r[lo*8 : hi*8]
	x := m.x[lo*8 : hi*8][:len(r)]
	p := m.p[lo*8 : hi*8][:len(r)]
	ap := m.ap[lo*8 : hi*8][:len(r)]
	for i := 0; i+8 <= len(r); i += 8 {
		rw := r[i : i+8 : i+8]   // lane window
		xw := x[i : i+8 : i+8]   // lane window
		pw := p[i : i+8 : i+8]   // lane window
		apw := ap[i : i+8 : i+8] // lane window
		xw[0] += a0 * pw[0]
		ri0 := rw[0] - a0*apw[0]
		rw[0] = ri0
		s0 += ri0 * ri0
		xw[1] += a1 * pw[1]
		ri1 := rw[1] - a1*apw[1]
		rw[1] = ri1
		s1 += ri1 * ri1
		xw[2] += a2 * pw[2]
		ri2 := rw[2] - a2*apw[2]
		rw[2] = ri2
		s2 += ri2 * ri2
		xw[3] += a3 * pw[3]
		ri3 := rw[3] - a3*apw[3]
		rw[3] = ri3
		s3 += ri3 * ri3
		xw[4] += a4 * pw[4]
		ri4 := rw[4] - a4*apw[4]
		rw[4] = ri4
		s4 += ri4 * ri4
		xw[5] += a5 * pw[5]
		ri5 := rw[5] - a5*apw[5]
		rw[5] = ri5
		s5 += ri5 * ri5
		xw[6] += a6 * pw[6]
		ri6 := rw[6] - a6*apw[6]
		rw[6] = ri6
		s6 += ri6 * ri6
		xw[7] += a7 * pw[7]
		ri7 := rw[7] - a7*apw[7]
		rw[7] = ri7
		s7 += ri7 * ri7
	}
	ps := m.partial[tid*m.stride : tid*m.stride+8]
	ps[0], ps[1], ps[2], ps[3], ps[4], ps[5], ps[6], ps[7] = s0, s1, s2, s3, s4, s5, s6, s7
}

// jacobiUpdate1T is the Jacobi step's first phase, x += α·p, r −= α·ap
// and partial rᵀz and rᵀr for z = d∘r, at lane width 1.
func (m *lanes) jacobiUpdate1T(tid int) {
	a := m.alpha[:1]
	a0 := a[0]
	var sz0, sr0 float64
	lo, hi := parallel.Chunk(m.n, m.np, tid)
	r := m.r[lo*1 : hi*1]
	x := m.x[lo*1 : hi*1][:len(r)]
	p := m.p[lo*1 : hi*1][:len(r)]
	ap := m.ap[lo*1 : hi*1][:len(r)]
	d := m.d[lo*1 : hi*1][:len(r)]
	for i := range r {
		x[i] += a0 * p[i]
		ri0 := r[i] - a0*ap[i]
		r[i] = ri0
		sz0 += ri0 * (ri0 * d[i])
		sr0 += ri0 * ri0
	}
	ps := m.partial[tid*m.stride : tid*m.stride+2]
	ps[0], ps[1] = sz0, sr0
}

// direction1T is the step's second phase, p = r + β·p, at lane width 1.
func (m *lanes) direction1T(tid int) {
	b := m.betas(tid)[:1]
	b0 := b[0]
	lo, hi := parallel.Chunk(m.n, m.np, tid)
	p := m.p[lo*1 : hi*1]
	r := m.r[lo*1 : hi*1][:len(p)]
	for i := range p {
		p[i] = r[i] + b0*p[i]
	}
}

// directionT is the step's second phase, p = r + β·p, at lane width nv.
func (m *lanes) directionT(tid int) {
	nv := m.nv
	b := m.betas(tid)[:nv]
	lo, hi := parallel.Chunk(m.n, m.np, tid)
	p := m.p[lo*nv : hi*nv]
	r := m.r[lo*nv : hi*nv][:len(p)]
	for i := 0; i+nv <= len(p); i += nv {
		pw := p[i : i+nv : i+nv] // lane window
		rw := r[i : i+nv : i+nv] // lane window
		for v := range pw {
			pw[v] = rw[v] + b[v]*pw[v]
		}
	}
}

// direction2T is the step's second phase, p = r + β·p, at lane width 2.
func (m *lanes) direction2T(tid int) {
	b := m.betas(tid)[:2]
	b0, b1 := b[0], b[1]
	lo, hi := parallel.Chunk(m.n, m.np, tid)
	p := m.p[lo*2 : hi*2]
	r := m.r[lo*2 : hi*2][:len(p)]
	for i := 0; i+2 <= len(p); i += 2 {
		pw := p[i : i+2 : i+2] // lane window
		rw := r[i : i+2 : i+2] // lane window
		pw[0] = rw[0] + b0*pw[0]
		pw[1] = rw[1] + b1*pw[1]
	}
}

// direction4T is the step's second phase, p = r + β·p, at lane width 4.
func (m *lanes) direction4T(tid int) {
	b := m.betas(tid)[:4]
	b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
	lo, hi := parallel.Chunk(m.n, m.np, tid)
	p := m.p[lo*4 : hi*4]
	r := m.r[lo*4 : hi*4][:len(p)]
	for i := 0; i+4 <= len(p); i += 4 {
		pw := p[i : i+4 : i+4] // lane window
		rw := r[i : i+4 : i+4] // lane window
		pw[0] = rw[0] + b0*pw[0]
		pw[1] = rw[1] + b1*pw[1]
		pw[2] = rw[2] + b2*pw[2]
		pw[3] = rw[3] + b3*pw[3]
	}
}

// direction8T is the step's second phase, p = r + β·p, at lane width 8.
func (m *lanes) direction8T(tid int) {
	b := m.betas(tid)[:8]
	b0, b1, b2, b3, b4, b5, b6, b7 := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
	lo, hi := parallel.Chunk(m.n, m.np, tid)
	p := m.p[lo*8 : hi*8]
	r := m.r[lo*8 : hi*8][:len(p)]
	for i := 0; i+8 <= len(p); i += 8 {
		pw := p[i : i+8 : i+8] // lane window
		rw := r[i : i+8 : i+8] // lane window
		pw[0] = rw[0] + b0*pw[0]
		pw[1] = rw[1] + b1*pw[1]
		pw[2] = rw[2] + b2*pw[2]
		pw[3] = rw[3] + b3*pw[3]
		pw[4] = rw[4] + b4*pw[4]
		pw[5] = rw[5] + b5*pw[5]
		pw[6] = rw[6] + b6*pw[6]
		pw[7] = rw[7] + b7*pw[7]
	}
}

// jacobiDirection1T is the Jacobi step's second phase, p = d∘r + β·p, at lane width 1.
func (m *lanes) jacobiDirection1T(tid int) {
	b := m.betas(tid)[:1]
	b0 := b[0]
	lo, hi := parallel.Chunk(m.n, m.np, tid)
	p := m.p[lo*1 : hi*1]
	r := m.r[lo*1 : hi*1][:len(p)]
	d := m.d[lo*1 : hi*1][:len(p)]
	for i := range p {
		p[i] = r[i]*d[i] + b0*p[i]
	}
}

// laneDots1 adds each lane's a∘b terms to s[v], row by row, at lane width 1.
func laneDots1(a, b, s []float64) {
	s = s[:1]
	s0 := s[0]
	b = b[:len(a)]
	for i := range a {
		s0 += a[i] * b[i]
	}
	s[0] = s0
}

// laneDots adds each lane's a∘b terms to s[v], row by row, at lane width nv.
func laneDots(a, b, s []float64) {
	nv := len(s)
	b = b[:len(a)]
	for i := 0; i+nv <= len(a); i += nv {
		aw := a[i : i+nv : i+nv] // lane window
		bw := b[i : i+nv : i+nv] // lane window
		for v := range aw {
			s[v] += aw[v] * bw[v]
		}
	}
}

// laneDots2 adds each lane's a∘b terms to s[v], row by row, at lane width 2.
func laneDots2(a, b, s []float64) {
	s = s[:2]
	s0, s1 := s[0], s[1]
	b = b[:len(a)]
	for i := 0; i+2 <= len(a); i += 2 {
		aw := a[i : i+2 : i+2] // lane window
		bw := b[i : i+2 : i+2] // lane window
		s0 += aw[0] * bw[0]
		s1 += aw[1] * bw[1]
	}
	s[0], s[1] = s0, s1
}

// laneDots4 adds each lane's a∘b terms to s[v], row by row, at lane width 4.
func laneDots4(a, b, s []float64) {
	s = s[:4]
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	b = b[:len(a)]
	for i := 0; i+4 <= len(a); i += 4 {
		aw := a[i : i+4 : i+4] // lane window
		bw := b[i : i+4 : i+4] // lane window
		s0 += aw[0] * bw[0]
		s1 += aw[1] * bw[1]
		s2 += aw[2] * bw[2]
		s3 += aw[3] * bw[3]
	}
	s[0], s[1], s[2], s[3] = s0, s1, s2, s3
}

// laneDots8 adds each lane's a∘b terms to s[v], row by row, at lane width 8.
func laneDots8(a, b, s []float64) {
	s = s[:8]
	s0, s1, s2, s3, s4, s5, s6, s7 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
	b = b[:len(a)]
	for i := 0; i+8 <= len(a); i += 8 {
		aw := a[i : i+8 : i+8] // lane window
		bw := b[i : i+8 : i+8] // lane window
		s0 += aw[0] * bw[0]
		s1 += aw[1] * bw[1]
		s2 += aw[2] * bw[2]
		s3 += aw[3] * bw[3]
		s4 += aw[4] * bw[4]
		s5 += aw[5] * bw[5]
		s6 += aw[6] * bw[6]
		s7 += aw[7] * bw[7]
	}
	s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7] = s0, s1, s2, s3, s4, s5, s6, s7
}
