package csx

// Binary serialization for CSX-Sym matrices. §V-E shows CSX preprocessing
// costs the equivalent of 50–400 serial SpM×V operations; persisting the
// encoded form lets a solver pay that cost once per matrix and reload it in
// O(size) afterwards. The format is versioned and checksummed:
//
//	magic "CSXS" | version u32 | n u64 | nnzLower u64 | p u32
//	dvalues: n × f64
//	per blob: startRow u32 | endRow u32 | nnz u64 |
//	          ctlLen u64 | ctl bytes | valLen u64 | vals × f64 |
//	          unitCount [numPatterns]i64 | deltaElems i64
//	partition: p × (start u32, end u32)
//	method u32
//	crc32 (IEEE) of everything above
//
// All integers are little-endian.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/partition"
)

// serialVersion 2 is the strip grammar: Strip2/Strip3 units of runs and a
// triangle, and no anti-diagonal pattern (so unitCount has eight entries).
// A version-1 file is refused by name; re-encode its matrix.
const (
	serialMagic   = "CSXS"
	serialVersion = 2
)

type countingWriter struct {
	w   io.Writer
	crc hash.Hash32
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	cw.crc.Write(p)
	return cw.w.Write(p)
}

// WriteTo serializes the matrix. It returns the byte count written.
func (sm *SymMatrix) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	cw := &countingWriter{w: bw, crc: crc32.NewIEEE()}
	var written int64
	var err error
	put := func(vs ...any) { // the first error sticks; later puts write nothing
		for _, v := range vs {
			if err == nil {
				if err = binary.Write(cw, binary.LittleEndian, v); err == nil {
					written += int64(binary.Size(v))
				}
			}
		}
	}
	put([]byte(serialMagic), uint32(serialVersion), uint64(sm.N), uint64(sm.nnzLower), uint32(len(sm.Blobs)), sm.DValues)
	for _, b := range sm.Blobs {
		put(uint32(b.StartRow), uint32(b.EndRow), uint64(b.NNZ), uint64(len(b.Ctl)), b.Ctl,
			uint64(len(b.Vals)), b.Vals, b.UnitCount[:], b.DeltaElems)
	}
	for i := range sm.Part.Start {
		put(uint32(sm.Part.Start[i]), uint32(sm.Part.End[i]))
	}
	put(uint32(sm.Method))
	if err != nil {
		return written, err
	}
	sum := cw.crc.Sum32()
	if err := binary.Write(bw, binary.LittleEndian, sum); err != nil {
		return written, err
	}
	written += 4
	return written, bw.Flush()
}

type crcReader struct {
	r   io.Reader
	crc hash.Hash32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc.Write(p[:n])
	return n, err
}

// readSlice grows its result incrementally while reading, so a lying length
// field in an untrusted header costs at most one chunk of allocation before
// the stream runs dry — a 16 GiB claimed ctl stream in a 100-byte file fails
// at the first short read instead of attempting a 16 GiB make().
func readSlice[T byte | float64](r io.Reader, total uint64, what string) ([]T, error) {
	const chunk = 1 << 16
	out := make([]T, 0, min(total, chunk))
	tmp := make([]T, min(total, chunk))
	for total > 0 {
		c := int(min(total, chunk))
		if err := binary.Read(r, binary.LittleEndian, tmp[:c]); err != nil {
			return nil, fmt.Errorf("csx: reading %s: %w", what, err)
		}
		out = append(out, tmp[:c]...)
		total -= uint64(c)
	}
	return out, nil
}

// ReadSymMatrix deserializes a CSX-Sym matrix written by WriteTo, rebuilding
// the reduction-phase state (local vectors and conflict index) from the
// stored partition and ctl streams — the index is derived data, so it is
// reconstructed rather than stored.
//
// The input is untrusted: beyond the CRC32 (which guards against accidental
// corruption, not malice), every blob's ctl stream is validated against the
// invariants the multiply kernels assume (ValidateSymBlob) before the matrix
// is returned, so ReadSymMatrix returns an error for any input that would
// make MulVec panic or write out of bounds.
func ReadSymMatrix(r io.Reader) (*SymMatrix, error) {
	cr := &crcReader{r: bufio.NewReaderSize(r, 1<<20), crc: crc32.NewIEEE()}
	get := func(vs ...any) error {
		for _, v := range vs {
			if err := binary.Read(cr, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}

	magic := make([]byte, 4)
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, fmt.Errorf("csx: reading magic: %w", err)
	}
	if string(magic) != serialMagic {
		return nil, fmt.Errorf("csx: bad magic %q", magic)
	}
	var version uint32
	if err := get(&version); err != nil {
		return nil, err
	}
	if version != serialVersion {
		return nil, fmt.Errorf("csx: file has serialize version %d, this reader reads version %d only (re-encode the matrix)", version, serialVersion)
	}
	var n64, nnz64 uint64
	var p32 uint32
	if err := get(&n64, &nnz64, &p32); err != nil {
		return nil, err
	}
	const limit = 1 << 34
	if n64 > math.MaxInt32 || nnz64 > limit || p32 == 0 || p32 > 1<<16 {
		return nil, fmt.Errorf("csx: implausible header: n=%d nnz=%d p=%d", n64, nnz64, p32)
	}
	sm := &SymMatrix{
		N:        int(n64),
		nnzLower: int(nnz64),
		Blobs:    make([]*Blob, p32),
	}
	var err error
	if sm.DValues, err = readSlice[float64](cr, n64, "dvalues"); err != nil {
		return nil, err
	}
	for i := range sm.Blobs {
		b := &Blob{}
		var sr, er uint32
		var nnz, ctlLen, valLen uint64
		if err := get(&sr, &er, &nnz, &ctlLen); err != nil {
			return nil, err
		}
		if ctlLen > limit {
			return nil, fmt.Errorf("csx: implausible ctl length %d", ctlLen)
		}
		b.StartRow, b.EndRow, b.NNZ = int32(sr), int32(er), int(nnz)
		if b.Ctl, err = readSlice[byte](cr, ctlLen, "ctl"); err != nil {
			return nil, err
		}
		if err := get(&valLen); err != nil {
			return nil, err
		}
		if valLen > limit {
			return nil, fmt.Errorf("csx: implausible value count %d", valLen)
		}
		if b.Vals, err = readSlice[float64](cr, valLen, "values"); err != nil {
			return nil, err
		}
		if err := get(b.UnitCount[:], &b.DeltaElems); err != nil {
			return nil, err
		}
		sm.Blobs[i] = b
	}
	part := &partition.RowPartition{
		Start: make([]int32, p32),
		End:   make([]int32, p32),
	}
	for i := 0; i < int(p32); i++ {
		var s, e uint32
		if err := get(&s, &e); err != nil {
			return nil, err
		}
		part.Start[i], part.End[i] = int32(s), int32(e)
	}
	if err := part.Validate(sm.N); err != nil {
		return nil, fmt.Errorf("csx: stored partition invalid: %w", err)
	}
	sm.Part = part
	var method uint32
	if err := get(&method); err != nil {
		return nil, err
	}
	// CSX-Sym executes only the first three reduction methods (NewSym never
	// produces Colored); accepting a larger value here would hand the kernels
	// a matrix with no usable local-vector state.
	if method > uint32(core.Indexed) {
		return nil, fmt.Errorf("csx: unsupported reduction method %d for CSX-Sym", method)
	}
	sm.Method = core.ReductionMethod(method)

	wantSum := cr.crc.Sum32()
	var gotSum uint32
	if err := binary.Read(cr.r, binary.LittleEndian, &gotSum); err != nil {
		return nil, fmt.Errorf("csx: reading checksum: %w", err)
	}
	if gotSum != wantSum {
		return nil, fmt.Errorf("csx: checksum mismatch: file %08x, computed %08x", gotSum, wantSum)
	}

	// Validate every blob against the kernel invariants and rebuild the
	// reduction state: touched columns come from walking the ctl streams
	// (cheap relative to detection), keeping the file format free of derived
	// data.
	if err := sm.validateAndRebuild(); err != nil {
		return nil, err
	}
	return sm, nil
}

// validateAndRebuild runs ValidateSymBlob over every blob — the serialized
// ctl streams drive the panic-on-invariant multiply kernels, so nothing may
// reach them unchecked — and reconstructs LocalVectors (plus the conflict
// index for the Indexed method) from the validated coordinates.
func (sm *SymMatrix) validateAndRebuild() error {
	var touched [][]int32
	if sm.Method == core.Indexed {
		touched = make([][]int32, len(sm.Blobs))
	}
	total := 0
	for t, b := range sm.Blobs {
		if b.StartRow != sm.Part.Start[t] || b.EndRow != sm.Part.End[t] {
			return fmt.Errorf("csx: blob %d rows [%d,%d) disagree with partition [%d,%d)",
				t, b.StartRow, b.EndRow, sm.Part.Start[t], sm.Part.End[t])
		}
		boundary := sm.Part.Start[t]
		if sm.Method == core.Naive {
			// Naive routes every symmetric write to a full-length local
			// vector, so no column can straddle a boundary.
			boundary = int32(sm.N) + 1
		}
		var seen map[int32]struct{}
		if sm.Method == core.Indexed {
			seen = make(map[int32]struct{})
		}
		if err := ValidateSymBlob(b, sm.N, boundary, seen); err != nil {
			return fmt.Errorf("csx: blob %d: %w", t, err)
		}
		total += len(b.Vals)
		if sm.Method == core.Indexed {
			cols := make([]int32, 0, len(seen))
			for c := range seen {
				cols = append(cols, c)
			}
			touched[t] = cols
		}
	}
	if total != sm.nnzLower {
		return fmt.Errorf("csx: blobs store %d values, header declares %d", total, sm.nnzLower)
	}
	sm.LV = core.NewLocalVectors(sm.N, sm.Part, sm.Method, touched)
	return nil
}

// WriteFile persists the matrix to path.
func (sm *SymMatrix) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := sm.WriteTo(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// ReadSymMatrixFile loads a matrix persisted with WriteFile.
func ReadSymMatrixFile(path string) (*SymMatrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sm, err := ReadSymMatrix(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sm, nil
}
