package fuzzcheck

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/matrix"
)

// readReference is the line-oriented Matrix Market reader that
// matrix.ReadMatrixMarket replaced, the oracle of FuzzReadMatrixMarket. It is
// a copy of readReference in internal/matrix/mmio_test.go (where the
// block-edge table tests use it): test code cannot be imported across
// packages. Keep the two identical.
func readReference(r io.Reader) (*matrix.COO, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineno := 0
	// scan returns the next line (CR trimmed) with its number; ok=false at
	// EOF or scanner error.
	scan := func() (string, bool) {
		if !sc.Scan() {
			return "", false
		}
		lineno++
		return strings.TrimSuffix(sc.Text(), "\r"), true
	}

	header, ok := scan()
	if !ok {
		return nil, fmt.Errorf("matrixmarket: reading header: %w", scanErr(sc))
	}
	fields := strings.Fields(strings.ToLower(header))
	if len(fields) != 5 || fields[0] != "%%matrixmarket" {
		return nil, fmt.Errorf("matrixmarket: bad header %q", strings.TrimSpace(header))
	}
	object, format, field, symmetry := fields[1], fields[2], fields[3], fields[4]
	if object != "matrix" {
		return nil, fmt.Errorf("matrixmarket: unsupported object %q", object)
	}
	if format != "coordinate" {
		return nil, fmt.Errorf("matrixmarket: unsupported format %q (only coordinate)", format)
	}
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("matrixmarket: unsupported field %q", field)
	}
	switch symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, fmt.Errorf("matrixmarket: unsupported symmetry %q", symmetry)
	}
	if symmetry == "skew-symmetric" && field == "pattern" {
		// A pattern file has no values to negate; the combination is
		// meaningless (and the MM spec excludes it).
		return nil, fmt.Errorf("matrixmarket: skew-symmetric pattern matrices are not defined")
	}

	// Skip comments, read the size line.
	var sizeLine string
	for {
		line, ok := scan()
		if !ok {
			return nil, fmt.Errorf("matrixmarket: missing size line: %w", scanErr(sc))
		}
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "%") {
			continue
		}
		sizeLine = t
		break
	}
	f := strings.Fields(sizeLine)
	if len(f) != 3 {
		return nil, fmt.Errorf("matrixmarket: line %d: bad size line %q", lineno, sizeLine)
	}
	rows, err1 := strconv.Atoi(f[0])
	cols, err2 := strconv.Atoi(f[1])
	nnz, err3 := strconv.Atoi(f[2])
	if err1 != nil || err2 != nil || err3 != nil || rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("matrixmarket: line %d: bad size line %q", lineno, sizeLine)
	}
	if rows > math.MaxInt32 || cols > math.MaxInt32 {
		// COO stores coordinates as int32; larger declared dims would
		// silently truncate every index.
		return nil, fmt.Errorf("matrixmarket: line %d: dimensions %dx%d exceed %d", lineno, rows, cols, math.MaxInt32)
	}

	// The declared nnz is a capacity hint from untrusted input: cap it so a
	// size line claiming 10^15 entries in a 100-byte file costs at most one
	// modest allocation. Append growth covers honest large files.
	hint := nnz
	if hint > 1<<20 {
		hint = 1 << 20
	}
	m := matrix.NewCOO(rows, cols, hint)
	m.Symmetric = symmetry == "symmetric" || symmetry == "skew-symmetric"
	m.Skew = symmetry == "skew-symmetric"
	if m.Symmetric && rows != cols {
		return nil, fmt.Errorf("matrixmarket: %s %dx%d matrix is not square", symmetry, rows, cols)
	}

	read := 0
	for {
		line, ok := scan()
		if !ok {
			break
		}
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "%") {
			continue
		}
		if read == nnz {
			// More data lines than the size line declares: for symmetric
			// files the mirrored extras would silently double entries, so
			// reject rather than ignore.
			return nil, fmt.Errorf("matrixmarket: line %d: data after the %d declared entries", lineno, nnz)
		}
		f := strings.Fields(t)
		want := 3
		if field == "pattern" {
			want = 2
		}
		if len(f) < want {
			return nil, fmt.Errorf("matrixmarket: line %d: short line %q", lineno, t)
		}
		r1, err1 := strconv.Atoi(f[0])
		c1, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("matrixmarket: line %d: bad indices in %q", lineno, t)
		}
		v := 1.0
		if field != "pattern" {
			v, err1 = strconv.ParseFloat(f[2], 64)
			if err1 != nil {
				return nil, fmt.Errorf("matrixmarket: line %d: bad value in %q", lineno, t)
			}
		}
		r0, c0 := r1-1, c1-1 // Matrix Market is 1-based
		if r0 < 0 || r0 >= rows || c0 < 0 || c0 >= cols {
			return nil, fmt.Errorf("matrixmarket: line %d: entry (%d,%d) outside %dx%d", lineno, r1, c1, rows, cols)
		}
		if m.Skew && r0 == c0 && v != 0 {
			// A = -Aᵀ forces a zero diagonal; a nonzero diagonal entry means
			// the file is mislabeled, not merely untidy.
			return nil, fmt.Errorf("matrixmarket: line %d: nonzero diagonal entry (%d,%d)=%g in skew-symmetric matrix", lineno, r1, c1, v)
		}
		if m.Symmetric && c0 > r0 {
			// UF symmetric files store the lower triangle, but be liberal:
			// mirror stray upper entries down. For skew files the mirror is
			// the negation — copying the value unchanged would silently
			// corrupt it.
			r0, c0 = c0, r0
			if m.Skew {
				v = -v
			}
		}
		m.Add(r0, c0, v)
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("matrixmarket: line %d: %w", lineno+1, err)
	}
	if read != nnz {
		return nil, fmt.Errorf("matrixmarket: expected %d entries, got %d", nnz, read)
	}
	return m.Normalize(), nil
}

// scanErr maps a stopped Scanner to the error to report: its own error if it
// hit one, io.ErrUnexpectedEOF if the input simply ran out.
func scanErr(sc *bufio.Scanner) error {
	if err := sc.Err(); err != nil {
		return err
	}
	return io.ErrUnexpectedEOF
}
