// Command gencorpus regenerates the binary regression corpus for
// FuzzSymDeserialize and the strip seeds of FuzzDecodeBlob under
// internal/fuzzcheck/testdata/fuzz/. The FuzzSymDeserialize seeds are real
// CSX-Sym serializations — clean ones for each reduction method, plus
// corrupt-in-memory variants whose trailing CRC is still valid, so they reach
// the structural validator rather than the checksum check; v1-indexed, a file
// of the previous serialize version, is kept as it is. The FuzzDecodeBlob
// seeds are the strips the validator refuses. Run it from the repository root
// after changing the serialization format or the ctl grammar:
//
//	go run ./internal/fuzzcheck/gencorpus
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/csx"
	"repro/internal/matrix"
)

func symBytes(method core.ReductionMethod, mutate func(sm *csx.SymMatrix)) []byte {
	m := matrix.NewCOO(24, 24, 24*6)
	m.Symmetric = true
	for r := 0; r < 24; r++ { // 3-row node blocks coupled to the node before: strips
		m.Add(r, r, 10)
		for c := max(0, r/3*3-3); c < r; c++ {
			m.Add(r, c, -1)
		}
	}
	m.Normalize()
	s, err := core.FromCOO(m)
	if err != nil {
		log.Fatal(err)
	}
	sm := csx.NewSym(s, 2, method, csx.DefaultOptions())
	if mutate != nil {
		mutate(sm)
	}
	var buf bytes.Buffer
	if _, err := sm.WriteTo(&buf); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}

func main() {
	dir := filepath.Join("internal", "fuzzcheck", "testdata", "fuzz", "FuzzSymDeserialize")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	clean := symBytes(core.Indexed, nil)
	seeds := map[string][]byte{
		"valid-indexed":         clean,
		"valid-naive":           symBytes(core.Naive, nil),
		"valid-effective":       symBytes(core.EffectiveRanges, nil),
		"corrupt-unknown-unit":  symBytes(core.Indexed, func(sm *csx.SymMatrix) { sm.Blobs[1].Ctl[0] |= 0x3f }),
		"corrupt-blob-rows":     symBytes(core.Indexed, func(sm *csx.SymMatrix) { sm.Blobs[0].StartRow++ }),
		"corrupt-method":        symBytes(core.Indexed, func(sm *csx.SymMatrix) { sm.Method = core.Colored }),
		"corrupt-triangle-flag": symBytes(core.Indexed, func(sm *csx.SymMatrix) { sm.Blobs[1].Ctl[0] ^= 0x20 }),
		"truncated-tail":        clean[:len(clean)-5],
		"truncated-header":      clean[:20],
	}
	for name, data := range seeds {
		write(dir, name, "[]byte("+strconv.Quote(string(data))+")\n")
	}

	// FuzzDecodeBlob(ctl, nvals, rows, sym) validates a blob of rows
	// [0, rows%512+1) at the boundary n/2. Heads: NR 0x80 | RJMP 0x40 |
	// triangle 0x20 | pattern, Strip2 6 and Strip3 7.
	dir = filepath.Join("internal", "fuzzcheck", "testdata", "fuzz", "FuzzDecodeBlob")
	for name, v := range map[string]string{
		"strip-no-runs-no-triangle": "\x87\x00 0 8 true",
		"strip-triangle-past-end":   "\xa7\x00 3 1 true",
		"strip-triangle-in-plain":   "\xa6\x01\x00\x01 3 8 false",
		"strip-run-straddles":       "\xc6\x01\x06\x02\x04 8 8 true",
	} {
		f := strings.Fields(v)
		write(dir, name, fmt.Sprintf("[]byte(%q)\nuint16(%s)\nuint16(%s)\nbool(%s)\n", f[0], f[1], f[2], f[3]))
	}
}

// write writes one corpus file of the given value lines.
func write(dir, name, values string) {
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte("go test fuzz v1\n"+values), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}
