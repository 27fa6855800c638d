// Command gencorpus regenerates the binary regression corpus for
// FuzzSymDeserialize under internal/fuzzcheck/testdata/fuzz/. The seeds are
// real CSX-Sym serializations — clean ones for each reduction method, plus
// corrupt-in-memory variants whose trailing CRC is still valid, so they reach
// the structural validator rather than the checksum check. Run it from the
// repository root after changing the serialization format:
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

	"repro/internal/core"
	"repro/internal/csx"
	"repro/internal/matrix"
)

func symBytes(method core.ReductionMethod, mutate func(sm *csx.SymMatrix)) []byte {
	m := matrix.NewCOO(24, 24, 24*3)
	m.Symmetric = true
	for r := 0; r < 24; r++ {
		m.Add(r, r, 6)
		for d := 1; d <= 2 && r-d >= 0; d++ {
			m.Add(r, r-d, -1)
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
		"valid-indexed":        clean,
		"valid-naive":          symBytes(core.Naive, nil),
		"valid-effective":      symBytes(core.EffectiveRanges, nil),
		"corrupt-unknown-unit": symBytes(core.Indexed, func(sm *csx.SymMatrix) { sm.Blobs[1].Ctl[0] |= 0x3f }),
		"corrupt-blob-rows":    symBytes(core.Indexed, func(sm *csx.SymMatrix) { sm.Blobs[0].StartRow++ }),
		"corrupt-method":       symBytes(core.Indexed, func(sm *csx.SymMatrix) { sm.Method = core.Colored }),
		"truncated-tail":       clean[:len(clean)-5],
		"truncated-header":     clean[:20],
	}
	for name, data := range seeds {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
	}
}
