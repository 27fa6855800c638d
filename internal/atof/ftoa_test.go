package atof

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// jsonFloat is the writer AppendJSON replaced in the response path, kept as
// its reference: strconv's shortest digits in encoding/json's layout.
func jsonFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// checkAppend holds AppendJSON to the reference on f, with a prefix already
// in the buffer.
func checkAppend(t *testing.T, f float64) {
	t.Helper()
	got, want := AppendJSON([]byte("x"), f), jsonFloat([]byte("x"), f)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON(%#x) = %s, want %s", math.Float64bits(f), got[1:], want[1:])
	}
}

// boundaries is the sweep the families may miss: every power of two and of
// ten a float64 reaches, each with both neighbours, small integers and
// thousandths, and the extremes, all with both signs.
func boundaries() []float64 {
	var v []float64
	near := func(f float64) { v = append(v, math.Nextafter(f, 0), f, math.Nextafter(f, math.Inf(1))) }
	for e := -1074; e <= 1023; e++ {
		near(math.Ldexp(1, e))
	}
	for e := -325; e <= 308; e++ {
		f, _ := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		near(f)
	}
	for i := 0; i < 100000; i++ {
		v = append(v, float64(i), float64(i)/1000)
	}
	v = append(v, 0, 5e-324, 0x1p-1022, math.MaxFloat64)
	for _, f := range v {
		v = append(v, -f)
	}
	return v
}

// families draws n values from one of four families: random bit patterns,
// N(0, 1), uniform values scaled by 10^[-20, 20), and float32-rounded values,
// whose shortest digits are short.
func families(rng *rand.Rand, i int) float64 {
	switch i % 4 {
	case 0:
		return math.Float64frombits(rng.Uint64())
	case 1:
		return rng.NormFloat64()
	case 2:
		return rng.Float64() * math.Pow10(rng.Intn(40)-20)
	}
	return float64(float32(rng.NormFloat64() * math.Pow10(rng.Intn(40)-20)))
}

// Ten million values in four families and the boundary sweep, byte for byte
// what the strconv writer produced.
func TestAppendJSONAgainstStrconv(t *testing.T) {
	for _, f := range boundaries() {
		checkAppend(t, f)
	}
	rng := rand.New(rand.NewSource(1))
	var got, want []byte
	for i := 0; i < 10_000_000; i++ {
		f := families(rng, i)
		got, want = AppendJSON(got[:0], f), jsonFloat(want[:0], f)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON(%#x) = %s, want %s", math.Float64bits(f), got, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkAppend(t, f)
	}
}

func FuzzAppendJSON(f *testing.F) {
	for _, v := range []float64{0, 1, -1.5, 0.1, 1e21, 1e-7, 5e-324, math.MaxFloat64, 0x1p-1022, 9007199254740993, math.NaN()} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, u uint64) { checkAppend(t, math.Float64frombits(u)) })
}

// A finite float64 takes at most 25 bytes, the length the body cap of the
// vector endpoints assumes; negative 17-digit values in [1e-6, 1e-5) reach it.
func TestAppendJSONLength(t *testing.T) {
	longest := 0
	rng := rand.New(rand.NewSource(2))
	v := boundaries()
	for i := 0; i < 100000; i++ {
		v = append(v, -1e-6-9e-6*rng.Float64())
	}
	for _, f := range v {
		longest = max(longest, len(AppendJSON(nil, f)))
	}
	if longest != 25 {
		t.Errorf("the longest float64 took %d bytes, want 25", longest)
	}
	if b := AppendJSON(nil, -0.0000012345678901234567); string(b) != "-0.0000012345678901234567" {
		t.Errorf("AppendJSON(-0.0000012345678901234567) = %s", b)
	}
}

// BenchmarkAppendJSON writes a vector of normal deviates, in ns per float,
// with AppendJSON and with the strconv writer it replaced.
func BenchmarkAppendJSON(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, 1<<16)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	buf := make([]byte, 0, 32)
	for _, c := range []struct {
		name        string
		appendFloat func([]byte, float64) []byte
	}{{"atof", AppendJSON}, {"strconv", jsonFloat}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, f := range v {
					buf = c.appendFloat(buf[:0], f)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(v)), "ns/float")
		})
	}
}
