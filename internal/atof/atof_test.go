package atof

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// validNumber is the JSON grammar as the request scanner checked it before
// this package: b is exactly one number literal.
func validNumber(b []byte) bool {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch j := digits(i); {
	case j == i, b[i] == '0' && j > i+1:
		return false
	default:
		i = j
	}
	if i < len(b) && b[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			return false
		}
		i = j
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			return false
		}
		i = j
	}
	return i == len(b)
}

// check holds the package to strconv on one input:
//   - the fast path declines, or its bits are ParseFloat's over the bytes it consumed;
//   - JSON takes the whole of b exactly when validNumber and ParseFloat did, with ParseFloat's bits;
//   - Parse is ParseFloat, value and error alike.
func check(t *testing.T, b []byte) {
	t.Helper()
	if d, n, ok := scan(b); ok {
		if f, ok := d.float(); ok {
			want, err := strconv.ParseFloat(string(b[:n]), 64)
			if err != nil || math.Float64bits(f) != math.Float64bits(want) {
				t.Fatalf("fast path reads %q as %v (%#x); strconv: %v (%#x), %v", b[:n], f, math.Float64bits(f), want, math.Float64bits(want), err)
			}
		}
	}
	want, werr := strconv.ParseFloat(string(b), 64)
	f, n, err := JSON(b)
	if got, accept := err == nil && n == len(b), validNumber(b) && werr == nil; got != accept {
		t.Fatalf("JSON(%q) = %v, %d, %v; validNumber %v, strconv %v", b, f, n, err, validNumber(b), werr)
	} else if got && math.Float64bits(f) != math.Float64bits(want) {
		t.Fatalf("JSON(%q) = %v, strconv %v", b, f, want)
	}
	if err == ErrSyntax && n < len(b) && validNumber(b[:n+1]) {
		t.Fatalf("JSON(%q) breaks at %d, but %q is a literal", b, n, b[:n+1])
	}
	got, gerr := Parse(b)
	if (gerr == nil) != (werr == nil) || math.Float64bits(got) != math.Float64bits(want) && !math.IsNaN(want) {
		t.Fatalf("Parse(%q) = %v, %v; strconv %v, %v", b, got, gerr, want, werr)
	}
	if gerr != nil && !errors.Is(gerr, strconv.ErrRange) && !errors.Is(gerr, strconv.ErrSyntax) {
		t.Fatalf("Parse(%q): %v is not strconv's", b, gerr)
	}
}

var hard = []string{
	"9007199254740993", "9007199254740992", "-9007199254740993",
	"2.2250738585072011e-308", "2.2250738585072014e-308", "4.9406564584124654e-324", "5e-324", "2.4703282292062327e-324",
	"1.7976931348623157e308", "1.7976931348623159e308", "1.7976931348623158e308",
	"1e23", "8.98846567431158e307", "1e22", "1e-22", "9007199254740991e22", "1e308", "1e309",
	"-0", "0", "0e999", "-0.0e-999", "0.000", "1e-400", "1e-350", "1e-348", "1e347", "1e348",
	"1234567890123456789", "12345678901234567890", "18446744073709551616", "99999999999999999999",
	"0." + strings.Repeat("0", 400) + "1", "0." + strings.Repeat("0", 300) + "1e300",
	"1" + strings.Repeat("0", 799), "0." + strings.Repeat("1", 798), "1." + strings.Repeat("0", 30),
	"1e10000", "1e-10000", "0.1", "-0.25", "4", "1.5e-7", "1E+2", "1e-0",
	"", "-", "01", "+1", ".5", "1.", "1e", "1e+", "-.5", "1.5.5", "1-2", "0x10", "Inf", "-Inf", "NaN", "1_0", "0x1p-2",
}

func FuzzParseFloat(f *testing.F) {
	for _, s := range hard {
		f.Add([]byte(s))
	}
	f.Fuzz(check)
}

// An exponent of five digits or more stops counting, so it must not land a
// long fraction's scale back inside the table: 10^-10051 × 10^10000 is 1e-51.
// (Too long a seed for the fuzzer, whose minimizer would spend its budget.)
func TestExponentCap(t *testing.T) {
	for _, e := range []string{"e10000", "e100000", "e99999999999"} {
		check(t, []byte("0."+strings.Repeat("0", 10050)+"1"+e))
		check(t, []byte("1"+strings.Repeat("0", 10050)+e[:1]+"-"+e[1:]))
	}
}

// A million literals in four spellings — shortest digits, %.17g, the shortest
// digits of random bit patterns (every exponent, subnormals, ±Inf and NaN)
// and positional digits of values in [−1, 1] — read bit for bit as strconv
// reads them.
func TestRandomLiterals(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	spell := []func() string{
		func() string {
			return strconv.FormatFloat(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)), 'g', -1, 64)
		},
		func() string { return fmt.Sprintf("%.17g", rng.NormFloat64()*math.Pow(10, float64(rng.Intn(600)-300))) },
		func() string { return strconv.FormatFloat(math.Float64frombits(rng.Uint64()), 'g', -1, 64) },
		func() string { return strconv.FormatFloat(2*rng.Float64()-1, 'f', -1, 64) },
	}
	fast := 0
	for i := 0; i < 1<<20; i++ {
		b := []byte(spell[i%len(spell)]())
		check(t, b)
		if d, n, ok := scan(b); ok && n == len(b) {
			if _, ok := d.float(); ok {
				fast++
			}
		}
	}
	if fast < 1<<20*7/10 {
		t.Errorf("the fast path settled %d of %d literals", fast, 1<<20)
	}
}

// JSON stops at the first byte the grammar does not take and reports where.
func TestJSONStops(t *testing.T) {
	for _, c := range []struct {
		in  string
		n   int
		err error
	}{
		{"1,2", 1, nil}, {"-0.5]", 4, nil}, {"1e5e", 3, nil}, {"01", 1, nil}, {"1 ", 1, nil},
		{"1.", 2, ErrSyntax}, {"1.x", 2, ErrSyntax}, {"-", 1, ErrSyntax}, {"1e+", 3, ErrSyntax}, {"x", 0, ErrSyntax},
		{"1e999,", 5, strconv.ErrRange},
	} {
		_, n, err := JSON([]byte(c.in))
		if n != c.n || !errors.Is(err, c.err) {
			t.Errorf("JSON(%q): n = %d, err = %v; want %d, %v", c.in, n, err, c.n, c.err)
		}
	}
	if f, _, _ := JSON(bytes.Repeat([]byte("9"), 25)); f != 1e25 {
		t.Errorf("25 nines read as %v", f)
	}
}
