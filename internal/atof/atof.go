// Package atof converts between float64 and decimal text at both doors of
// the service, each direction byte for byte or bit for bit what strconv does,
// and both scale by the one generated table of 128-bit powers of ten.
//
// Reading (JSON, Parse) is one pass, which checks the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and gathers the digits into
// a uint64 and the power of ten that scales them. Clinger's exact path
// converts when the digits fit 53 bits and |power| ≤ 22, an Eisel–Lemire step
// otherwise, and strconv.ParseFloat what neither settles (over 19 digits, a
// five-digit exponent, a subnormal or infinite result, a product too near a
// halfway point): every value is strconv's, bit for bit.
//
// Writing (AppendJSON) is a Schubfach step, which finds the shortest digits
// that read back as the float64 with three 64×128-bit products and no loop,
// laid out as encoding/json lays out strconv's: every byte is theirs.
package atof

import (
	"errors"
	"math"
	"math/bits"
	"strconv"
)

// ErrSyntax is JSON's error for bytes that do not start with a number literal.
var ErrSyntax = errors.New("atof: not a JSON number")

// JSON reads the number literal at the start of b and returns its value and
// length, or ErrSyntax and the offset of the byte that broke the grammar —
// len(b) if b ran out first, so n == len(b) tells a caller reading a stream
// that the literal may go on. Beyond float64's range, err is strconv's.
func JSON(b []byte) (f float64, n int, err error) {
	d, n, ok := scan(b)
	if !ok {
		return 0, n, ErrSyntax
	}
	if f, ok = d.float(); !ok {
		f, err = strconv.ParseFloat(string(b[:n]), 64)
	}
	return f, n, err
}

// Parse converts all of b as strconv.ParseFloat(string(b), 64) does, value
// and error alike: a JSON literal in one pass, any other spelling (a plus
// sign, a bare point, leading zeros, inf, nan, hex, underscores) by strconv.
func Parse(b []byte) (float64, error) {
	if f, n, err := JSON(b); n == len(b) && err != ErrSyntax {
		return f, err
	}
	return strconv.ParseFloat(string(b), 64)
}

// decimal is ±man × 10^exp10, exactly so unless inexact (see the package doc).
type decimal struct {
	man          uint64
	exp10        int
	neg, inexact bool
}

// scan is the one pass; n is as JSON's.
func scan(b []byte) (d decimal, n int, ok bool) {
	i := 0
	if len(b) > 0 && b[0] == '-' {
		d.neg, i = true, 1
	}
	start := i
	switch {
	case i == len(b) || b[i]-'0' > 9:
		return d, i, false
	case b[i] == '0': // no digit may follow a leading zero
		i++
	default:
		i, d.man = digits(b, i, 0)
	}
	nd := i - start
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for d.man == 0 && i < len(b) && b[i] == '0' { // not significant
			i++
		}
		sig := i
		if i, d.man = digits(b, i, d.man); i == frac {
			return d, i, false
		}
		nd += i - sig
		d.exp10 = frac - i
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		neg := i < len(b) && b[i] == '-'
		if i < len(b) && (neg || b[i] == '+') {
			i++
		}
		start, e := i, uint64(0)
		if i, e = digits(b, i, 0); i == start {
			return d, i, false
		}
		if d.inexact = i-start > 4; neg { // past four digits, e may have wrapped
			e = -e // and int(e) is then -e, in two's complement
		}
		d.exp10 += int(e)
	}
	d.inexact = d.inexact || nd > 19
	return d, i, true
}

// digits appends the digits at b[i:] to x and returns the index behind them.
func digits(b []byte, i int, x uint64) (int, uint64) {
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		x = x*10 + uint64(b[i]-'0')
	}
	return i, x
}

// float is d's value correctly rounded, or ok false where strconv must decide.
func (d decimal) float() (f float64, ok bool) {
	switch {
	case d.inexact:
		return 0, false
	case d.man == 0:
		ok = true
	case d.man < 1<<53 && -22 <= d.exp10 && d.exp10 <= 22: // Clinger: one rounding
		f, ok = float64(d.man), true
		if d.exp10 < 0 {
			f /= exact10[-d.exp10]
		} else {
			f *= exact10[d.exp10]
		}
	default:
		f, ok = eiselLemire(d.man, d.exp10)
	}
	if d.neg {
		f = -f
	}
	return f, ok
}

// eiselLemire rounds man × 10^exp10 to 53 bits from the top of man times the
// truncated table entry; it gives up where the dropped bits could still carry
// into the result, at a halfway point, and on a subnormal or infinite result.
func eiselLemire(man uint64, exp10 int) (float64, bool) {
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	clz := bits.LeadingZeros64(man)
	man <<= clz
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz) // biased, up to the product's top bit; 217706/2¹⁶ ≈ log₂10
	pow := &pow10[exp10-pow10Min]
	hi, lo := bits.Mul64(man, pow[0])
	if hi&0x1FF == 0x1FF && lo+man < man { // the low word may carry into the 9 bits below the result
		yhi, ylo := bits.Mul64(man, pow[1])
		if lo += yhi; lo < yhi {
			hi++
		}
		if hi&0x1FF == 0x1FF && lo+1 == 0 && ylo+man < man {
			return 0, false
		}
	}
	top := hi >> 63
	mant := hi >> (top + 9) // 54 bits
	exp2 -= 1 ^ top
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false // halfway, as far as 128 bits can tell
	}
	if mant = (mant + mant&1) >> 1; mant>>53 != 0 { // rounding carried into a 54th bit
		mant >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 { // subnormal (0, or wrapped below it) or infinite (0x7FF)
		return 0, false
	}
	return math.Float64frombits(exp2<<52 | mant&(1<<52-1)), true
}
