package atof

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
)

// AppendJSON appends f as encoding/json writes a float64: the shortest digits
// that read back as f (the closest of them, the even one at a tie),
// positional for 1e-6 ≤ |f| < 1e21 and exponent form outside, a negative
// exponent without its leading zero (e-7, not e-07). A finite f takes at most
// 25 bytes: -0.0000012345678901234567. NaN and ±Inf, which JSON cannot
// spell, are strconv's.
func AppendJSON(b []byte, f float64) []byte {
	u := math.Float64bits(f)
	if u>>52&0x7FF == 0x7FF {
		return strconv.AppendFloat(b, f, 'g', -1, 64)
	}
	if u>>63 != 0 {
		b = append(b, '-')
	}
	if u<<1 == 0 {
		return append(b, '0')
	}
	man, exp10 := shortest(u)
	var d [17]byte // man < 10^17, leading zeros included
	hi := man / 1e8
	d[0] = byte(hi/1e8) + '0'
	binary.LittleEndian.PutUint64(d[1:], digits8(uint32(hi%1e8))|0x3030303030303030)
	binary.LittleEndian.PutUint64(d[9:], digits8(uint32(man%1e8))|0x3030303030303030)
	i, j := 0, len(d)
	for d[i] == '0' {
		i++
	}
	for d[j-1] == '0' {
		j--
	}
	digits, dp := d[i:j], len(d)-i+exp10 // |f| = 0.digits × 10^dp
	switch n := len(digits); {
	case dp < -5 || dp > 21:
		b = append(b, digits[0])
		if n > 1 {
			b = append(b, '.')
			b = append(b, digits[1:]...)
		}
		e, sign := dp-1, byte('+')
		if e < 0 {
			e, sign = -e, '-'
		}
		b = append(b, 'e', sign)
		if e >= 100 {
			b = append(b, byte(e/100)+'0')
		}
		if e >= 10 {
			b = append(b, byte(e/10%10)+'0')
		}
		b = append(b, byte(e%10)+'0')
	case dp <= 0:
		b = append(b, "0.00000"[:2-dp]...)
		b = append(b, digits...)
	case dp < n:
		b = append(b, digits[:dp]...)
		b = append(b, '.')
		b = append(b, digits[dp:]...)
	default:
		b = append(b, digits...)
		b = append(b, "00000000000000000000"[:dp-n]...)
	}
	return b
}

// digits8 is x < 10^8 as eight digit values, the first in the lowest byte:
// two 4-digit halves split by 100 and then by 10 in every lane at once.
func digits8(x uint32) uint64 {
	v := uint64(x/1e4) | uint64(x%1e4)<<32
	d := v * 10486 >> 20 & 0x7F0000007F // ⌊v/100⌋ in each 32-bit lane
	v = d | (v-d*100)<<16
	d = v * 103 >> 10 & 0xF000F000F000F // ⌊v/10⌋ in each 16-bit lane
	return d | (v-d*10)<<8
}

// shortest is Giulietti's Schubfach ("The Schubfach way to render doubles",
// 2020) for the finite non-zero float64 with bits u, sign ignored: the
// shortest man × 10^exp10 inside its rounding interval, the closest where
// two are as short. The interval's ends and midpoint are scaled by 10^-k
// with one 64×128-bit product each, rounded to odd, against g, the pow10
// entry of -k plus one in its last bit — the table the reader uses, read
// from the other side. The one multiple of 10^(k+1) the interval may hold
// wins; else the nearer of the two multiples of 10^k around the midpoint.
func shortest(u uint64) (man uint64, exp10 int) {
	c, q := u&(1<<52-1), int(u>>52&0x7FF)
	if q == 0 { // subnormal: the smallest normal's exponent
		q = 1
	} else {
		c |= 1 << 52
	}
	q -= 1075 // |f| = c × 2^q
	// An integer below 2⁵³ is its own shortest digits.
	if -52 <= q && q < 0 && c&(1<<-q-1) == 0 {
		return c >> -q, 0
	}
	// The interval in units of 2^(q-2) is [cbl, cbr] around cb = 4c, its ends
	// in it when c is even (ties round to even). 10^k ≤ its width < 10^(k+1):
	// k is ⌊q·log₁₀2⌋, or ⌊log₁₀(¾·2^q)⌋ where the float below is half as far.
	cb, cbl, cbr := c<<2, c<<2-2, c<<2+2
	k := q * 661971961083 >> 41
	if c == 1<<52 && q > -1074 {
		cbl = cb - 1
		k = (q*661971961083 - 274743187321) >> 41
	}
	p := &pow10[-k-pow10Min]
	ghi, glo := p[0], p[1]+1
	if glo == 0 {
		ghi++
	}
	h := q + 217706*-k>>16 + 1 // q + ⌊log₂10^-k⌋ + 1, in [1, 4]
	vb, vbl, vbr := rop(ghi, glo, cb<<h), rop(ghi, glo, cbl<<h), rop(ghi, glo, cbr<<h)
	out := c & 1 // an odd c keeps the interval's ends out
	s := vb >> 2 // ⌊f × 10^-k⌋
	if sp := s / 10 * 10; (vbl+out <= sp<<2) != ((sp+10)<<2+out <= vbr) {
		if vbl+out <= sp<<2 {
			return sp, k
		}
		return sp + 10, k
	}
	if (vbl+out <= s<<2) != ((s+1)<<2+out <= vbr) {
		if vbl+out <= s<<2 {
			return s, k
		}
		return s + 1, k
	}
	if mid := s<<2 + 2; vb < mid || vb == mid && s&1 == 0 {
		return s, k
	}
	return s + 1, k
}

// rop is g × cp / 2¹²⁸ rounded to odd, g = ghi·2⁶⁴ + glo: the floor, its last bit set when any
// bit below it is (the low word of g's low half's product is not looked at).
func rop(ghi, glo, cp uint64) uint64 {
	x1, _ := bits.Mul64(glo, cp)
	y1, y0 := bits.Mul64(ghi, cp)
	z, carry := bits.Add64(y0, x1, 0)
	return (y1 + carry) | (z|-z)>>63
}
