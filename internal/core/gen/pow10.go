package main

import "math/big"

// The third output, internal/atof/pow10_gen.go: 10^e for e in [-348, 347] as
// a 128-bit mantissa, exact with math/big and truncated, for the Eisel–Lemire
// step, and the 23 powers a float64 holds exactly, for Clinger's path.
type pow10Row struct {
	E      int
	Hi, Lo uint64
}

func pow10Rows() (rows []pow10Row) {
	low := new(big.Int).SetUint64(^uint64(0))
	for e := -348; e <= 347; e++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		m := new(big.Int)
		if e >= 0 {
			m.Rsh(m.Lsh(p, 128), uint(p.BitLen()))
		} else { // 2^(bits(p)+127) / 10^-e lies in (2¹²⁷, 2¹²⁸)
			m.Quo(m.Lsh(big.NewInt(1), uint(p.BitLen()+127)), p)
		}
		rows = append(rows, pow10Row{e, new(big.Int).Rsh(m, 64).Uint64(), m.And(m, low).Uint64()})
	}
	return rows
}

const pow10Text = `// Code generated by go run ./gen (internal/core/gen); DO NOT EDIT.

package atof

// pow10 is 10^e for e in [pow10Min, pow10Max] as a 128-bit mantissa
// {high, low}: the top bit set, the bits below the 128th truncated.
var pow10 = [...][2]uint64{
{{- range .}}
	{ {{printf "0x%016X" .Hi}}, {{printf "0x%016X" .Lo}} }, // 1e{{.E}}
{{- end}}
}

const pow10Min, pow10Max = {{(index . 0).E}}, {{(index . 0).E}} + len(pow10) - 1

// exact10 is 10^e for the e a float64 holds exactly.
var exact10 = [...]float64{ {{- range .}}{{if and (ge .E 0) (le .E 22)}}1e{{.E}}, {{end}}{{end -}} }
`
