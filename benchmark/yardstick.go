package main

import (
	"strconv"
	"time"
)

// yardNominal is about the yardstick's time on this box while it runs at full
// speed (1.22–1.4 ms over 48 runs; about 2.3 ms during its slow spells). Any
// constant would do: it only fixes the scale on which adjusted times read.
const yardNominal = 1.3e-3

// yardPerSlot is how many yardstick samples go before each quantity's samples
// in each round.
const yardPerSlot = 6

// yardstick is a fixed piece of single-threaded work that calls nothing of
// the program under test: parsing 20 000 decimal numbers. The box runs
// everything, this included, at one of two speeds 1.6× apart and holds each
// for minutes at a time, so sets of runs that straddled a change spread 22–44 %
// on every timing and 4–14 % once each run's times were divided by its own
// yardstick (README.md has the tables). The untraced run times it in every
// round beside every quantity and reports its timings as they would read with
// the yardstick at yardNominal.
type yardstick struct {
	words []string
	out   []float64
}

func newYardstick() *yardstick {
	y := &yardstick{words: make([]string, 20000)}
	for i := range y.words {
		y.words[i] = strconv.FormatFloat(float64(i)*1.000123+0.5, 'g', 17, 64)
	}
	y.out = make([]float64, 0, len(y.words))
	return y
}

// run does the work once and returns its seconds.
func (y *yardstick) run() float64 {
	t0 := time.Now()
	y.out = y.out[:0]
	for _, w := range y.words {
		v, _ := strconv.ParseFloat(w, 64) // the words were formatted from floats
		y.out = append(y.out, v)
	}
	return time.Since(t0).Seconds()
}
