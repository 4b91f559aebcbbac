package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of values by linear
// interpolation between order statistics (the "R-7" rule: the quantile sits
// at rank q·(n−1)). It copies and sorts; values is left untouched. An empty
// input yields NaN.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// fastShare is the quantile the benchmark reports a repeated timing at: the
// fastest 1%.
const fastShare = 0.01

// spread summarizes repeated timings of the same work. Interference on a
// shared host — a neighbour's burst, steal time, the collector running on the
// other core — only ever adds time to a sample and never removes any, so the
// fast edge of the distribution is what the program costs when the machine
// is its own, and it repeats from run to run where the mean, the total and
// even the median move with the machine's mood (README.md has the numbers).
// Fast is therefore the estimate the benchmark reports; Median and Slow (p90)
// are printed beside it so the width of the distribution stays visible.
type spread struct {
	N                  int
	Fast, Median, Slow float64
}

func summarize(values []float64) spread {
	return spread{
		N:      len(values),
		Fast:   quantile(values, fastShare),
		Median: quantile(values, 0.50),
		Slow:   quantile(values, 0.90),
	}
}
