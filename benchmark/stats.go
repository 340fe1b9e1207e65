package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. xs need not be sorted; an empty slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := nearestRank(p, len(s))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// nearestRank is ⌈p·n/100⌉, with the product's rounding error kept from
// pushing an exact integer over to the next one.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quiet is the quiet-time cost of an operation: the 2nd percentile of
// its samples (the fastest one when there are fewer than fifty-one). On
// the reference host an operation runs at one of a few discrete speeds,
// flipping between them from moment to moment as the host decides;
// whatever shares the host only ever adds time, so the low end of the
// samples is the program's own cost and repeats from run to run, where
// the median follows the neighbours.
func quiet(xs []float64) float64 { return percentile(xs, 2) }

// tailPercentiles are the candidates for the reported tail, ascending.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// tailPercentile returns the highest candidate percentile that still has
// at least ten of the n samples beyond it, or 0 when even the median
// does not (n < 20): a tail read off fewer than ten samples is noise.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		beyond := n - nearestRank(p, n)
		if beyond >= 10 {
			best = p
		}
	}
	return best
}

// quartiles returns the first and third quartile by the exclusive
// method Python's statistics.quantiles(values, n=4) uses, so spreads
// computed here match the ones the benchmark contract is checked with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// midMedian is the conventional median (mean of the two middle samples
// for even n), used when comparing result sets.
func midMedian(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := midMedian(xs)
	if m == 0 || len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
