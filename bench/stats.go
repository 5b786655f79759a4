package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: fewer, and the value is one outlier's latency, not a
// property of the distribution.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of an
// ascending-sorted sample. It refuses a percentile with fewer than
// minBeyond samples on either side of it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("stats: percentile %g outside (0, 1)", p)
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond || rank-1 < minBeyond {
		return 0, fmt.Errorf("stats: p%g of %d samples has fewer than %d beyond it", p*100, n, minBeyond)
	}
	return sorted[rank-1], nil
}

// rankValue is percentile without the sample-count refusal, for -quick
// runs whose windows are too short to support one.
func rankValue(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// which is what the driver's spread check uses. It needs two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4 // 1-based, fractional
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
