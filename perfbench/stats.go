package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of a latency sample
// in which misses more observations never completed. Misses rank above
// every completed sample, so a percentile that lands among them is
// +Inf. ok is false when fewer than minBeyond observations lie beyond
// the percentile's rank; the caller must then not report it. sorted
// must be in ascending order.
func percentile(sorted []int64, misses int, q float64) (v float64, ok bool) {
	total := len(sorted) + misses
	rank := int(math.Ceil(q * float64(total))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if total-rank < minBeyond {
		return 0, false
	}
	if rank > len(sorted) {
		return math.Inf(1), true
	}
	return float64(sorted[rank-1]), true
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
