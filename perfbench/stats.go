package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly above a percentile
// before the percentile is reported: below that, the tail estimate rests
// on a handful of samples and moves with every run.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule, and whether at least minBeyond samples lie beyond
// it. A percentile that fails the rule must not be reported.
func percentile(samples []float64, q float64) (float64, bool) {
	if len(samples) == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	v := s[rank-1]
	beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	return v, beyond >= minBeyond
}

// median returns the middle value of xs (the mean of the middle two for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
