package main

import (
	"math"
	"slices"
	"sort"
)

// quantileNS returns the exact q-quantile of xs by the nearest-rank
// rule: the ceil(q·n)-th smallest sample. It sorts xs in place. An
// empty slice yields 0.
func quantileNS(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(k, len(xs)-1))]
}

// median returns the median of xs (the mean of the two middle values
// for an even count), leaving xs unchanged. An empty slice yields 0.
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

// meanNS returns the mean of xs in nanoseconds.
func meanNS(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}
