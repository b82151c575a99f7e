package main

import (
	"math"
	"slices"
	"time"
)

// dist summarizes raw duration samples. Quantiles are nearest-rank
// over the sorted samples themselves — never read off a histogram — so
// a reported p50 is a latency some request actually saw.
type dist struct {
	sorted []float64 // milliseconds, ascending
}

// newDist copies and sorts the samples (in milliseconds).
func newDist(ms []float64) dist {
	s := slices.Clone(ms)
	slices.Sort(s)
	return dist{sorted: s}
}

// durationsMS converts durations to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// N is the sample count.
func (d dist) N() int { return len(d.sorted) }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100):
// the smallest sample with at least p% of the samples at or below it.
// It is NaN for an empty sample.
func (d dist) percentile(p float64) float64 {
	n := len(d.sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = max(rank, 1)
	rank = min(rank, n)
	return d.sorted[rank-1]
}

// beyond is the number of samples strictly above the p-th percentile's
// rank — how many observations a quantile estimate rests on.
func (d dist) beyond(p float64) int {
	n := len(d.sorted)
	if n == 0 {
		return 0
	}
	return n - max(int(math.Ceil(p/100*float64(n))), 1)
}

// mean is the arithmetic mean (NaN for an empty sample).
func (d dist) mean() float64 {
	return mean(d.sorted)
}

// mean is the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median is the middle value of xs (mean of the two middle values for
// an even count; NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
