package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	// 1..100: the p-th percentile is exactly p, with 100-p samples
	// beyond it.
	ms := make([]float64, 100)
	for i := range ms {
		ms[len(ms)-1-i] = float64(i + 1) // unsorted input
	}
	d := newDist(ms)
	if d.N() != 100 {
		t.Fatalf("N = %d, want 100", d.N())
	}
	for _, p := range []float64{1, 50, 90, 99, 100} {
		if got := d.percentile(p); got != p {
			t.Errorf("p%v = %v, want %v", p, got, p)
		}
		if got, want := d.beyond(p), 100-int(p); got != want {
			t.Errorf("beyond(p%v) = %d, want %d", p, got, want)
		}
	}
	if got := d.mean(); got != 50.5 {
		t.Errorf("mean = %v, want 50.5", got)
	}
	if ms[0] != 100 {
		t.Errorf("newDist sorted its input in place")
	}
}

func TestPercentileSmallSamples(t *testing.T) {
	d := newDist([]float64{3, 1, 2})
	for p, want := range map[float64]float64{10: 1, 34: 2, 50: 2, 67: 3, 90: 3, 99: 3} {
		if got := d.percentile(p); got != want {
			t.Errorf("p%v of {1,2,3} = %v, want %v", p, got, want)
		}
	}
	// With three samples, p90 rests on none beyond it.
	if got := d.beyond(90); got != 0 {
		t.Errorf("beyond(p90) of 3 samples = %d, want 0", got)
	}
	if got := newDist(nil).percentile(50); !math.IsNaN(got) {
		t.Errorf("p50 of no samples = %v, want NaN", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}
