package main

import (
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(7, 400, 10*time.Second, 320)
	b := poissonSchedule(7, 400, 10*time.Second, 320)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonSchedule(8, 400, 10*time.Second, 320); slices.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestPoissonScheduleShape(t *testing.T) {
	const rate, window = 400.0, 10 * time.Second
	s := poissonSchedule(1, rate, window, 320)
	if len(s) != 4000 {
		t.Errorf("%d arrivals, want exactly 4000", len(s))
	}
	// Inter-arrival gaps of a Poisson process are exponential: mean
	// 1/rate, and about 1-1/e of them shorter than the mean.
	var short int
	for i := 1; i < len(s); i++ {
		if s[i].Due-s[i-1].Due < time.Duration(float64(time.Second)/rate) {
			short++
		}
	}
	if frac := float64(short) / float64(len(s)-1); math.Abs(frac-(1-1/math.E)) > 0.03 {
		t.Errorf("%.3f of gaps shorter than the mean, want about %.3f", frac, 1-1/math.E)
	}
	seen := map[int]bool{}
	for i, a := range s {
		if a.Due < 0 || a.Due >= window {
			t.Fatalf("arrival %d due at %v, outside [0, %v)", i, a.Due, window)
		}
		if i > 0 && a.Due < s[i-1].Due {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
		if a.Query < 0 || a.Query >= 320 {
			t.Fatalf("arrival %d carries query %d", i, a.Query)
		}
		seen[a.Query] = true
	}
	if len(seen) < 300 {
		t.Errorf("only %d of 320 queries drawn", len(seen))
	}
}

func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	// Two requests due together on one connection: the second waits
	// for the first, and that wait is part of its latency.
	sched := []arrival{{Due: 0, Query: 0}, {Due: 0, Query: 1}}
	const service = 20 * time.Millisecond
	var calls atomic.Int32
	samples := runOpenLoop(sched, 1, time.Now(), func(i, q int) ([]result, error) {
		calls.Add(1)
		time.Sleep(service)
		return []result{{Matched: q == 1}}, nil
	})
	if calls.Load() != 2 || len(samples) != 2 {
		t.Fatalf("%d calls, %d samples", calls.Load(), len(samples))
	}
	if samples[1].latency() < 2*service {
		t.Errorf("second request latency %v, want at least %v (its wait counts)", samples[1].latency(), 2*service)
	}
	if samples[1].Sent.Sub(samples[1].Due) < service {
		t.Errorf("second request sent %v after due, want at least %v", samples[1].Sent.Sub(samples[1].Due), service)
	}
	if !samples[1].Results[0].Matched || samples[0].Results[0].Matched {
		t.Error("results landed in the wrong samples")
	}
}

func TestClosedLoopStopsAfterWindow(t *testing.T) {
	start := time.Now()
	samples := runClosedLoop(30*time.Millisecond, start, func(int) int { return -1 }, func(i, q int) ([]result, error) {
		time.Sleep(5 * time.Millisecond)
		return nil, nil
	})
	if len(samples) < 2 {
		t.Fatalf("%d requests in the window", len(samples))
	}
	for i, s := range samples {
		if s.Query != -1 || s.Due != s.Sent {
			t.Errorf("sample %d: query %d, due %v sent %v", i, s.Query, s.Due, s.Sent)
		}
		if i > 0 && s.Sent.Before(samples[i-1].Done) {
			t.Errorf("sample %d sent before its predecessor completed", i)
		}
	}
}
