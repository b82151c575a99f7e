package main

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"
)

// arrival is one scheduled request of an open-loop run.
type arrival struct {
	// Due is the send time as an offset from the run's start.
	Due time.Duration
	// Query indexes the query spectrum the request carries.
	Query int
}

// poissonSchedule draws an open-loop arrival schedule from the seed:
// a Poisson process at rate requests per second over the window,
// conditioned on its expected count — rate×window arrival times drawn
// uniformly and sorted — so every seed offers exactly the same load.
// Each request carries a uniformly drawn query. The same arguments
// always give the same schedule.
func poissonSchedule(seed int64, rate float64, window time.Duration, nQueries int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([]arrival, int(math.Round(rate*window.Seconds())))
	for i := range out {
		out[i].Due = time.Duration(rng.Int63n(int64(window)))
	}
	slices.SortFunc(out, func(a, b arrival) int { return cmp.Compare(a.Due, b.Due) })
	for i := range out {
		out[i].Query = rng.Intn(nQueries)
	}
	return out
}

// sample is one request as the load generator saw it.
type sample struct {
	// Query is the query index, or -1 for a request carrying every
	// query spectrum.
	Query int
	// Due is when the request was scheduled to be sent; Sent when a
	// connection took it; Done when its response was read in full.
	Due, Sent, Done time.Time
	// Lag is how late the generator itself ran: the time from Due
	// until the request was handed to a connection's queue (closed
	// loop: the turnaround from the previous response to this send).
	Lag time.Duration
	// Results is the per-spectrum outcome; Err a transport, status or
	// parse failure.
	Results []result
	Err     error
}

// latency is the request latency measured from the due time, so a
// stall also counts against every request scheduled behind it.
func (s sample) latency() time.Duration { return s.Done.Sub(s.Due) }

// sendFunc issues request i carrying query q (-1 = every query).
type sendFunc func(i, q int) ([]result, error)

// runOpenLoop sends the schedule from start on at most conns
// concurrent connections, each request at its due time whether or not
// earlier ones have completed. A request due while every connection is
// busy waits for one, and that wait is part of its latency.
func runOpenLoop(sched []arrival, conns int, start time.Time, send sendFunc) []sample {
	samples := make([]sample, len(sched))
	// Sized to the number of sends, so the dispatcher never blocks
	// behind busy connections and never runs late because of them.
	work := make(chan int, len(sched))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				s := &samples[i]
				s.Sent = time.Now()
				s.Results, s.Err = send(i, s.Query)
				s.Done = time.Now()
			}
		}()
	}
	for i, a := range sched {
		due := start.Add(a.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		samples[i].Query = a.Query
		samples[i].Due = due
		samples[i].Lag = time.Since(due)
		work <- i
	}
	close(work)
	wg.Wait()
	return samples
}

// runClosedLoop sends one request at a time, each as soon as the
// previous one completed, until the window has elapsed. query picks
// the i-th request's query (-1 = every query).
func runClosedLoop(window time.Duration, start time.Time, query func(i int) int, send sendFunc) []sample {
	var out []sample
	prev := start
	for i := 0; time.Since(start) < window; i++ {
		s := sample{Query: query(i), Sent: time.Now()}
		s.Due = s.Sent
		s.Lag = s.Sent.Sub(prev)
		s.Results, s.Err = send(i, s.Query)
		s.Done = time.Now()
		prev = s.Done
		out = append(out, s)
	}
	return out
}
