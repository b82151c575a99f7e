package main

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core"
)

func TestSpanAlgebra(t *testing.T) {
	u := union([]span{{5, 7}, {0, 2}, {1, 3}, {7, 8}})
	if want := []span{{0, 3}, {5, 8}}; !slices.Equal(u, want) {
		t.Errorf("union = %v, want %v", u, want)
	}
	if got := measure(u); got != 6 {
		t.Errorf("measure = %d, want 6", got)
	}
	x := intersect([]span{{0, 3}, {5, 8}}, []span{{2, 6}})
	if want := []span{{2, 3}, {5, 6}}; !slices.Equal(x, want) {
		t.Errorf("intersect = %v, want %v", x, want)
	}
	if c := clip([]span{{0, 3}, {5, 8}, {9, 10}}, span{2, 6}); !slices.Equal(c, []span{{2, 3}, {5, 6}}) {
		t.Errorf("clip = %v", c)
	}
}

func TestSplitAddsUp(t *testing.T) {
	tr := newTracer()
	at := func(us int) time.Time { return tr.epoch.Add(time.Duration(us) * time.Microsecond) }
	// Request 0 (one spectrum): due 0, sent 100, parsed 150, prepared
	// 150-250, its batch sweeps 400-900, done 950.
	// Request 1 (two spectra): due 0, sent 0, parsed 50, prepares
	// 50-300 and 60-200; batch A (with request 0) 400-900, batch B
	// 900-1000 overlapping nothing else; done 1100.
	tr.parsed(0, at(150))
	tr.parsed(1, at(50))
	tr.prepared("0", at(150), at(250), 10, true)
	tr.prepared("1", at(50), at(300), 30, true)
	tr.prepared("1", at(60), at(200), 30, true)
	tr.prepared("-1", at(0), at(5000), 99, true) // warm-up: ignored
	tr.swept([]core.PreparedQuery{{QueryID: "-1", Lo: 0, Hi: 99}}, at(0), at(5000))
	tr.mu.Lock()
	tr.batches = append(tr.batches,
		batchSpan{s: span{int64(400 * time.Microsecond), int64(900 * time.Microsecond)}, rows: 40, reqs: []int{0, 1}},
		batchSpan{s: span{int64(900 * time.Microsecond), int64(1000 * time.Microsecond)}, rows: 30, reqs: []int{1}})
	tr.mu.Unlock()
	samples := []sample{
		{Query: 3, Due: at(0), Sent: at(100), Done: at(950)},
		{Query: -1, Due: at(0), Sent: at(0), Done: at(1100)},
	}
	ls := tr.split(samples)
	want := layerSplit{
		wait:     (100 + 0) / 2.0,
		parse:    (50 + 50) / 2.0,
		prepare:  (100 + 250) / 2.0,
		sweep:    (500 + 600) / 2.0,
		queue:    ((950 - 150 - 100 - 500) + (1100 - 50 - 250 - 600)) / 2.0,
		total:    (950 + 1100) / 2.0,
		requests: 2,
	}
	if ls != want {
		t.Fatalf("split = %+v, want %+v", ls, want)
	}
	if sum := ls.wait + ls.parse + ls.prepare + ls.queue + ls.sweep; sum != ls.total {
		t.Errorf("parts sum to %v, total %v", sum, ls.total)
	}
	cs := tr.calls()
	if cs.batchSize != 1.5 || cs.rowsPerQuery != 70.0/3 || cs.sweepBatchUS != 300 {
		t.Errorf("calls = %+v", cs)
	}
}
