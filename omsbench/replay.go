package main

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fdr"
	"repro/internal/libindex"
	"repro/internal/obsv"
	"repro/internal/serve"
	"repro/internal/spectrum"
)

// maxConcurrentSearches mirrors omsd's per-request bound on concurrent
// submissions into the micro-batcher.
const maxConcurrentSearches = 256

// inproc serves a workload inside the benchmark process: the same
// index files, engine constructor and micro-batcher (with serve's
// default Config, which omsd's default flags equal) that omsd runs,
// without HTTP. With a tracer it times every public call into the
// layers; without one it is the untimed replay that prices the
// tracing.
type inproc struct {
	manifest string
	in       *inputs
	tsv      bool    // render results as omsd's TSV does
	tr       *tracer // nil = untimed
	ops      *opTimes

	mu       sync.RWMutex
	cur      *servingGen
	rejected atomic.Int64
}

// servingGen is one opened generation, reference-counted like omsd's:
// it closes when it has been swapped out and its last search returned.
type servingGen struct {
	srv     *serve.Server
	pi      *libindex.PartitionedIndex
	overlay core.OverlayStats
	refs    atomic.Int64
}

func (g *servingGen) release() {
	if g.refs.Add(-1) == 0 {
		g.srv.Close()
		_ = g.pi.Close() // read-only mapping; nothing to flush
	}
}

// opTimes collects the in-process timings of the index operations a
// run performs, in milliseconds.
type opTimes struct {
	mu                         sync.Mutex
	open, engine, append, comp []float64
}

func (o *opTimes) add(dst *[]float64, d time.Duration) {
	o.mu.Lock()
	*dst = append(*dst, float64(d)/float64(time.Millisecond))
	o.mu.Unlock()
}

// newInproc opens the manifest's current generation.
func newInproc(manifest string, in *inputs, tsv bool, tr *tracer, ops *opTimes) (*inproc, error) {
	t := &inproc{manifest: manifest, in: in, tsv: tsv, tr: tr, ops: ops}
	g, err := t.open()
	if err != nil {
		return nil, err
	}
	t.cur = g
	return t, nil
}

// open builds a serving generation from the manifest as omsd does.
func (t *inproc) open() (*servingGen, error) {
	t0 := time.Now()
	pi, err := libindex.OpenManifest(t.manifest)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	pe, _, err := core.NewPartitionedEngine(servingParams(pi.Params), pi.PartitionSet())
	if err != nil {
		_ = pi.Close()
		return nil, err
	}
	t2 := time.Now()
	var eng core.SearchEngine = pe
	if t.tr != nil {
		eng = tracedEngine{TracedSearchEngine: pe, tr: t.tr} //oms:transfer the generation owns the mapping; release() closes server and index together
	}
	srv, err := serve.New(eng, serve.Config{})
	if err != nil {
		_ = pi.Close()
		return nil, err
	}
	t.ops.add(&t.ops.open, t1.Sub(t0))
	t.ops.add(&t.ops.engine, t2.Sub(t1))
	g := &servingGen{srv: srv, pi: pi, overlay: pe.OverlayStats()}
	g.refs.Store(1)
	return g, nil
}

// acquire pins the current generation; the caller releases it.
func (t *inproc) acquire() *servingGen {
	t.mu.RLock()
	g := t.cur
	g.refs.Add(1)
	t.mu.RUnlock()
	return g
}

// swap makes g current (nil retires the last one) and releases the
// previous generation.
func (t *inproc) swap(g *servingGen) {
	t.mu.Lock()
	old := t.cur
	t.cur = g
	t.mu.Unlock()
	if old != nil {
		old.release()
	}
}

// close retires the current generation.
func (t *inproc) close() { t.swap(nil) }

// overlay reports the current generation's overlay counts.
func (t *inproc) overlay() core.OverlayStats {
	g := t.acquire()
	defer g.release()
	return g.overlay
}

// send replays request i as omsd's handler runs it: parse the MGF
// body, then search every spectrum through the micro-batcher on at
// most maxConcurrentSearches goroutines.
func (t *inproc) send(i, q int) ([]result, error) {
	body := t.in.all
	if q >= 0 {
		body = t.in.bodies[q]
	}
	qs, err := spectrum.ReadMGF(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if t.tr != nil {
		t.tr.parsed(i, time.Now())
	}
	// The spectrum id carries the request number to the traced engine
	// (ids reach only the PSM's query id, which is not checked).
	token := strconv.Itoa(i)
	for _, s := range qs {
		s.ID = token
	}
	results := make([]result, len(qs))
	errs := make([]error, len(qs))
	next := make(chan int, len(qs)) // sized to the number of sends
	for j := range qs {
		next <- j
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < min(len(qs), maxConcurrentSearches); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				g := t.acquire()
				psm, ok, err := g.srv.Search(context.Background(), qs[j])
				g.release()
				if errors.Is(err, serve.ErrQueueFull) {
					t.rejected.Add(1)
				}
				errs[j] = err
				results[j] = answer{Matched: ok, Peptide: psm.Peptide, Score: psm.Score, Shift: psm.MassShift}.render(t.tsv)
			}
		}()
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// publish appends a batch as omsbuild -append does and swaps the new
// generation in.
func (t *inproc) publish(batch string) (genSwitch, error) {
	sw := genSwitch{Started: time.Now()}
	spectra, err := spectrum.ReadSpectraFile(batch)
	if err != nil {
		return sw, err
	}
	st, err := libindex.LoadManifestLog(t.manifest)
	if err != nil {
		return sw, err
	}
	p, err := st.DecodeParams()
	if err != nil {
		return sw, err
	}
	lib, err := libindex.BuildDeltaLibrary(spectra, p, st.DimPerm)
	if err != nil {
		return sw, err
	}
	if _, err := libindex.AppendDelta(t.manifest, st, lib, 0); err != nil {
		return sw, err
	}
	t.ops.add(&t.ops.append, time.Since(sw.Started))
	return t.reload(sw)
}

// compact folds the deltas as omscompact -sweep does and swaps the
// compacted generation in.
func (t *inproc) compact() (genSwitch, error) {
	sw := genSwitch{Started: time.Now()}
	if _, err := libindex.Compact(t.manifest, 0); err != nil {
		return sw, err
	}
	t.ops.add(&t.ops.comp, time.Since(sw.Started))
	st, err := libindex.LoadManifestLog(t.manifest)
	if err != nil {
		return sw, err
	}
	if _, err := libindex.SweepOrphans(t.manifest, st); err != nil {
		return sw, err
	}
	return t.reload(sw)
}

// reload opens the manifest's newest generation and swaps it in.
func (t *inproc) reload(sw genSwitch) (genSwitch, error) {
	g, err := t.open()
	if err != nil {
		return sw, err
	}
	sw.Signaled = time.Now()
	t.swap(g)
	sw.Confirmed = time.Now()
	return sw, nil
}

// tracedEngine is the benchmark's decorator around the engine omsd
// serves: it times every Prepare and every batched sweep and hands
// them to the tracer, keyed by the request number in the query id.
type tracedEngine struct {
	core.TracedSearchEngine
	tr *tracer
}

func (e tracedEngine) Prepare(q *spectrum.Spectrum) (core.PreparedQuery, bool, error) {
	start := time.Now()
	pq, ok, err := e.TracedSearchEngine.Prepare(q)
	e.tr.prepared(q.ID, start, time.Now(), pq.Hi-pq.Lo, ok)
	return pq, ok, err
}

func (e tracedEngine) SearchPrepared(qs []core.PreparedQuery) ([]fdr.PSM, []bool) {
	return e.SearchPreparedTraced(qs, nil)
}

func (e tracedEngine) SearchPreparedTraced(qs []core.PreparedQuery, otr *obsv.Trace) ([]fdr.PSM, []bool) {
	start := time.Now()
	psms, oks := e.TracedSearchEngine.SearchPreparedTraced(qs, otr)
	e.tr.swept(qs, start, time.Now())
	return psms, oks
}

// span is a closed time interval in nanoseconds since the tracer's
// epoch.
type span struct{ a, b int64 }

// tracer keeps the replay's spans in memory until the run ends.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	parse    map[int]int64 // request -> end of its body parse
	prepares []prepSpan
	batches  []batchSpan
}

type prepSpan struct {
	req  int
	s    span
	rows int
	ok   bool
}

type batchSpan struct {
	s    span
	rows int
	reqs []int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), parse: map[int]int64{}}
}

func (tr *tracer) ns(t time.Time) int64 { return int64(t.Sub(tr.epoch)) }

func (tr *tracer) parsed(req int, at time.Time) {
	tr.mu.Lock()
	tr.parse[req] = tr.ns(at)
	tr.mu.Unlock()
}

// prepared and swept record only numbered requests: the warm-up
// (request -1) runs before the window and stays out of every mean.
func (tr *tracer) prepared(id string, start, end time.Time, rows int, ok bool) {
	req, err := strconv.Atoi(id)
	if err != nil || req < 0 {
		return
	}
	tr.mu.Lock()
	tr.prepares = append(tr.prepares, prepSpan{req: req, s: span{tr.ns(start), tr.ns(end)}, rows: rows, ok: ok})
	tr.mu.Unlock()
}

func (tr *tracer) swept(qs []core.PreparedQuery, start, end time.Time) {
	b := batchSpan{s: span{tr.ns(start), tr.ns(end)}}
	for _, q := range qs {
		if req, err := strconv.Atoi(q.QueryID); err == nil && req >= 0 {
			b.rows += q.Hi - q.Lo
			b.reqs = append(b.reqs, req)
		}
	}
	if len(b.reqs) == 0 {
		return
	}
	tr.mu.Lock()
	tr.batches = append(tr.batches, b)
	tr.mu.Unlock()
}

// layerSplit is the mean per-request time, in microseconds, that a
// request spent blocked on each layer. The parts add up to total, the
// mean latency from due time to response.
type layerSplit struct {
	wait, parse, prepare, queue, sweep, total float64
	requests                                  int
}

// split attributes every request's latency to the layer it was
// blocked on: the load generator (due until sent), the MGF parse, and
// then, over the search phase, sweep while any batch holding one of
// its queries was sweeping, prepare while one of its queries was being
// prepared and none swept, and the serve queue for the rest.
func (tr *tracer) split(samples []sample) layerSplit {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	preps := map[int][]span{}
	for _, p := range tr.prepares {
		preps[p.req] = append(preps[p.req], p.s)
	}
	sweeps := map[int][]span{}
	for _, b := range tr.batches {
		for _, r := range slices.Compact(slices.Sorted(slices.Values(b.reqs))) {
			sweeps[r] = append(sweeps[r], b.s)
		}
	}
	var ls layerSplit
	for i, s := range samples {
		due, sent, done := tr.ns(s.Due), tr.ns(s.Sent), tr.ns(s.Done)
		parsed, ok := tr.parse[i]
		if !ok {
			parsed = sent
		}
		phase := span{parsed, done}
		sw := union(clip(sweeps[i], phase))
		pr := union(clip(preps[i], phase))
		sweep := measure(sw)
		prep := measure(pr) - measure(intersect(pr, sw))
		ls.wait += float64(sent - due)
		ls.parse += float64(parsed - sent)
		ls.sweep += float64(sweep)
		ls.prepare += float64(prep)
		ls.queue += float64(done-parsed) - float64(sweep) - float64(prep)
		ls.total += float64(done - due)
	}
	n := float64(len(samples)) * 1e3 // means, in µs
	ls.wait /= n
	ls.parse /= n
	ls.prepare /= n
	ls.queue /= n
	ls.sweep /= n
	ls.total /= n
	ls.requests = len(samples)
	return ls
}

// callStats are per-call means over every Prepare and sweep the
// replay made.
type callStats struct {
	prepareUS, rowsPerQuery, sweepBatchUS, batchSize, rowsPerUS float64
}

func (tr *tracer) calls() callStats {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var cs callStats
	var prepNS, rows, okN float64
	for _, p := range tr.prepares {
		prepNS += float64(p.s.b - p.s.a)
		if p.ok {
			rows += float64(p.rows)
			okN++
		}
	}
	var sweepNS, swept, queries float64
	for _, b := range tr.batches {
		sweepNS += float64(b.s.b - b.s.a)
		swept += float64(b.rows)
		queries += float64(len(b.reqs))
	}
	cs.prepareUS = prepNS / 1e3 / float64(len(tr.prepares))
	cs.rowsPerQuery = rows / okN
	cs.sweepBatchUS = sweepNS / 1e3 / float64(len(tr.batches))
	cs.batchSize = queries / float64(len(tr.batches))
	cs.rowsPerUS = swept / (sweepNS / 1e3)
	return cs
}

// clip intersects each span with w, dropping empty results.
func clip(ss []span, w span) []span {
	var out []span
	for _, s := range ss {
		a, b := max(s.a, w.a), min(s.b, w.b)
		if a < b {
			out = append(out, span{a, b})
		}
	}
	return out
}

// union merges spans into sorted, disjoint spans.
func union(ss []span) []span {
	ss = slices.Clone(ss)
	slices.SortFunc(ss, func(x, y span) int { return cmp.Compare(x.a, y.a) })
	var out []span
	for _, s := range ss {
		if n := len(out); n > 0 && s.a <= out[n-1].b {
			out[n-1].b = max(out[n-1].b, s.b)
			continue
		}
		out = append(out, s)
	}
	return out
}

// intersect intersects two sorted, disjoint span lists.
func intersect(x, y []span) []span {
	var out []span
	for i, j := 0, 0; i < len(x) && j < len(y); {
		a, b := max(x[i].a, y[j].a), min(x[i].b, y[j].b)
		if a < b {
			out = append(out, span{a, b})
		}
		if x[i].b < y[j].b {
			i++
		} else {
			j++
		}
	}
	return out
}

// measure is the total length of disjoint spans.
func measure(ss []span) int64 {
	var n int64
	for _, s := range ss {
		n += s.b - s.a
	}
	return n
}
