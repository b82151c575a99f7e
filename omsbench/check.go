package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/libindex"
	"repro/internal/spectrum"
)

// answer is one query's outcome as core computes it.
type answer struct {
	Matched bool
	Peptide string
	Score   float64
	Shift   float64
}

// result is one query's outcome as a response renders it. Scores and
// shifts stay strings so a TSV response (4 decimals) and a JSON or
// in-process one (every digit) compare against the same answer.
type result struct {
	Matched bool
	Peptide string
	Score   string
	Shift   string
}

// exactResult renders an outcome with every digit, as JSON and the
// in-process replay carry it.
func exactResult(matched bool, peptide string, score, shift float64) result {
	return result{
		Matched: matched,
		Peptide: peptide,
		Score:   strconv.FormatFloat(score, 'g', -1, 64),
		Shift:   strconv.FormatFloat(shift, 'g', -1, 64),
	}
}

// render is the answer as a response in the given format must show it.
func (a answer) render(tsv bool) result {
	if tsv {
		return result{Matched: a.Matched, Peptide: a.Peptide,
			Score: fmt.Sprintf("%.4f", a.Score), Shift: fmt.Sprintf("%+.4f", a.Shift)}
	}
	return exactResult(a.Matched, a.Peptide, a.Score, a.Shift)
}

// genSwitch is one publish as the reader side sees it: it started at
// Started; from Signaled on the new generation may serve a request;
// from Confirmed on the old one admits no new request.
type genSwitch struct {
	Started, Signaled, Confirmed time.Time
}

// liveRange returns the generations (0 = the one serving at the start,
// k = the one switch k-1 published) that may have served a request in
// flight from sent to done.
func liveRange(switches []genSwitch, sent, done time.Time) (lo, hi int) {
	for k, sw := range switches {
		if !sw.Confirmed.After(sent) {
			lo = k + 1
		}
		if sw.Signaled.Before(done) {
			hi = k + 1
		}
	}
	return lo, hi
}

// checkSample reports whether every result of a request matches the
// expected answer of some generation that was live while it was in
// flight. expected is indexed [generation][query]; queries lists the
// query index behind each result.
func checkSample(s sample, queries []int, expected [][]answer, switches []genSwitch, tsv bool) bool {
	if s.Err != nil || len(s.Results) != len(queries) {
		return false
	}
	lo, hi := liveRange(switches, s.Sent, s.Done)
	hi = min(hi, len(expected)-1)
	for j, got := range s.Results {
		ok := false
		for g := lo; g <= hi && !ok; g++ {
			ok = got == expected[g][queries[j]].render(tsv)
		}
		if !ok {
			return false
		}
	}
	return true
}

// servingParams applies omsd's default query-time overrides to the
// index's stored params: open search, every other setting as stored.
func servingParams(p core.Params) core.Params {
	p.Open = true
	return p
}

// expectedAt computes every query's answer at manifest generation gen
// through core's single-query path. It folds a copy of the first gen
// records of the generation log, so it can look back at a generation
// the index has since moved past (compaction keeps retired partition
// files on disk).
func expectedAt(manifest string, gen int, queries []*spectrum.Spectrum) ([]answer, error) {
	data, err := os.ReadFile(manifest)
	if err != nil {
		return nil, err
	}
	end := 0
	for i := 0; i < gen; i++ {
		nl := bytes.IndexByte(data[end:], '\n')
		if nl < 0 {
			return nil, fmt.Errorf("%s has fewer than %d generations", manifest, gen)
		}
		end += nl + 1
	}
	at := fmt.Sprintf("%s.at%d", manifest, gen)
	if err := os.WriteFile(at, data[:end], 0o644); err != nil {
		return nil, err
	}
	defer os.Remove(at)
	pi, err := libindex.OpenManifest(at)
	if err != nil {
		return nil, err
	}
	defer pi.Close()
	pe, _, err := core.NewPartitionedEngine(servingParams(pi.Params), pi.PartitionSet())
	if err != nil {
		return nil, err
	}
	out := make([]answer, len(queries))
	for i, q := range queries {
		psm, ok, err := pe.SearchOne(q)
		if err != nil {
			return nil, fmt.Errorf("expected answer for %s: %w", q.ID, err)
		}
		if ok {
			out[i] = answer{Matched: true, Peptide: psm.Peptide, Score: psm.Score, Shift: psm.MassShift}
		}
	}
	return out, nil
}
