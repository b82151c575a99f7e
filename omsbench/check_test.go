package main

import (
	"errors"
	"testing"
	"time"
)

func TestRenderMatchesResponses(t *testing.T) {
	a := answer{Matched: true, Peptide: "PEPTIDEK", Score: 0.123456789, Shift: -15.99491}
	if got := a.render(false); got != exactResult(true, "PEPTIDEK", 0.123456789, -15.99491) {
		t.Errorf("exact render %+v", got)
	}
	want := result{Matched: true, Peptide: "PEPTIDEK", Score: "0.1235", Shift: "-15.9949"}
	if got := a.render(true); got != want {
		t.Errorf("TSV render %+v, want %+v", got, want)
	}
	// An unmatched query renders as omsd leaves it: zero score, zero
	// shift, no peptide.
	if got := (answer{}).render(true); got != (result{Score: "0.0000", Shift: "+0.0000"}) {
		t.Errorf("unmatched TSV render %+v", got)
	}
}

func TestCheckSampleSingleGeneration(t *testing.T) {
	exp := [][]answer{{
		{Matched: true, Peptide: "AAK", Score: 0.5, Shift: 1},
		{},
	}}
	now := time.Now()
	ok := sample{Sent: now, Done: now.Add(time.Millisecond),
		Results: []result{exp[0][0].render(false), exp[0][1].render(false)}}
	if !checkSample(ok, []int{0, 1}, exp, nil, false) {
		t.Error("matching response rejected")
	}
	wrongScore := ok
	wrongScore.Results = []result{exactResult(true, "AAK", 0.5000001, 1), exp[0][1].render(false)}
	if checkSample(wrongScore, []int{0, 1}, exp, nil, false) {
		t.Error("response with a different score accepted")
	}
	short := ok
	short.Results = ok.Results[:1]
	if checkSample(short, []int{0, 1}, exp, nil, false) {
		t.Error("response missing a result accepted")
	}
	failed := ok
	failed.Err = errors.New("503")
	if checkSample(failed, []int{0, 1}, exp, nil, false) {
		t.Error("failed request accepted")
	}
}

func TestCheckSampleOldOrNewAcrossSwap(t *testing.T) {
	oldA := answer{Matched: true, Peptide: "OLDK", Score: 0.4, Shift: 0}
	newA := answer{Matched: true, Peptide: "NEWK", Score: 0.6, Shift: 0}
	exp := [][]answer{{oldA}, {newA}}
	t0 := time.Now()
	// The swap is signalled at 10ms and confirmed at 20ms.
	sw := []genSwitch{{Started: t0.Add(5 * time.Millisecond), Signaled: t0.Add(10 * time.Millisecond), Confirmed: t0.Add(20 * time.Millisecond)}}
	at := func(from, to int, a answer) sample {
		return sample{Sent: t0.Add(time.Duration(from) * time.Millisecond), Done: t0.Add(time.Duration(to) * time.Millisecond),
			Results: []result{a.render(false)}}
	}
	for _, c := range []struct {
		name     string
		s        sample
		accepted bool
	}{
		{"old before the swap", at(0, 5, oldA), true},
		{"new before the swap", at(0, 5, newA), false},
		{"old while swapping", at(8, 15, oldA), true},
		{"new while swapping", at(8, 15, newA), true},
		{"old admitted before confirm, done after", at(15, 30, oldA), true},
		{"old after the swap", at(25, 30, oldA), false},
		{"new after the swap", at(25, 30, newA), true},
		{"neither", at(8, 15, answer{}), false},
	} {
		if got := checkSample(c.s, []int{0}, exp, sw, false); got != c.accepted {
			t.Errorf("%s: accepted=%v, want %v", c.name, got, c.accepted)
		}
	}
}

func TestLiveRangeSeveralSwitches(t *testing.T) {
	t0 := time.Now()
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	sw := []genSwitch{
		{Signaled: ms(10), Confirmed: ms(12)},
		{Signaled: ms(20), Confirmed: ms(22)},
		{Signaled: ms(30), Confirmed: ms(32)},
	}
	for _, c := range []struct {
		sent, done, lo, hi int
	}{
		{0, 5, 0, 0},
		{11, 15, 0, 1},
		{13, 15, 1, 1},
		{13, 25, 1, 2},
		{5, 40, 0, 3},
		{33, 40, 3, 3},
	} {
		lo, hi := liveRange(sw, ms(c.sent), ms(c.done))
		if lo != c.lo || hi != c.hi {
			t.Errorf("in flight %d..%dms: generations %d..%d, want %d..%d", c.sent, c.done, lo, hi, c.lo, c.hi)
		}
	}
}
