package hdc

import (
	"math/rand"
	"testing"
)

// TestTopKRangeParallelPath exercises the multi-shard fan-out branch
// (range length above parallelMinRefs) against the naive scan.
func TestTopKRangeParallelPath(t *testing.T) {
	if testing.Short() {
		t.Skip("large reference set")
	}
	d, n := 64, parallelMinRefs+1500
	refs := randomRefs(d, n, 17)
	s, err := NewShardedSearcher(refs, 512)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	q := RandomBinaryHV(d, rng)
	lo, hi := 100, 100+parallelMinRefs+700
	got := s.TopKRange(q, lo, hi, 7)
	want := naiveTopK(refs, d, q, indexRange(lo, hi), 7)
	if !matchesEqual(got, want) {
		t.Fatalf("parallel range path diverges:\ngot  %v\nwant %v", got, want)
	}
}

// TestSimilaritiesRangeIntoParity checks the bulk range scorer
// against the scalar similarity, including buffer reuse and clamping.
func TestSimilaritiesRangeIntoParity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d, n := 130, 300
	refs := randomRefs(d, n, 22)
	s, err := NewShardedSearcher(refs, 64)
	if err != nil {
		t.Fatal(err)
	}
	q := RandomBinaryHV(d, rng)
	var buf []int
	for _, r := range [][2]int{{0, n}, {10, 200}, {-5, 40}, {250, n + 90}, {60, 60}, {120, 10}} {
		buf = s.SimilaritiesRangeInto(q, r[0], r[1], buf)
		lo, hi := r[0], r[1]
		if lo < 0 {
			lo = 0
		}
		if hi > n {
			hi = n
		}
		wantLen := hi - lo
		if wantLen < 0 {
			wantLen = 0
		}
		if len(buf) != wantLen {
			t.Fatalf("range %v: len = %d, want %d", r, len(buf), wantLen)
		}
		for j := range buf {
			if want := HammingSimilarity(q, refs[lo+j]); buf[j] != want {
				t.Fatalf("range %v row %d: sim = %d, want %d", r, lo+j, buf[j], want)
			}
		}
	}
}

// TestBatchTopKRangeShapeChecks covers the argument contracts: a
// ranges slice shorter than queries panics, k <= 0 yields nil rows,
// and an all-empty batch returns empty (non-nil) match lists.
func TestBatchTopKRangeShapeChecks(t *testing.T) {
	refs := randomRefs(64, 50, 31)
	s, err := NewShardedSearcher(refs, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	q := RandomBinaryHV(64, rng)

	func() {
		defer func() {
			if recover() == nil {
				t.Error("mismatched ranges length did not panic")
			}
		}()
		s.BatchTopKRange([]BinaryHV{q, q}, []RowRange{{Lo: 0, Hi: 10}}, 3, nil)
	}()

	out := s.BatchTopKRange([]BinaryHV{q}, []RowRange{{Lo: 0, Hi: 10}}, 0, nil)
	if out[0] != nil {
		t.Errorf("k=0: got %v, want nil", out[0])
	}

	out = s.BatchTopKRange([]BinaryHV{q, q}, []RowRange{{Lo: 5, Hi: 5}, {Lo: 40, Hi: 20}}, 3, nil)
	for i, matches := range out {
		if matches == nil || len(matches) != 0 {
			t.Errorf("empty range %d: got %v, want empty non-nil", i, matches)
		}
	}
}

// TestSimilarityBoundsContract asserts the per-row accessor PackedRow
// panics with a descriptive message on out-of-range indices instead of
// a raw slice bounds failure, and that range scans clamp bounds past
// either end exactly like the naive reference scan over the valid rows.
func TestSimilarityBoundsContract(t *testing.T) {
	d, n := 96, 40
	refs := randomRefs(d, n, 41)
	s, err := NewShardedSearcher(refs, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	q := RandomBinaryHV(d, rng)

	for _, bad := range []int{-1, n, n + 100} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("PackedRow(%d) did not panic", bad)
					return
				}
				if msg, ok := r.(string); !ok || msg == "" {
					t.Errorf("PackedRow(%d) panic = %v, want descriptive message", bad, r)
				}
			}()
			s.PackedRow(bad)
		}()
	}

	for _, r := range []RowRange{{Lo: -1, Hi: 9}, {Lo: n - 3, Hi: n + 100}, {Lo: -7, Hi: n + 7}} {
		got := s.TopKRange(q, r.Lo, r.Hi, 6)
		want := naiveTopK(refs, d, q, indexRange(max(r.Lo, 0), min(r.Hi, n)), 6)
		if !matchesEqual(got, want) {
			t.Fatalf("range %+v:\ngot  %v\nwant %v", r, got, want)
		}
	}
}

// TestRowRangeHelpers pins the RowRange value semantics.
func TestRowRangeHelpers(t *testing.T) {
	cases := []struct {
		r     RowRange
		empty bool
		n     int
	}{
		{RowRange{Lo: 0, Hi: 0}, true, 0},
		{RowRange{Lo: 5, Hi: 3}, true, 0},
		{RowRange{Lo: 2, Hi: 7}, false, 5},
	}
	for _, c := range cases {
		if c.r.Empty() != c.empty || c.r.Len() != c.n {
			t.Errorf("%+v: Empty=%v Len=%d, want %v/%d", c.r, c.r.Empty(), c.r.Len(), c.empty, c.n)
		}
	}
}
