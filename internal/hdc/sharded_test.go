package hdc

import (
	"math/rand"
	"testing"
)

// matchesEqual reports exact equality of two match lists, order and
// ties included.
func matchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardedParityLargeParallel exercises the concurrent full-scan
// path (n >= parallelMinRefs, multiple shards) against the naive scan.
func TestShardedParityLargeParallel(t *testing.T) {
	d, n := 256, parallelMinRefs+100
	refs := randomRefs(d, n, 42)
	s, err := NewShardedSearcher(refs, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() < 2 {
		t.Fatal("test needs multiple shards")
	}
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 3; trial++ {
		q := RandomBinaryHV(d, rng)
		want := naiveTopK(refs, d, q, nil, 10)
		if got := s.TopKRange(q, 0, n, 10); !matchesEqual(got, want) {
			t.Fatalf("parallel full scan diverged:\ngot  %v\nwant %v", got, want)
		}
		if got := s.BatchTopKRange([]BinaryHV{q}, []RowRange{{Lo: 0, Hi: n}}, 10, nil)[0]; !matchesEqual(got, want) {
			t.Fatalf("batch full scan diverged:\ngot  %v\nwant %v", got, want)
		}
	}
}

// TestBatchTopKShortCandidates mixes a range-restricted query with
// full scans in one batch: the restricted query must stay inside its
// range while the full scans self-match.
func TestBatchTopKShortCandidates(t *testing.T) {
	refs := randomRefs(128, 20, 9)
	s, _ := NewShardedSearcher(refs, 0)
	queries := []BinaryHV{refs[0].Clone(), refs[5].Clone(), refs[9].Clone()}
	full := RowRange{Lo: 0, Hi: len(refs)}
	out := s.BatchTopKRange(queries, []RowRange{{Lo: 1, Hi: 3}, full, full}, 1, nil)
	if len(out) != 3 {
		t.Fatalf("batch len = %d", len(out))
	}
	for _, m := range out[0] {
		if m.Index != 1 && m.Index != 2 {
			t.Errorf("restricted query escaped its range: %+v", m)
		}
	}
	if out[1][0].Index != 5 || out[2][0].Index != 9 {
		t.Errorf("full-scan queries: %+v %+v", out[1], out[2])
	}
}

// TestShardedSimilaritiesInto checks the bulk scoring kernel over the
// full row range against the scalar similarity.
func TestShardedSimilaritiesInto(t *testing.T) {
	refs := randomRefs(320, 77, 10) // d not a multiple of 256: exercises tail words
	s, _ := NewShardedSearcher(refs, 13)
	rng := rand.New(rand.NewSource(11))
	q := RandomBinaryHV(320, rng)
	var buf []int
	buf = s.SimilaritiesRangeInto(q, 0, s.Len(), buf)
	if len(buf) != len(refs) {
		t.Fatalf("buf len = %d", len(buf))
	}
	for i, r := range refs {
		if want := HammingSimilarity(q, r); buf[i] != want {
			t.Fatalf("ref %d: kernel %d vs scalar %d", i, buf[i], want)
		}
	}
	// Reuse must not reallocate.
	buf2 := s.SimilaritiesRangeInto(q, 0, s.Len(), buf)
	if &buf2[0] != &buf[0] {
		t.Error("buffer was reallocated on reuse")
	}
}

// TestSingleReferenceEdges pins the degenerate 1-reference store
// across layouts: every scan path must return one well-formed match
// for any k >= 1, and empty or out-of-range windows must stay empty —
// not panic or mis-size results.
func TestSingleReferenceEdges(t *testing.T) {
	refs := randomRefs(192, 1, 51)
	rng := rand.New(rand.NewSource(52))
	q := RandomBinaryHV(192, rng)
	for _, cc := range []CascadeConfig{{}, {Tiers: []int{1}}, {Tiers: []int{1}, Shortlist: 3}} {
		s, err := NewShardedSearcherCascade(refs, 16, cc)
		if err != nil {
			t.Fatalf("%+v: %v", cc, err)
		}
		wantSim := HammingSimilarity(q, refs[0])
		for _, k := range []int{1, 5} {
			for _, got := range [][]Match{
				s.TopKRange(q, 0, 1, k),
				s.TopKRange(q, -3, 9, k),
				s.BatchTopKRange([]BinaryHV{q}, []RowRange{{Lo: 0, Hi: 1}}, k, nil)[0],
				s.BatchTopKRange([]BinaryHV{q}, []RowRange{{Lo: -2, Hi: 5}}, k, nil)[0],
			} {
				if len(got) != 1 || got[0] != (Match{Index: 0, Similarity: wantSim}) {
					t.Fatalf("%+v k=%d: got %v, want the single reference at sim %d", cc, k, got, wantSim)
				}
			}
		}
		if got := s.TopKRange(q, 1, 1, 3); len(got) != 0 {
			t.Fatalf("%+v: empty range returned %v", cc, got)
		}
		if got := s.TopKRange(q, 5, 9, 3); len(got) != 0 {
			t.Fatalf("%+v: past-the-end range returned %v", cc, got)
		}
		if got := s.BatchTopKRange([]BinaryHV{q, q}, []RowRange{{Lo: 0, Hi: 0}, {Lo: 2, Hi: 1}}, 3, nil); len(got[0]) != 0 || len(got[1]) != 0 {
			t.Fatalf("%+v: empty batch ranges returned %v", cc, got)
		}
	}
}

// TestShardedQueryDimensionPanics keeps the scalar contract: a
// mismatched query dimension panics.
func TestShardedQueryDimensionPanics(t *testing.T) {
	refs := randomRefs(128, 4, 12)
	s, _ := NewShardedSearcher(refs, 0)
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch did not panic")
		}
	}()
	s.TopKRange(NewBinaryHV(64), 0, 4, 1)
}
