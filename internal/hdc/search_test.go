package hdc

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randomRefs(d, n int, seed int64) []BinaryHV {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]BinaryHV, n)
	for i := range refs {
		refs[i] = RandomBinaryHV(d, rng)
	}
	return refs
}

// naiveTopK is the original flat-scan, container/heap top-k over a
// reference slice. It is the independent reference implementation the
// sharded engine is parity-tested against: candidates restricts the
// scan (nil = all references; out-of-range entries are skipped and
// duplicates scored once per occurrence).
func naiveTopK(refs []BinaryHV, d int, q BinaryHV, candidates []int, k int) []Match {
	if q.D != d {
		panic(fmt.Sprintf("hdc: query D=%d, searcher D=%d", q.D, d))
	}
	if k <= 0 {
		return nil
	}
	h := &matchHeap{}
	heap.Init(h)
	consider := func(i int) {
		sim := HammingSimilarity(q, refs[i])
		if h.Len() < k {
			heap.Push(h, Match{Index: i, Similarity: sim})
		} else if worse((*h)[0], Match{Index: i, Similarity: sim}) {
			(*h)[0] = Match{Index: i, Similarity: sim}
			heap.Fix(h, 0)
		}
	}
	if candidates == nil {
		for i := range refs {
			consider(i)
		}
	} else {
		for _, i := range candidates {
			if i >= 0 && i < len(refs) {
				consider(i)
			}
		}
	}
	out := make([]Match, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(Match)
	}
	return out
}

// matchHeap is a min-heap on match rank, keeping the current worst of
// the top-k at the root (used by the naive reference implementation).
type matchHeap []Match

func (h matchHeap) Len() int            { return len(h) }
func (h matchHeap) Less(i, j int) bool  { return worse(h[i], h[j]) }
func (h matchHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *matchHeap) Push(x interface{}) { *h = append(*h, x.(Match)) }
func (h *matchHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// indexRange expands [lo, hi) into the candidate slice naiveTopK
// scans for a row range.
func indexRange(lo, hi int) []int {
	out := []int{}
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

func TestNewSearcherValidation(t *testing.T) {
	if _, err := NewShardedSearcher(nil, 0); err == nil {
		t.Error("empty reference set accepted")
	}
	refs := []BinaryHV{NewBinaryHV(64), NewBinaryHV(65)}
	if _, err := NewShardedSearcher(refs, 0); err == nil {
		t.Error("mixed dimensions accepted")
	}
}

func TestTopKFindsPlantedMatch(t *testing.T) {
	refs := randomRefs(2048, 200, 1)
	s, err := NewShardedSearcher(refs, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	// Query = noisy copy of reference 123.
	q := refs[123].Clone()
	q.FlipExact(100, rng)
	top := s.TopKRange(q, 0, s.Len(), 5)
	if len(top) != 5 {
		t.Fatalf("topk len = %d", len(top))
	}
	if top[0].Index != 123 {
		t.Errorf("best match = %d, want 123", top[0].Index)
	}
	if top[0].Similarity != 2048-100 {
		t.Errorf("best similarity = %d, want %d", top[0].Similarity, 1948)
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Similarity < top[i].Similarity {
			t.Error("results not sorted by similarity")
		}
	}
}

func TestTopKCandidateRestriction(t *testing.T) {
	refs := randomRefs(1024, 50, 3)
	s, _ := NewShardedSearcher(refs, 0)
	q := refs[10].Clone()
	// The range [11, 50) excludes row 10; it must not appear.
	for _, m := range s.TopKRange(q, 11, 50, 3) {
		if m.Index == 10 {
			t.Fatal("row outside the range returned")
		}
	}
	// With 10 included, it must rank first with full similarity.
	top := s.TopKRange(q, 10, 50, 3)
	if top[0].Index != 10 || top[0].Similarity != 1024 {
		t.Errorf("self match = %+v", top[0])
	}
}

func TestTopKCandidateOutOfRangeIgnored(t *testing.T) {
	refs := randomRefs(256, 10, 4)
	s, _ := NewShardedSearcher(refs, 0)
	// Bounds past either end clamp to the stored rows.
	got := s.TopKRange(refs[0], -3, 99, 5)
	if want := naiveTopK(refs, 256, refs[0], nil, 5); !matchesEqual(got, want) {
		t.Errorf("out-of-range bounds mishandled:\ngot  %v\nwant %v", got, want)
	}
	if got := s.TopKRange(refs[0], 10, 99, 5); len(got) != 0 {
		t.Errorf("range past the end returned %v", got)
	}
}

func TestTopKZeroK(t *testing.T) {
	refs := randomRefs(128, 5, 5)
	s, _ := NewShardedSearcher(refs, 0)
	if got := s.TopKRange(refs[0], 0, 5, 0); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
}

func TestTopKTieBreaksByIndex(t *testing.T) {
	// Three identical references: ties resolve to ascending index.
	base := NewBinaryHV(64)
	refs := []BinaryHV{base.Clone(), base.Clone(), base.Clone()}
	s, _ := NewShardedSearcher(refs, 0)
	top := s.TopKRange(base, 0, 3, 2)
	if top[0].Index != 0 || top[1].Index != 1 {
		t.Errorf("tie break wrong: %+v", top)
	}
}

func TestTopKMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 64 + rng.Intn(256)
		n := 5 + rng.Intn(60)
		k := 1 + rng.Intn(10)
		refs := randomRefs(d, n, seed+1)
		s, _ := NewShardedSearcher(refs, 1+rng.Intn(n))
		q := RandomBinaryHV(d, rng)
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo+1)
		// Brute force over [lo, hi).
		var all []Match
		for i := lo; i < hi; i++ {
			all = append(all, Match{Index: i, Similarity: HammingSimilarity(q, refs[i])})
		}
		sort.Slice(all, func(i, j int) bool { return worse(all[j], all[i]) })
		if len(all) > k {
			all = all[:k]
		}
		return matchesEqual(s.TopKRange(q, lo, hi, k), all) &&
			matchesEqual(s.BatchTopKRange([]BinaryHV{q}, []RowRange{{Lo: lo, Hi: hi}}, k, nil)[0], all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBatchTopKMatchesSequential(t *testing.T) {
	refs := randomRefs(512, 100, 6)
	s, _ := NewShardedSearcher(refs, 16)
	rng := rand.New(rand.NewSource(7))
	queries := make([]BinaryHV, 23)
	ranges := make([]RowRange, len(queries))
	for i := range queries {
		queries[i] = RandomBinaryHV(512, rng)
		lo := rng.Intn(100)
		ranges[i] = RowRange{Lo: lo, Hi: lo + rng.Intn(101-lo)}
	}
	ranges[0] = RowRange{Lo: 0, Hi: 100} // one full scan
	batch := s.BatchTopKRange(queries, ranges, 4, nil)
	for i, q := range queries {
		seq := s.TopKRange(q, ranges[i].Lo, ranges[i].Hi, 4)
		if !matchesEqual(batch[i], seq) {
			t.Fatalf("query %d: batch %v vs sequential %v", i, batch[i], seq)
		}
	}
}

func TestBatchTopKWithCandidates(t *testing.T) {
	refs := randomRefs(256, 30, 8)
	s, _ := NewShardedSearcher(refs, 0)
	queries := []BinaryHV{refs[3].Clone(), refs[7].Clone()}
	ranges := []RowRange{{Lo: 3, Hi: 5}, {Lo: 6, Hi: 9}}
	out := s.BatchTopKRange(queries, ranges, 1, nil)
	if out[0][0].Index != 3 || out[1][0].Index != 7 {
		t.Errorf("range-restricted batch: %+v", out)
	}
}

func TestSearcherAccessors(t *testing.T) {
	refs := randomRefs(128, 9, 9)
	s, _ := NewShardedSearcher(refs, 4)
	if s.Len() != 9 || s.D() != 128 || s.NumShards() != 3 || s.NumTiers() != 1 {
		t.Errorf("accessors: len=%d d=%d shards=%d tiers=%d", s.Len(), s.D(), s.NumShards(), s.NumTiers())
	}
	row := s.PackedRow(4)
	for w := range row {
		if row[w] != refs[4].Words[w] {
			t.Fatalf("PackedRow(4) word %d = %#x, want %#x", w, row[w], refs[4].Words[w])
		}
	}
}
