package hdc

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// maskFixture is a random store with planted near-duplicates per
// query and a random hidden set that also covers one shard completely
// and leaves another with fewer than k visible rows. Some planted
// near-duplicates — the rows a query would otherwise return first —
// are hidden, so a mask that leaks shows up in the top ranks.
type maskFixture struct {
	d, shard, k    int
	refs, queries  []BinaryHV
	mask           RowMask
	ranges         []RowRange
	fullShard      int // every row hidden
	sparseShard    int // fewer than k rows visible
	sparseVisible  int
	hiddenInFull   RowRange
	hiddenInSparse RowRange
}

func newMaskFixture(t *testing.T) *maskFixture {
	t.Helper()
	f := &maskFixture{d: 512, shard: 512, k: 5, fullShard: 3, sparseShard: 6}
	n := parallelMinRefs + 2100
	rng := rand.New(rand.NewSource(77))
	f.refs = make([]BinaryHV, n)
	for i := range f.refs {
		f.refs[i] = RandomBinaryHV(f.d, rng)
	}
	f.mask = NewRowMask(n)
	for i := 0; i < n; i++ {
		if rng.Intn(20) == 0 {
			f.mask.Set(i)
		}
	}
	f.hiddenInFull = RowRange{Lo: f.fullShard * f.shard, Hi: (f.fullShard + 1) * f.shard}
	for i := f.hiddenInFull.Lo; i < f.hiddenInFull.Hi; i++ {
		f.mask.Set(i)
	}
	f.hiddenInSparse = RowRange{Lo: f.sparseShard * f.shard, Hi: (f.sparseShard + 1) * f.shard}
	f.sparseVisible = f.k - 2
	for i := f.hiddenInSparse.Lo; i < f.hiddenInSparse.Hi-f.sparseVisible; i++ {
		f.mask.Set(i)
	}
	for i := f.hiddenInSparse.Hi - f.sparseVisible; i < f.hiddenInSparse.Hi; i++ {
		f.mask[i>>6] &^= 1 << uint(i&63)
	}

	// Query i plants a near-duplicate cluster at row 977*(i+1); every
	// other cluster member is hidden.
	const nq = 8
	f.queries = make([]BinaryHV, nq)
	for i := range f.queries {
		f.queries[i] = RandomBinaryHV(f.d, rng)
		at := 977 * (i + 1)
		for j := 0; j < 2*f.k; j++ {
			f.refs[at+j] = nearDup(f.queries[i], 0.02+0.01*float64(j%3), rng)
			if j%2 == 0 {
				f.mask.Set(at + j)
			}
		}
	}
	f.ranges = []RowRange{
		{Lo: 0, Hi: n}, // whole store: parallel path
		{Lo: 300, Hi: 300 + parallelMinRefs + 50}, // long, unaligned
		f.hiddenInFull,   // only hidden rows
		f.hiddenInSparse, // fewer than k visible
		{Lo: f.hiddenInFull.Lo - 40, Hi: f.hiddenInFull.Hi + 40}, // straddles the hidden shard
		{Lo: 900, Hi: 2100},  // short: sequential path
		{Lo: 3800, Hi: 4200}, // covers the sparse-shard tail
		{Lo: 7800, Hi: 7900},
	}
	return f
}

// visible lists the unmasked rows of r.
func (f *maskFixture) visible(r RowRange) []int {
	out := []int{}
	for i := r.Lo; i < r.Hi; i++ {
		if !f.mask.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// naiveShortlist is the visible-only shortlist reference: the best
// shortlist tier-0 partial distances over words [0, tw0) (ties by
// ascending index), completed to full similarity, best k kept.
func (f *maskFixture) naiveShortlist(q BinaryHV, r RowRange, tw0, shortlist, k int) []Match {
	type partial struct{ idx, dist int }
	var ps []partial
	for _, i := range f.visible(r) {
		dist := 0
		for w := 0; w < tw0; w++ {
			dist += bits.OnesCount64(q.Words[w] ^ f.refs[i].Words[w])
		}
		ps = append(ps, partial{i, dist})
	}
	slices.SortFunc(ps, func(a, b partial) int {
		if a.dist != b.dist {
			return cmp.Compare(a.dist, b.dist)
		}
		return cmp.Compare(a.idx, b.idx)
	})
	if len(ps) > shortlist {
		ps = ps[:shortlist]
	}
	cands := make([]int, len(ps))
	for j, p := range ps {
		cands[j] = p.idx
	}
	return naiveTopK(f.refs, f.d, q, cands, k)
}

// TestHiddenMaskMatchesVisibleOnlyScan checks every scan path under a
// hidden-row mask against a naive top-k over the visible rows alone:
// sequential and parallel TopKRange, and BatchTopKRange, for the
// single-tier store, the exact cascade (copying and packed-block
// constructors) and shortlist mode.
func TestHiddenMaskMatchesVisibleOnlyScan(t *testing.T) {
	if testing.Short() {
		t.Skip("large reference set")
	}
	f := newMaskFixture(t)
	words := WordsPerHV(f.d)
	block := make([]uint64, 0, len(f.refs)*words)
	for _, r := range f.refs {
		block = append(block, r.Words...)
	}
	layouts := []struct {
		name   string
		cc     CascadeConfig
		packed bool
	}{
		{"single-tier", CascadeConfig{}, false},
		{"exact-cascade", CascadeConfig{Tiers: []int{1, 3}}, false},
		{"exact-cascade-packed", CascadeConfig{Tiers: []int{1, 3, 4}}, true},
		{"shortlist", CascadeConfig{Tiers: []int{2}, Shortlist: 24}, false},
	}
	for _, lt := range layouts {
		t.Run(lt.name, func(t *testing.T) {
			var s *ShardedSearcher
			var err error
			if lt.packed {
				s, err = NewShardedSearcherFromPacked(block, f.d, f.shard, lt.cc)
			} else {
				s, err = NewShardedSearcherCascade(f.refs, f.shard, lt.cc)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SetHidden(f.mask); err != nil {
				t.Fatal(err)
			}
			want := func(q BinaryHV, r RowRange) []Match {
				if lt.cc.Shortlist > 0 {
					return f.naiveShortlist(q, r, lt.cc.Tiers[0], lt.cc.Shortlist, f.k)
				}
				return naiveTopK(f.refs, f.d, q, f.visible(r), f.k)
			}
			var bq []BinaryHV
			var br []RowRange
			for qi, q := range f.queries {
				for ri, r := range f.ranges {
					w := want(q, r)
					if got := s.TopKRange(q, r.Lo, r.Hi, f.k); !matchesEqual(got, w) {
						t.Fatalf("TopKRange query %d range %d %v:\ngot  %v\nwant %v", qi, ri, r, got, w)
					}
					bq = append(bq, q)
					br = append(br, r)
				}
			}
			batch := s.BatchTopKRange(bq, br, f.k, nil)
			for i := range bq {
				if w := want(bq[i], br[i]); !matchesEqual(batch[i], w) {
					t.Fatalf("BatchTopKRange entry %d range %v:\ngot  %v\nwant %v", i, br[i], batch[i], w)
				}
			}
			// The fixture's edge shapes really are exercised.
			for i := range bq {
				switch br[i] {
				case f.hiddenInFull:
					if len(batch[i]) != 0 {
						t.Fatalf("fully hidden shard returned %v", batch[i])
					}
				case f.hiddenInSparse:
					if lt.cc.Shortlist == 0 && len(batch[i]) != f.sparseVisible {
						t.Fatalf("sparse shard returned %d matches, %d rows visible", len(batch[i]), f.sparseVisible)
					}
				}
			}
		})
	}
}

// TestSetHiddenValidation pins the mask contract: a mask must cover
// exactly the searcher's rows, and nil or empty masks unmask.
func TestSetHiddenValidation(t *testing.T) {
	refs := randomRefs(128, 100, 5)
	s, err := NewShardedSearcher(refs, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetHidden(make(RowMask, 1)); err == nil {
		t.Fatal("short mask accepted")
	}
	if err := s.SetHidden(NewRowMask(100)); err != nil || s.hidden != nil {
		t.Fatalf("empty mask: err %v, attached %v", err, s.hidden)
	}
	m := NewRowMask(100)
	m.Set(0)
	m.Set(99)
	if m.Count() != 2 || !m.Has(99) || m.Has(98) || RowMask(nil).Has(0) {
		t.Fatalf("RowMask bit accounting broken: %v", m)
	}
	if err := s.SetHidden(m); err != nil {
		t.Fatal(err)
	}
	q := refs[0]
	if got := s.TopKRange(q, 0, 100, 100); len(got) != 98 || got[0].Index == 0 {
		t.Fatalf("masked full scan returned %d rows, best %v", len(got), got[0])
	}
	if err := s.SetHidden(nil); err != nil || len(s.TopKRange(q, 0, 100, 100)) != 100 {
		t.Fatalf("nil mask did not unmask: %v", err)
	}
}
