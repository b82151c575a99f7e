package hdc

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
)

// DefaultShardSize is the reference-row count per shard when the
// caller does not pick one. 2048 rows keeps one shard's packed words
// within a few MB at the paper's D=8192 (2048 rows × 128 words × 8 B
// = 2 MiB), streaming through L2/L3 rather than thrashing it.
const DefaultShardSize = 2048

// kernelBlockBytes is the packed-word footprint the scoring kernel
// targets per row block. Batch search sweeps every query over one row
// block before advancing, so a block is sized to stay L1-resident
// across the query sweep (16 KiB block + query words + similarity
// buffer fit a 32 KiB L1d) and the packed reference store streams
// from memory once per batch rather than once per query. Under a
// tiered cascade layout the swept tier is tier 0, so blocks are sized
// by the tier-0 row stride.
const kernelBlockBytes = 16 << 10

// blockRows returns the rows per kernel block for a word width.
func blockRows(words int) int {
	r := kernelBlockBytes / (words * 8)
	if r < 8 {
		return 8
	}
	return r
}

// parallelMinRefs is the smallest range length for which a
// single-query TopKRange fans shards out across goroutines. Below it the
// per-goroutine overhead exceeds the scan cost.
const parallelMinRefs = 1 << 13

// CascadeConfig selects the K-tier pruned cascade layout — the
// software articulation of the paper's cascaded-precision deployment
// (cheap low-precision passes prune the candidate field before the
// expensive high-precision completion).
type CascadeConfig struct {
	// Tiers is the cascade ladder: Tiers[t] is the packed word width of
	// tier t, descended in order. Every entry must be positive and the
	// widths must sum to at most the per-row word count; a sum short of
	// the row implicitly appends one remainder tier. A single tier
	// covering the whole row is the single-tier layout, and so is an
	// empty ladder.
	Tiers []int
	// Shortlist switches cascade scans from the exact pruning bound to
	// approximate mode: per query, only the Shortlist rows with the
	// best tier-0 partial distance (ties by ascending index) are
	// completed against the deeper tiers. 0 keeps the exact bound; a
	// positive value requires a multi-tier layout. Negative values are
	// rejected.
	Shortlist int
}

// normalizeTiers resolves a CascadeConfig into the per-tier word
// widths over a row of `words` packed words (len >= 1; len == 1 is
// the single-tier layout).
func normalizeTiers(cc CascadeConfig, words int) ([]int, error) {
	sum := 0
	for t, w := range cc.Tiers {
		if w <= 0 {
			return nil, fmt.Errorf("hdc: cascade tier %d has non-positive width %d words", t, w)
		}
		sum += w
	}
	if sum > words {
		return nil, fmt.Errorf("hdc: cascade tier widths sum to %d words, row has only %d", sum, words)
	}
	tiers := append([]int(nil), cc.Tiers...)
	if sum < words {
		tiers = append(tiers, words-sum)
	}
	if cc.Shortlist < 0 {
		return nil, fmt.Errorf("hdc: negative cascade shortlist %d", cc.Shortlist)
	}
	if cc.Shortlist > 0 && len(tiers) < 2 {
		return nil, fmt.Errorf("hdc: cascade shortlist %d requires a multi-tier layout (tier 0 covers all %d words, leaving nothing to prune)",
			cc.Shortlist, words)
	}
	return tiers, nil
}

// CascadeStats is a snapshot of the cascade's per-tier row counters,
// accumulated across every cascade scan since construction.
type CascadeStats struct {
	// TierRows[t] counts rows whose tier-t words were scored by a
	// cascade scan path. TierRows[0] is the swept candidate volume;
	// deeper tiers only see rows the pruning bound (or shortlist)
	// admitted, so the counts are non-increasing down the ladder.
	TierRows []uint64
}

// NumTiers returns the ladder depth of the snapshot.
func (c CascadeStats) NumTiers() int { return len(c.TierRows) }

// Prefiltered returns the rows whose tier-0 prefix was scored (the
// historical tier-A counter).
func (c CascadeStats) Prefiltered() uint64 {
	if len(c.TierRows) == 0 {
		return 0
	}
	return c.TierRows[0]
}

// Completed returns the rows completed against the final tier (the
// historical tier-B counter).
func (c CascadeStats) Completed() uint64 {
	if len(c.TierRows) == 0 {
		return 0
	}
	return c.TierRows[len(c.TierRows)-1]
}

// Pruned returns the number of prefiltered rows never completed.
func (c CascadeStats) Pruned() uint64 {
	if c.Completed() > c.Prefiltered() {
		return 0
	}
	return c.Prefiltered() - c.Completed()
}

// PruneRate returns Pruned as a fraction of Prefiltered (0 when no
// rows were prefiltered).
func (c CascadeStats) PruneRate() float64 {
	if c.Prefiltered() == 0 {
		return 0
	}
	return float64(c.Pruned()) / float64(c.Prefiltered())
}

// TierPruneRate returns the fraction of tier-t rows that did NOT
// descend to tier t+1 (0 for the final tier and for tiers that saw no
// rows).
func (c CascadeStats) TierPruneRate(t int) float64 {
	if t < 0 || t >= len(c.TierRows)-1 || c.TierRows[t] == 0 {
		return 0
	}
	next := c.TierRows[t+1]
	if next > c.TierRows[t] {
		return 0
	}
	return float64(c.TierRows[t]-next) / float64(c.TierRows[t])
}

// Sub returns the per-tier difference c - prev (counter deltas over a
// measurement interval). Mismatched depths return c unchanged.
func (c CascadeStats) Sub(prev CascadeStats) CascadeStats {
	if len(prev.TierRows) != len(c.TierRows) {
		return c
	}
	out := CascadeStats{TierRows: make([]uint64, len(c.TierRows))}
	for t := range c.TierRows {
		out.TierRows[t] = c.TierRows[t] - prev.TierRows[t]
	}
	return out
}

// ShardedSearcher is the sharded, batch-oriented exact Hamming search
// engine — the software analogue of the paper's crossbar-parallel
// in-memory search (one shard per crossbar tile group) and of the
// query-level parallelism HyperOMS exploits on GPUs. Reference
// hypervectors are packed row-major into fixed-size shards of
// contiguous words, scored with a blocked XOR+popcount kernel into
// reusable per-worker similarity buffers, and shard-level top-k lists
// are merged deterministically (similarity descending, index
// ascending).
//
// With a CascadeConfig the packed store is word-sliced into K tiers
// per shard: tier t holds words [off[t], off[t]+tw[t]) of every row,
// contiguous per tier. Scan paths sweep tier 0 block-major exactly as
// the single-tier kernel does, maintain the per-query running
// k-th-best distance, and descend the ladder only while a row's
// partial distance can still beat that bound — remaining bits can
// only add distance, so the prune is exact at every rung and the
// results stay bit-identical to the single-tier kernel. Shortlist
// mode trades that guarantee for a fixed completion budget per query.
//
// A hidden-row mask (SetHidden) removes rows from the searchable set
// without repacking: every scan path skips a masked row before it is
// offered to a heap or admitted to a ladder descent, so results are
// exactly those of a store holding only the visible rows.
type ShardedSearcher struct {
	d         int   // hypervector dimension
	words     int   // packed words per hypervector, ceil(d/64)
	n         int   // total references
	shardSize int   // rows per shard (last shard may be shorter)
	block     int   // rows per kernel block (see kernelBlockBytes)
	tw        []int // words per tier (len K >= 1; K == 1 is single-tier)
	off       []int // word offset of tier t within a full row
	stride    []int // row stride within a shard's tier-t plane
	shortlist int   // approximate completion budget per query (0 = exact)
	shards    []shard
	// hidden masks rows out of every result (nil = every row visible).
	// Attached once by SetHidden before the searcher is shared; never
	// mutated afterwards.
	hidden RowMask

	// tierRows[t] counts rows scored against tier t by cascade scan
	// paths; nil when the layout is single-tier.
	tierRows []atomic.Uint64

	// swept counts candidate rows covered by the range-scan paths
	// (single-tier rows, or tier-0 prefixes under a cascade) — the
	// serving stack's sweep-volume counter, live for every layout.
	swept atomic.Uint64
}

// shard is one fixed-size slice of the reference store.
type shard struct {
	// start is the global index of the shard's first row.
	start int
	// rows is the number of references in this shard.
	rows int
	// planes[t] holds the tier-t words of every row with the
	// searcher's per-tier row stride: reference r's tier-t words
	// occupy planes[t][r*stride[t] : r*stride[t]+tw[t]]. Under a
	// single-tier layout planes[0] is the whole packed row — and may
	// alias a caller-owned block (NewShardedSearcherFromPacked) rather
	// than a private copy. Deeper tiers of a packed-block searcher
	// alias the block with the full row width as stride (the
	// mmap-backed layout, where they stay in the mapping and fault in
	// lazily).
	planes [][]uint64
}

// tierRow returns reference row's tier-t words within the shard.
//
//oms:hotpath
func (s *ShardedSearcher) tierRow(sh *shard, t, row int) []uint64 {
	base := row * s.stride[t]
	return sh.planes[t][base : base+s.tw[t]]
}

// qtier returns the query words of tier t.
//
//oms:hotpath
func (s *ShardedSearcher) qtier(qw []uint64, t int) []uint64 {
	return qw[s.off[t] : s.off[t]+s.tw[t]]
}

// multiTier reports whether the store is word-sliced into a cascade
// ladder (K >= 2).
func (s *ShardedSearcher) multiTier() bool { return len(s.tw) > 1 }

// NewShardedSearcher builds the engine over the reference
// hypervectors (which must share one dimensionality), splitting them
// into shards of shardSize rows. shardSize <= 0 selects
// DefaultShardSize. The reference words are copied into the packed
// store: later in-place mutation of the source hypervectors is not
// seen by this engine.
func NewShardedSearcher(refs []BinaryHV, shardSize int) (*ShardedSearcher, error) {
	return NewShardedSearcherCascade(refs, shardSize, CascadeConfig{})
}

// NewShardedSearcherCascade builds the engine with an explicit
// cascade layout (see CascadeConfig; the zero value selects the
// single-tier layout).
func NewShardedSearcherCascade(refs []BinaryHV, shardSize int, cc CascadeConfig) (*ShardedSearcher, error) {
	if len(refs) == 0 {
		return nil, fmt.Errorf("hdc: empty reference set")
	}
	d := refs[0].D
	if d <= 0 {
		return nil, fmt.Errorf("hdc: reference hypervectors have non-positive dimension %d", d)
	}
	for i, r := range refs {
		if r.D != d {
			return nil, fmt.Errorf("hdc: reference %d has D=%d, want %d", i, r.D, d)
		}
	}
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	words := WordsPerHV(d)
	tiers, err := normalizeTiers(cc, words)
	if err != nil {
		return nil, err
	}
	s := newShardedShell(d, words, len(refs), shardSize, tiers, cc.Shortlist)
	for start := 0; start < len(refs); start += shardSize {
		rows := min(shardSize, len(refs)-start)
		sh := shard{start: start, rows: rows, planes: make([][]uint64, len(tiers))}
		for t, tw := range tiers {
			sh.planes[t] = make([]uint64, rows*tw)
			for r := 0; r < rows; r++ {
				copy(sh.planes[t][r*tw:(r+1)*tw], refs[start+r].Words[s.off[t]:s.off[t]+tw])
			}
		}
		s.shards = append(s.shards, sh)
	}
	return s, nil
}

// NewShardedSearcherFromPacked builds the engine directly over a
// contiguous packed word block — len(block) = n × WordsPerHV(d) words,
// row-major in reference order, tail bits beyond d zero (the layout of
// BinaryHV.Words concatenated, and of the words section of a library
// index file). Unlike the copying constructors, the block is aliased,
// not copied: under a single-tier layout every shard's rows are
// zero-copy views into it, and under a cascade layout only the small
// tier-0 prefixes are repacked into private contiguous rows (the hot
// prefilter tier, heap-resident by design) while the deeper tiers
// remain strided views over the block. With a memory-mapped block
// (libindex.OpenFile) construction therefore touches only tier-0
// pages; deeper pages fault in lazily as the pruning bound admits
// descents. The caller must keep the block alive — and, for a mapped
// block, mapped — for the searcher's lifetime, and must not mutate it.
func NewShardedSearcherFromPacked(block []uint64, d, shardSize int, cc CascadeConfig) (*ShardedSearcher, error) {
	if d <= 0 {
		return nil, fmt.Errorf("hdc: non-positive dimension %d", d)
	}
	words := WordsPerHV(d)
	if len(block) == 0 || len(block)%words != 0 {
		return nil, fmt.Errorf("hdc: packed block of %d words is not a multiple of %d words per row", len(block), words)
	}
	n := len(block) / words
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	tiers, err := normalizeTiers(cc, words)
	if err != nil {
		return nil, err
	}
	s := newShardedShell(d, words, n, shardSize, tiers, cc.Shortlist)
	if len(tiers) > 1 {
		// Deeper tiers alias the caller's full-width rows: stride is the
		// whole row, width the tier's words.
		for t := 1; t < len(tiers); t++ {
			s.stride[t] = words
		}
	}
	for start := 0; start < n; start += shardSize {
		rows := min(shardSize, n-start)
		sh := shard{start: start, rows: rows, planes: make([][]uint64, len(tiers))}
		if len(tiers) == 1 {
			// The searcher is the designed owner of this alias: the caller
			// contract above pins the block (and its mapping) for the
			// searcher's lifetime, and scan paths only ever read it.
			sh.planes[0] = block[start*words : (start+rows)*words : (start+rows)*words] //oms:allow(mmapwrite) documented zero-copy ownership transfer
		} else {
			tw0 := tiers[0]
			sh.planes[0] = make([]uint64, rows*tw0)
			for r := 0; r < rows; r++ {
				copy(sh.planes[0][r*tw0:(r+1)*tw0], block[(start+r)*words:(start+r)*words+tw0])
			}
			for t := 1; t < len(tiers); t++ {
				sh.planes[t] = block[start*words+s.off[t] : (start+rows)*words : (start+rows)*words] //oms:allow(mmapwrite) documented zero-copy ownership transfer
			}
		}
		s.shards = append(s.shards, sh)
	}
	return s, nil
}

// newShardedShell assembles the searcher metadata shared by both
// constructors: tier offsets, private-copy strides (FromPacked
// overrides the deep strides), kernel block size and counters.
func newShardedShell(d, words, n, shardSize int, tiers []int, shortlist int) *ShardedSearcher {
	s := &ShardedSearcher{
		d:         d,
		words:     words,
		n:         n,
		shardSize: shardSize,
		block:     blockRows(tiers[0]),
		tw:        tiers,
		off:       make([]int, len(tiers)),
		stride:    make([]int, len(tiers)),
		shortlist: shortlist,
	}
	o := 0
	for t, tw := range tiers {
		s.off[t] = o
		s.stride[t] = tw
		o += tw
	}
	if len(tiers) > 1 {
		s.tierRows = make([]atomic.Uint64, len(tiers))
	}
	return s
}

// D returns the hypervector dimension.
func (s *ShardedSearcher) D() int { return s.d }

// Len returns the number of references.
func (s *ShardedSearcher) Len() int { return s.n }

// NumShards returns the shard count.
func (s *ShardedSearcher) NumShards() int { return len(s.shards) }

// NumTiers returns the ladder depth (1 = single-tier).
func (s *ShardedSearcher) NumTiers() int { return len(s.tw) }

// CascadeStats returns a snapshot of the per-tier row counters; ok is
// false when the store is single-tier (no cascade runs, counters stay
// zero).
func (s *ShardedSearcher) CascadeStats() (CascadeStats, bool) {
	if !s.multiTier() {
		return CascadeStats{}, false
	}
	rows := make([]uint64, len(s.tierRows))
	for t := range s.tierRows {
		rows[t] = s.tierRows[t].Load()
	}
	return CascadeStats{TierRows: rows}, true
}

// addTierRows folds a scan's per-tier row counts into the cumulative
// counters (no-op for single-tier layouts and all-zero deltas).
func (s *ShardedSearcher) addTierRows(counts []uint64) {
	for t, c := range counts {
		if c > 0 {
			s.tierRows[t].Add(c)
		}
	}
}

// RowsSwept returns the cumulative candidate rows covered by the
// range-scan search paths since construction (every layout, unlike
// the cascade counters).
func (s *ShardedSearcher) RowsSwept() uint64 { return s.swept.Load() }

// SetHidden attaches the hidden-row mask: rows whose bit is set are
// never returned by any search path, exactly as if they were absent
// from the store, while k keeps its meaning (the k best visible rows).
// A nil mask (or one with no bit set) makes every row visible. The
// mask is aliased, not copied; it must be attached before the searcher
// is shared between goroutines, and neither the caller nor the
// searcher may mutate it afterwards.
func (s *ShardedSearcher) SetHidden(mask RowMask) error {
	if mask == nil {
		s.hidden = nil
		return nil
	}
	if want := rowMaskWords(s.n); len(mask) != want {
		return fmt.Errorf("hdc: hidden-row mask of %d words, searcher of %d rows needs %d", len(mask), s.n, want)
	}
	if mask.Count() == 0 {
		mask = nil
	}
	s.hidden = mask
	return nil
}

// isHidden reports whether row is masked out of every result. With no
// mask attached it is a single nil test.
//
//oms:hotpath
func (s *ShardedSearcher) isHidden(row int) bool { return s.hidden.Has(row) }

// checkQuery panics on a dimensionality mismatch.
func (s *ShardedSearcher) checkQuery(q BinaryHV) {
	if q.D != s.d {
		panic(fmt.Sprintf("hdc: query D=%d, searcher D=%d", q.D, s.d))
	}
}

// PackedRow returns the packed words of reference row i exactly as
// stored in the engine, reassembled from the tiered store into one
// freshly allocated full-width row (the tiers are not contiguous, so
// a live view is no longer possible). It panics on an out-of-range
// index. The persistent
// library index uses it to verify that a loaded store is bit-identical
// to the freshly packed one.
func (s *ShardedSearcher) PackedRow(i int) []uint64 {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("hdc: reference index %d out of range [0, %d)", i, s.n))
	}
	sh := &s.shards[i/s.shardSize]
	row := i - sh.start
	out := make([]uint64, s.words)
	for t := range s.tw {
		copy(out[s.off[t]:s.off[t]+s.tw[t]], s.tierRow(sh, t, row))
	}
	return out
}

// scoreRows is the XOR+popcount kernel: it scores rows [0, rows) of a
// packed block against the query words, writing Hamming similarities
// into sims. The word loop is 8-way unrolled through array pointers
// (one bounds check per stride) with two accumulators so the popcounts
// pipeline.
//
//oms:hotpath
func scoreRows(qw, packed []uint64, words, rows, d int, sims []int) {
	for r := 0; r < rows; r++ {
		base := r * words
		row := packed[base : base+words]
		var d0, d1 int
		i := 0
		for ; i+8 <= len(row); i += 8 {
			x := (*[8]uint64)(row[i:])
			y := (*[8]uint64)(qw[i:])
			d0 += bits.OnesCount64(x[0]^y[0]) +
				bits.OnesCount64(x[1]^y[1]) +
				bits.OnesCount64(x[2]^y[2]) +
				bits.OnesCount64(x[3]^y[3])
			d1 += bits.OnesCount64(x[4]^y[4]) +
				bits.OnesCount64(x[5]^y[5]) +
				bits.OnesCount64(x[6]^y[6]) +
				bits.OnesCount64(x[7]^y[7])
		}
		for ; i < len(row); i++ {
			d0 += bits.OnesCount64(row[i] ^ qw[i])
		}
		sims[r] = d - (d0 + d1)
	}
}

// distRow is the single-row XOR+popcount distance over one packed
// word segment (same unroll as scoreRows). It is the tier-descent
// completion kernel.
//
//oms:hotpath
func distRow(qw, row []uint64) int {
	var d0, d1 int
	i := 0
	for ; i+8 <= len(row); i += 8 {
		x := (*[8]uint64)(row[i:])
		y := (*[8]uint64)(qw[i:])
		d0 += bits.OnesCount64(x[0]^y[0]) +
			bits.OnesCount64(x[1]^y[1]) +
			bits.OnesCount64(x[2]^y[2]) +
			bits.OnesCount64(x[3]^y[3])
		d1 += bits.OnesCount64(x[4]^y[4]) +
			bits.OnesCount64(x[5]^y[5]) +
			bits.OnesCount64(x[6]^y[6]) +
			bits.OnesCount64(x[7]^y[7])
	}
	for ; i < len(row); i++ {
		d0 += bits.OnesCount64(row[i] ^ qw[i])
	}
	return d0 + d1
}

// distRows writes the Hamming distances of rows [0, rows) of a packed
// block (row stride words) against qw into dist — the tier-0
// prefilter kernel.
//
//oms:hotpath
func distRows(qw, packed []uint64, words, rows int, dist []int) {
	for r := 0; r < rows; r++ {
		base := r * words
		dist[r] = distRow(qw, packed[base:base+words])
	}
}

// distRowsAdd accumulates the distances of a deeper tier on top of
// dist — one rung of a full-similarity block score. stride is the row
// stride within packed, width the words scored per row (stride >
// width walks a tier view over a full-width block).
//
//oms:hotpath
func distRowsAdd(qw, packed []uint64, stride, width, rows int, dist []int) {
	for r := 0; r < rows; r++ {
		base := r * stride
		dist[r] += distRow(qw, packed[base:base+width])
	}
}

// scoreBlockSims writes full Hamming similarities for shard rows
// [r0, r0+rows) into sims: the single-tier kernel directly, or — under
// a tiered layout — one pass per tier with the distances summed.
//
//oms:hotpath
func (s *ShardedSearcher) scoreBlockSims(qw []uint64, sh *shard, r0, rows int, sims []int) {
	if !s.multiTier() {
		scoreRows(qw, sh.planes[0][r0*s.tw[0]:], s.tw[0], rows, s.d, sims)
		return
	}
	distRows(s.qtier(qw, 0), sh.planes[0][r0*s.stride[0]:], s.stride[0], rows, sims)
	for t := 1; t < len(s.tw); t++ {
		distRowsAdd(s.qtier(qw, t), sh.planes[t][r0*s.stride[t]:], s.stride[t], s.tw[t], rows, sims)
	}
	for r := 0; r < rows; r++ {
		sims[r] = s.d - sims[r]
	}
}

// RowRange is a half-open contiguous interval [Lo, Hi) of packed
// reference rows — the candidate-set representation of the
// mass-ordered open-search pipeline. When references are packed in
// ascending precursor-mass order, every precursor window selects a
// contiguous run of rows found by two binary searches, so a candidate
// set costs O(1) space instead of a materialized index slice.
type RowRange struct {
	Lo, Hi int
}

// Empty reports whether the range selects no rows.
func (r RowRange) Empty() bool { return r.Hi <= r.Lo }

// Len returns the number of rows in the range.
func (r RowRange) Len() int {
	if r.Empty() {
		return 0
	}
	return r.Hi - r.Lo
}

// Clamp clips the range to a reference count of n rows.
func (r RowRange) Clamp(n int) RowRange {
	if r.Lo < 0 {
		r.Lo = 0
	}
	if r.Hi > n {
		r.Hi = n
	}
	return r
}

// RowMask is a row bitset: bit r%64 of word r/64 marks row r. A nil
// mask marks no row.
type RowMask []uint64

// rowMaskWords returns the word count of a mask over n rows.
func rowMaskWords(n int) int { return (n + 63) / 64 }

// NewRowMask returns an empty mask over n rows.
func NewRowMask(n int) RowMask { return make(RowMask, rowMaskWords(n)) }

// Set marks row r.
func (m RowMask) Set(r int) { m[r>>6] |= 1 << uint(r&63) }

// Has reports whether row r is marked.
func (m RowMask) Has(r int) bool { return m != nil && m[r>>6]&(1<<uint(r&63)) != 0 }

// Count returns the number of marked rows.
func (m RowMask) Count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// SimilaritiesRangeInto scores the query against packed rows [lo, hi)
// (clamped to [0, Len())) through the blocked kernel, writing
// HammingSimilarity(q, lo+j) to dst[j]. dst is grown as needed; the
// (possibly reallocated) slice of length max(0, hi-lo) is returned, so
// callers can reuse one buffer across queries.
func (s *ShardedSearcher) SimilaritiesRangeInto(q BinaryHV, lo, hi int, dst []int) []int {
	s.checkQuery(q)
	r := RowRange{Lo: lo, Hi: hi}.Clamp(s.n)
	n := r.Len()
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	for row := r.Lo; row < r.Hi; {
		sh := &s.shards[row/s.shardSize]
		end := min(r.Hi, sh.start+sh.rows)
		for b := row; b < end; b += s.block {
			rows := min(s.block, end-b)
			s.scoreBlockSims(q.Words, sh, b-sh.start, rows, dst[b-r.Lo:])
		}
		row = end
	}
	return dst
}

// searchScratch is the reusable per-worker state: the similarity
// buffer the kernel writes into, the top-k and tier-0 shortlist
// heaps, the ladder-descent survivor list and per-tier counter
// buffers — so steady-state search performs no per-query allocation
// beyond the returned matches.
type searchScratch struct {
	sims  []int
	heap  []Match
	pheap []Match
	surv  []int32
	tcnt  []uint64
	tns   []int64
}

var scratchPool = sync.Pool{New: func() any { return &searchScratch{} }}

// simsBuf returns the scratch similarity buffer with at least n slots.
func (sc *searchScratch) simsBuf(n int) []int {
	if cap(sc.sims) < n {
		sc.sims = make([]int, n)
	}
	return sc.sims[:n]
}

// survBuf returns the empty survivor index buffer with capacity >= n.
func (sc *searchScratch) survBuf(n int) []int32 {
	if cap(sc.surv) < n {
		sc.surv = make([]int32, 0, n)
	}
	return sc.surv[:0]
}

// tierCounts returns a zeroed per-tier row-count buffer of length k.
func (sc *searchScratch) tierCounts(k int) []uint64 {
	if cap(sc.tcnt) < k {
		sc.tcnt = make([]uint64, k)
	}
	c := sc.tcnt[:k]
	for i := range c {
		c[i] = 0
	}
	return c
}

// tierNanosBuf returns a zeroed per-tier nanosecond buffer of length k.
func (sc *searchScratch) tierNanosBuf(k int) []int64 {
	if cap(sc.tns) < k {
		sc.tns = make([]int64, k)
	}
	c := sc.tns[:k]
	for i := range c {
		c[i] = 0
	}
	return c
}

// --- allocation-free top-k heap ----------------------------------------
//
// A binary min-heap on match rank (root = current worst of the kept
// top-k), operating directly on a scratch slice: container/heap would
// box every Match through interface{}.

//oms:hotpath
func heapPushMatch(h []Match, m Match) []Match {
	h = append(h, m) //oms:allow(hotalloc) callers pass a scratch-backed heap bounded by k; growth amortizes to zero
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !worse(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

//oms:hotpath
func heapFixRoot(h []Match) {
	i, n := 0, len(h)
	for {
		smallest := i
		if l := 2*i + 1; l < n && worse(h[l], h[smallest]) {
			smallest = l
		}
		if r := 2*i + 2; r < n && worse(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// offerTopK keeps m if it ranks within the current top-k.
//
//oms:hotpath
func offerTopK(h []Match, m Match, k int) []Match {
	if len(h) < k {
		return heapPushMatch(h, m)
	}
	if worse(h[0], m) {
		h[0] = m
		heapFixRoot(h)
	}
	return h
}

// CompareMatches orders matches by rank for slices.SortFunc:
// similarity descending, ties by ascending index — a total order over
// distinct rows, and the order every search path returns.
func CompareMatches(a, b Match) int {
	if a.Similarity != b.Similarity {
		return cmp.Compare(b.Similarity, a.Similarity)
	}
	return cmp.Compare(a.Index, b.Index)
}

// sortedMatches copies the heap into a fresh, rank-sorted result
// slice (similarity descending, ties by ascending index).
func sortedMatches(h []Match) []Match {
	out := make([]Match, len(h))
	copy(out, h)
	slices.SortFunc(out, CompareMatches)
	return out
}

// completeRow finishes a shortlisted tier-0 partial match (Similarity
// carries the negated partial distance) into a full-similarity match
// by scoring the row's remaining tiers. qw is the full query word
// row.
//
//oms:hotpath
func (s *ShardedSearcher) completeRow(qw []uint64, pm Match) Match {
	sh := &s.shards[pm.Index/s.shardSize]
	row := pm.Index - sh.start
	full := -pm.Similarity
	for t := 1; t < len(s.tw); t++ {
		full += distRow(s.qtier(qw, t), s.tierRow(sh, t, row))
	}
	return Match{Index: pm.Index, Similarity: s.d - full}
}

// TopKRange returns the k most similar references among the
// contiguous packed-row range [lo, hi) (clamped to [0, Len())),
// ordered by descending similarity with ties broken by ascending
// index, streaming the rows through the blocked kernel. Large ranges
// spanning several shards fan out across CPU cores.
func (s *ShardedSearcher) TopKRange(q BinaryHV, lo, hi, k int) []Match {
	s.checkQuery(q)
	if k <= 0 {
		return nil
	}
	r := RowRange{Lo: lo, Hi: hi}.Clamp(s.n)
	if r.Empty() {
		return []Match{}
	}
	if r.Len() >= parallelMinRefs && (r.Hi-1)/s.shardSize > r.Lo/s.shardSize {
		out := make([][]Match, 1)
		s.batchRangeScan([]BinaryHV{q}, []RowRange{r}, []int{0}, k, out, nil)
		return out[0]
	}
	sc := scratchPool.Get().(*searchScratch)
	out := s.topKRangeScratch(q, r, k, sc)
	scratchPool.Put(sc)
	return out
}

// topKRangeScratch is the sequential range top-k path over a worker's
// scratch: shard by shard, kernel block by kernel block.
func (s *ShardedSearcher) topKRangeScratch(q BinaryHV, r RowRange, k int, sc *searchScratch) []Match {
	if s.multiTier() {
		return s.topKRangeCascade(q, r, k, sc)
	}
	h := sc.heap[:0]
	sims := sc.simsBuf(s.block)
	for row := r.Lo; row < r.Hi; {
		sh := &s.shards[row/s.shardSize]
		end := min(r.Hi, sh.start+sh.rows)
		for b := row; b < end; b += s.block {
			rows := min(s.block, end-b)
			scoreRows(q.Words, sh.planes[0][(b-sh.start)*s.tw[0]:], s.tw[0], rows, s.d, sims)
			for j := 0; j < rows; j++ {
				if s.isHidden(b + j) {
					continue
				}
				h = offerTopK(h, Match{Index: b + j, Similarity: sims[j]}, k)
			}
		}
		row = end
	}
	sc.heap = h
	s.swept.Add(uint64(r.Len()))
	return sortedMatches(h)
}

// topKRangeCascade is the sequential cascade sweep of a row range:
// tier 0 block-major, the deeper rungs per surviving row. In exact
// mode the pruning bound is the running k-th-best total distance
// (remaining bits can only add distance, so a row with partial
// distance above it can never enter the heap): each block's tier-0
// distances are filtered into a survivor list against the bound as of
// the block start, intermediate tiers re-filter the survivors, and
// the final tier re-checks the live bound before completing — the
// completion decisions are identical to a per-row descent because the
// bound only ever tightens. Shortlist mode completes only the best
// Shortlist tier-0 partials.
func (s *ShardedSearcher) topKRangeCascade(q BinaryHV, r RowRange, k int, sc *searchScratch) []Match {
	qw := q.Words
	q0 := s.qtier(qw, 0)
	nt := len(s.tw)
	dists := sc.simsBuf(s.block)
	tcnt := sc.tierCounts(nt)
	h := sc.heap[:0]
	if s.shortlist > 0 {
		ph := sc.pheap[:0]
		for row := r.Lo; row < r.Hi; {
			sh := &s.shards[row/s.shardSize]
			end := min(r.Hi, sh.start+sh.rows)
			for b := row; b < end; b += s.block {
				rows := min(s.block, end-b)
				distRows(q0, sh.planes[0][(b-sh.start)*s.stride[0]:], s.stride[0], rows, dists)
				tcnt[0] += uint64(rows)
				for j := 0; j < rows; j++ {
					if s.isHidden(b + j) {
						continue
					}
					ph = offerTopK(ph, Match{Index: b + j, Similarity: -dists[j]}, s.shortlist)
				}
			}
			row = end
		}
		sc.pheap = ph
		for t := 1; t < nt; t++ {
			tcnt[t] += uint64(len(ph))
		}
		for _, pm := range sortedMatches(ph) {
			h = offerTopK(h, s.completeRow(qw, pm), k)
		}
	} else {
		bound := math.MaxInt
		for row := r.Lo; row < r.Hi; {
			sh := &s.shards[row/s.shardSize]
			end := min(r.Hi, sh.start+sh.rows)
			for b := row; b < end; b += s.block {
				rows := min(s.block, end-b)
				distRows(q0, sh.planes[0][(b-sh.start)*s.stride[0]:], s.stride[0], rows, dists)
				tcnt[0] += uint64(rows)
				// Survivors of tier 0 at the bound as of the block start
				// (a superset of the rows a live bound would admit; the
				// final rung re-checks the live bound, so completion
				// decisions match the per-row descent exactly). Hidden
				// rows never descend, so the bound comes from visible
				// rows only.
				surv := sc.survBuf(rows)
				for j, da := range dists[:rows] {
					if da <= bound && !s.isHidden(b+j) {
						surv = append(surv, int32(j))
					}
				}
				for t := 1; t < nt-1 && len(surv) > 0; t++ {
					tcnt[t] += uint64(len(surv))
					qt := s.qtier(qw, t)
					w := 0
					for _, j := range surv {
						brow := b + int(j) - sh.start
						nd := dists[j] + distRow(qt, s.tierRow(sh, t, brow))
						if nd <= bound {
							dists[j] = nd
							surv[w] = j
							w++
						}
					}
					surv = surv[:w]
				}
				if len(surv) > 0 {
					last := nt - 1
					qt := s.qtier(qw, last)
					for _, j := range surv {
						if dists[j] > bound {
							continue
						}
						tcnt[last]++
						brow := b + int(j) - sh.start
						full := dists[j] + distRow(qt, s.tierRow(sh, last, brow))
						h = offerTopK(h, Match{Index: b + int(j), Similarity: s.d - full}, k)
						if len(h) == k {
							bound = s.d - h[0].Similarity
						}
					}
				}
				sc.surv = surv[:0]
			}
			row = end
		}
	}
	sc.heap = h
	s.addTierRows(tcnt)
	s.swept.Add(tcnt[0])
	return sortedMatches(h)
}

// BatchTopKRange runs TopKRange for every query: ranges[i] restricts
// query i to packed rows [Lo, Hi), clamped to the reference count
// (ranges must have one entry per query; an empty range yields an
// empty result). The scan is block-major: shards fan out across CPU
// cores, and within a shard every cache-resident row block is swept
// by all queries whose ranges cover it before the scan advances.
// Queries sorted by precursor mass have heavily overlapping ranges,
// so the packed store streams from memory once per batch instead of
// once per query. A full scan is the range [0, Len()).
//
// When tr is non-nil the scan accumulates per-tier sweep nanoseconds
// and row counters into it. Timing never alters control flow, so
// results are bit-identical with and without a trace; a nil tr makes
// every recording site a no-op branch.
func (s *ShardedSearcher) BatchTopKRange(queries []BinaryHV, ranges []RowRange, k int, tr *obsv.Trace) [][]Match {
	if len(ranges) != len(queries) {
		panic(fmt.Sprintf("hdc: %d queries with %d ranges", len(queries), len(ranges)))
	}
	for i := range queries {
		s.checkQuery(queries[i])
	}
	out := make([][]Match, len(queries))
	if k <= 0 {
		return out
	}
	clamped := make([]RowRange, len(queries))
	active := make([]int, 0, len(queries))
	for i, r := range ranges {
		clamped[i] = r.Clamp(s.n)
		if clamped[i].Empty() {
			out[i] = []Match{}
		} else {
			active = append(active, i)
		}
	}
	if len(active) == 0 {
		return out
	}
	// Sort by range start so each shard sees its queries as a
	// near-contiguous run (mass-sorted query batches arrive almost
	// sorted already); stable so equal starts keep query order.
	slices.SortStableFunc(active, func(a, b int) int {
		return cmp.Compare(clamped[a].Lo, clamped[b].Lo)
	})
	s.batchRangeScan(queries, clamped, active, k, out, tr)
	return out
}

// batchRangeScan is the block-major range scan over the active query
// positions (sorted by range start, ranges pre-clamped and non-empty).
// Each worker owns whole shards; within a shard every kernel block is
// scored for all queries covering it while the block is
// cache-resident. Per query and shard a top-k heap survives the sweep;
// shard-level lists are merged per query by (similarity desc, index
// asc) — deterministic regardless of shard completion order, and
// exact because a range-global top-k member is necessarily in its own
// shard's top-k.
//
// Under an exact cascade, workers additionally share one atomic
// pruning bound per query: any full heap's k-th-best distance is a
// valid upper bound on the final range-global k-th-best distance, so
// the tightest published bound prunes ladder descents across shard
// boundaries without touching the merge logic. Under shortlist mode
// the per-shard lists hold tier-0 partials; the merge keeps the
// global best Shortlist of them and completes only those.
func (s *ShardedSearcher) batchRangeScan(queries []BinaryHV, ranges []RowRange, active []int, k int, out [][]Match, tr *obsv.Trace) {
	// perQuery[j][t] is query active[j]'s sorted per-shard list within
	// the t-th shard its range intersects; a contiguous row range
	// intersects a contiguous shard run, so t = shard index −
	// firstShard[j].
	perQuery := make([][][]Match, len(active))
	firstShard := make([]int, len(active))
	for j, qi := range active {
		r := ranges[qi]
		firstShard[j] = r.Lo / s.shardSize
		perQuery[j] = make([][]Match, (r.Hi-1)/s.shardSize-firstShard[j]+1)
	}
	var bounds []atomic.Int64
	if s.multiTier() && s.shortlist == 0 {
		bounds = make([]atomic.Int64, len(active))
		for j := range bounds {
			bounds[j].Store(math.MaxInt64)
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(s.shards))
	next := make(chan int, len(s.shards))
	for i := range s.shards {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := scratchPool.Get().(*searchScratch)
			defer scratchPool.Put(sc)
			for si := range next {
				s.scanShardRanges(si, queries, ranges, active, k, perQuery, firstShard, bounds, sc, tr)
			}
		}()
	}
	wg.Wait()
	// Trace the merge wall time, splitting out the shortlist ladder
	// completions (clock reads gated on tr, so untraced scans pay one
	// branch per query at most).
	var mergeT0 time.Time
	var tbNanos int64
	if tr != nil {
		mergeT0 = time.Now()
	}
	var completedShortlist uint64
	for j, qi := range active {
		var merged []Match
		for _, part := range perQuery[j] {
			merged = append(merged, part...)
		}
		if s.multiTier() && s.shortlist > 0 {
			var ct0 time.Time
			if tr != nil {
				ct0 = time.Now()
			}
			// The per-shard lists hold tier-0 partials ranked by
			// negated partial distance; the global shortlist is the
			// best Shortlist of their union (identical to a
			// single-heap sweep of the whole range), completed here.
			slices.SortFunc(merged, CompareMatches)
			if len(merged) > s.shortlist {
				merged = merged[:s.shortlist]
			}
			qw := queries[qi].Words
			for x, pm := range merged {
				merged[x] = s.completeRow(qw, pm)
			}
			completedShortlist += uint64(len(merged))
			if tr != nil {
				tbNanos += int64(time.Since(ct0))
			}
		}
		slices.SortFunc(merged, CompareMatches)
		if len(merged) > k {
			merged = merged[:k]
		}
		out[qi] = merged
	}
	if completedShortlist > 0 {
		// A shortlist completion scores every tier past tier 0.
		for t := 1; t < len(s.tw); t++ {
			s.tierRows[t].Add(completedShortlist)
		}
	}
	if tr != nil {
		// Shortlist completion time lands in the final tier's slot —
		// the deepest rung dominates the completion cost.
		tr.AddTierNanos(len(s.tw)-1, tbNanos)
		tr.AddNanos(obsv.StageMerge, int64(time.Since(mergeT0))-tbNanos)
		tr.AddRows(0, int64(completedShortlist))
	}
}

// storeMin lowers the published bound to v when v is smaller. Bounds
// only ever decrease, so the CAS loop terminates quickly.
func storeMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// scanShardRanges sweeps one shard's kernel blocks with every query
// whose range intersects the shard, writing per-shard sorted lists
// into perQuery (top-k matches, or tier-0 shortlist partials under
// shortlist mode). bounds carries the shared per-query pruning bounds
// of an exact cascade scan, nil otherwise.
//
// The exact ladder descent is block-structured: tier-0 distances for
// the whole block are filtered into a survivor list against the bound
// as of the block start, intermediate tiers re-filter the survivors
// in place, and the final tier re-checks the live bound (tightening
// as completions land) before scoring — completion decisions are
// identical to a per-row descent because bounds only ever tighten.
//
// When tr is non-nil the sweep's wall time lands in the per-tier
// slots: the clock is read once at entry and once at exit, plus one
// lazy pair around each deeper tier's survivor burst per (block,
// query) pair — a handful of clock reads per shard visit, never per
// row. Tier 0 is the remainder: sweep total minus the deeper bursts.
func (s *ShardedSearcher) scanShardRanges(si int, queries []BinaryHV, ranges []RowRange, active []int, k int, perQuery [][][]Match, firstShard []int, bounds []atomic.Int64, sc *searchScratch, tr *obsv.Trace) {
	sh := &s.shards[si]
	shLo, shHi := sh.start, sh.start+sh.rows
	// active is sorted by range start: positions at or past this bound
	// begin after the shard ends and cannot intersect it.
	bound := sort.Search(len(active), func(j int) bool { return ranges[active[j]].Lo >= shHi })
	// shardQuery is one query's clip onto this shard.
	type shardQuery struct {
		j      int // position in active
		lo, hi int // query range ∩ shard, absolute rows
		heap   []Match
	}
	var qs []shardQuery
	for j := 0; j < bound; j++ {
		r := ranges[active[j]]
		if r.Hi <= shLo {
			continue
		}
		qs = append(qs, shardQuery{j: j, lo: max(r.Lo, shLo), hi: min(r.Hi, shHi)})
	}
	if len(qs) == 0 {
		return
	}
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	nt := len(s.tw)
	sims := sc.simsBuf(s.block)
	tcnt := sc.tierCounts(nt)
	tns := sc.tierNanosBuf(nt)
	var deepNanos int64
	for b0 := 0; b0 < sh.rows; b0 += s.block {
		blockLo := shLo + b0
		blockHi := blockLo + min(s.block, sh.rows-b0)
		for qi := range qs {
			sq := &qs[qi]
			r0, r1 := max(sq.lo, blockLo), min(sq.hi, blockHi)
			if r0 >= r1 {
				continue
			}
			qw := queries[active[sq.j]].Words
			switch {
			case !s.multiTier():
				scoreRows(qw, sh.planes[0][(r0-shLo)*s.tw[0]:], s.tw[0], r1-r0, s.d, sims)
				tcnt[0] += uint64(r1 - r0)
				h := sq.heap
				if len(h) < k {
					for x := 0; x < r1-r0; x++ {
						if s.isHidden(r0 + x) {
							continue
						}
						h = offerTopK(h, Match{Index: r0 + x, Similarity: sims[x]}, k)
					}
				} else {
					// Steady state: almost every row scores below the
					// current worst of the top-k, so reject on one
					// compare and take the heap path only for potential
					// entrants (ties resolve inside). The mask is
					// consulted only for those entrants.
					worst := h[0].Similarity
					for x, sim := range sims[:r1-r0] {
						if sim < worst || s.isHidden(r0+x) {
							continue
						}
						h = offerTopK(h, Match{Index: r0 + x, Similarity: sim}, k)
						worst = h[0].Similarity
					}
				}
				sq.heap = h
			case s.shortlist > 0:
				distRows(s.qtier(qw, 0), sh.planes[0][(r0-shLo)*s.stride[0]:], s.stride[0], r1-r0, sims)
				tcnt[0] += uint64(r1 - r0)
				h := sq.heap
				for x, da := range sims[:r1-r0] {
					if s.isHidden(r0 + x) {
						continue
					}
					h = offerTopK(h, Match{Index: r0 + x, Similarity: -da}, s.shortlist)
				}
				sq.heap = h
			default:
				distRows(s.qtier(qw, 0), sh.planes[0][(r0-shLo)*s.stride[0]:], s.stride[0], r1-r0, sims)
				tcnt[0] += uint64(r1 - r0)
				h := sq.heap
				// The pruning bound is the tighter of this heap's
				// k-th-best distance and the bound other shards have
				// published for the query; both are valid upper bounds
				// on the final k-th-best total distance.
				gb := bounds[sq.j].Load()
				local := int64(math.MaxInt64)
				if len(h) == k {
					local = int64(s.d - h[0].Similarity)
				}
				db := min(gb, local)
				surv := sc.survBuf(r1 - r0)
				for x, da := range sims[:r1-r0] {
					if int64(da) <= db && !s.isHidden(r0+x) {
						surv = append(surv, int32(x))
					}
				}
				for t := 1; t < nt-1 && len(surv) > 0; t++ {
					var bt time.Time
					if tr != nil {
						bt = time.Now()
					}
					tcnt[t] += uint64(len(surv))
					qt := s.qtier(qw, t)
					w := 0
					for _, x := range surv {
						row := r0 + int(x) - shLo
						nd := sims[x] + distRow(qt, s.tierRow(sh, t, row))
						if int64(nd) <= db {
							sims[x] = nd
							surv[w] = x
							w++
						}
					}
					surv = surv[:w]
					if tr != nil {
						n := int64(time.Since(bt))
						tns[t] += n
						deepNanos += n
					}
				}
				if len(surv) > 0 {
					last := nt - 1
					var bt time.Time
					if tr != nil {
						bt = time.Now()
					}
					qt := s.qtier(qw, last)
					for _, x := range surv {
						// Re-check the live bound: completions below
						// tightened it past the block-start filter.
						if int64(sims[x]) > db {
							continue
						}
						tcnt[last]++
						row := r0 + int(x) - shLo
						full := sims[x] + distRow(qt, s.tierRow(sh, last, row))
						h = offerTopK(h, Match{Index: r0 + int(x), Similarity: s.d - full}, k)
						if len(h) == k {
							if l := int64(s.d - h[0].Similarity); l < local {
								local = l
								db = min(gb, local)
							}
						}
					}
					if tr != nil {
						n := int64(time.Since(bt))
						tns[last] += n
						deepNanos += n
					}
				}
				sc.surv = surv[:0]
				sq.heap = h
				if local < gb {
					storeMin(&bounds[sq.j], local)
				}
			}
		}
	}
	for qi := range qs {
		sq := &qs[qi]
		perQuery[sq.j][si-firstShard[sq.j]] = sortedMatches(sq.heap)
	}
	if s.multiTier() {
		s.addTierRows(tcnt)
	}
	s.swept.Add(tcnt[0])
	if tr != nil {
		tr.AddTierNanos(0, int64(time.Since(t0))-deepNanos)
		for t := 1; t < nt; t++ {
			tr.AddTierNanos(t, tns[t])
		}
		var comp int64
		if s.multiTier() && s.shortlist == 0 {
			comp = int64(tcnt[nt-1])
		}
		tr.AddRows(int64(tcnt[0]), comp)
	}
}
