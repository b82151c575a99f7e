// Package libindex persists a built core.Library — the expensive
// product of preprocessing and HD-encoding an entire spectral library
// — as a versioned, checksummed binary index file. Opening an index
// reconstructs a search engine in milliseconds (one metadata parse,
// the packed words memory-mapped) instead of re-encoding every
// spectrum, which is what makes a resident search service (cmd/omsd)
// economical: one library write is amortized across arbitrarily many
// queries.
//
// An index is either one file in the format below or a partition
// manifest (a generation log, see log.go) naming several such files.
// Open accepts both and returns a PartitionedIndex — a single file is
// one base partition at generation 1 — so every reader serves through
// core.NewPartitionedEngine.
//
// # File format (version 3, all integers little-endian)
//
//	magic      [6]byte  "OMSIDX"
//	version    uint16   3
//	d          uint32   hypervector dimension
//	shardSize  uint32   search shard size hint (0 = default)
//	n          uint64   entry count
//	skipped    uint64   spectra rejected by preprocessing at build time
//	paramsLen  uint32   length of the params JSON
//	params     []byte   JSON-encoded core.Params the library was built with
//	permLen    uint32   bit-layout permutation length (0 = natural layout, else = d)
//	perm       permLen×u32  dimension permutation (stored position j holds original dim perm[j])
//	masses     n×f64    ascending precursor masses (entry order = mass rank)
//	srcPos     n×u64    mass-rank → build-order permutation (Library.SourcePositions)
//	entries    n×{flags u8, idLen u32, id, pepLen u32, pep}
//	pad        0–7 zero bytes aligning the words section to 8 bytes
//	words      n×W×u64  packed hypervector words, W = hdc.WordsPerHV(d)
//	crc        uint32   CRC-32C (Castagnoli) of every preceding byte
//
// The pad section (new in version 2) puts the bulk word section on an
// 8-byte file offset, so a memory-mapped index (OpenFile) can expose
// the words as an aligned []uint64 view with zero copying.
//
// The perm section (new in version 3) records the entropy-guided
// bit-layout permutation the stored hypervector words were packed
// under. Queries must be permuted identically before scoring, so the
// permutation is part of the index, not a serving-time option; the
// parser validates it is a true bijection over [0, d) before any
// search engine is built on the words.
//
// One parser (parseIndex) decodes the format, from a mapping or from a
// heap copy of the file. It validates the structural invariants the
// engine relies on (ascending masses, a true permutation, zero tail
// bits beyond dimension d) so a corrupted file can never silently
// mis-score searches. The trailing checksum covers the header too, so
// truncation, bit rot and partial writes are all detected: OpenFile's
// copying fallback checks it at open, and Index.Verify (or
// PartitionedIndex.VerifyPartitions) checks it for a mapped index on
// demand.
package libindex

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/hdc"
)

var magic = [6]byte{'O', 'M', 'S', 'I', 'D', 'X'}

// Version is the current index file format version. Version 3 added
// the bit-layout permutation section; version 2 added the alignment
// pad before the words section. Older files are rejected with a
// version-specific message — rebuild them with omsbuild.
const Version = 3

// Sanity bounds on header fields, so a corrupted length can't drive a
// huge allocation before the payload bytes confirm it. Metadata
// sections are additionally read with chunk-growing slices: the
// allocation tracks bytes actually present in the file, so a tiny
// crafted file with an enormous header count fails on truncation
// after a bounded allocation, and the bulk word section is only sized
// from the header after ~29 bytes per claimed entry have already been
// consumed.
const (
	maxDim        = 1 << 22 // 4M-dimensional hypervectors
	maxEntries    = 1 << 28 // 268M library entries (paper scale: 3M)
	maxTotalWords = 1 << 33 // 64 GiB of packed hypervector words
	maxParamsLen  = 1 << 20 // 1 MiB of params JSON
	maxStringLen  = 1 << 20 // 1 MiB per ID/peptide string
	allocChunk    = 1 << 16 // elements pre-allocated ahead of payload bytes
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Save writes the library and the parameters it was built with as a
// current-version index to w.
func Save(w io.Writer, p core.Params, lib *core.Library) error {
	if lib == nil || lib.Len() == 0 {
		return fmt.Errorf("libindex: refusing to save empty library")
	}
	n := lib.Len()
	if len(lib.HVs) != n {
		return fmt.Errorf("libindex: library has %d entries but %d hypervectors", n, len(lib.HVs))
	}
	d := lib.HVs[0].D
	if p.Accel.D != d {
		return fmt.Errorf("libindex: params dimension D=%d does not match library hypervector dimension D=%d", p.Accel.D, d)
	}
	// Refuse to write a file the parser would reject: a hand-assembled
	// library that never ran SortByMass has no permutation and may be
	// out of mass order, and the failure should surface now rather
	// than after the expensive build is gone.
	srcPos := lib.SourcePositions()
	if len(srcPos) != n {
		return fmt.Errorf("libindex: library has %d entries but %d source positions (SortByMass never ran?)", n, len(srcPos))
	}
	for i := 1; i < n; i++ {
		if lib.Entries[i].Mass < lib.Entries[i-1].Mass {
			return fmt.Errorf("libindex: library entries not in ascending mass order at index %d", i)
		}
	}
	paramsJSON, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("libindex: encoding params: %w", err)
	}
	if len(paramsJSON) > maxParamsLen {
		return fmt.Errorf("libindex: params JSON of %d bytes exceeds limit %d", len(paramsJSON), maxParamsLen)
	}
	perm := lib.DimPerm
	if len(perm) != 0 {
		// Refuse to persist a permutation the parser would reject.
		if err := hdc.ValidatePermutation(perm, d); err != nil {
			return fmt.Errorf("libindex: library bit-layout permutation: %w", err)
		}
	}

	bw := bufio.NewWriterSize(w, 1<<16)
	crc := crc32.New(castagnoli)
	out := io.MultiWriter(bw, crc)
	enc := sectionWriter{w: out}

	enc.bytes(magic[:])
	enc.u16(Version)
	enc.u32(uint32(d))
	enc.u32(uint32(p.ShardSize))
	enc.u64(uint64(n))
	enc.u64(uint64(lib.Skipped))
	enc.u32(uint32(len(paramsJSON)))
	enc.bytes(paramsJSON)
	enc.u32(uint32(len(perm)))
	for _, dim := range perm {
		enc.u32(uint32(dim))
	}
	for _, e := range lib.Entries {
		enc.f64(e.Mass)
	}
	for _, pos := range srcPos {
		enc.u64(uint64(pos))
	}
	for _, e := range lib.Entries {
		var flags byte
		if e.IsDecoy {
			flags |= 1
		}
		if len(e.ID) > maxStringLen || len(e.Peptide) > maxStringLen {
			return fmt.Errorf("libindex: entry %q: string exceeds %d bytes", e.ID, maxStringLen)
		}
		enc.u8(flags)
		enc.str(e.ID)
		enc.str(e.Peptide)
	}
	// Align the bulk word section to an 8-byte file offset so a
	// memory-mapped index can view it as []uint64 without copying.
	var pad [8]byte
	enc.bytes(pad[:-enc.n&7])
	words := hdc.WordsPerHV(d)
	for i, hv := range lib.HVs {
		if hv.D != d || len(hv.Words) != words {
			return fmt.Errorf("libindex: hypervector %d has D=%d (%d words), want D=%d (%d words)",
				i, hv.D, len(hv.Words), d, words)
		}
		enc.u64s(hv.Words)
	}
	if enc.err != nil {
		return fmt.Errorf("libindex: writing index: %w", enc.err)
	}
	// The checksum trailer goes to the buffered writer only — it must
	// not hash itself.
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err := bw.Write(tail[:]); err != nil {
		return fmt.Errorf("libindex: writing index: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("libindex: writing index: %w", err)
	}
	return nil
}

// SaveFile saves the library index to path atomically: the index is
// written to a temporary sibling file and renamed over path only after
// a successful flush, so readers never observe a half-written index.
func SaveFile(path string, p core.Params, lib *core.Library) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := Save(f, p, lib); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// Flush the data blocks before the rename is journaled, or a crash
	// could leave path pointing at an unwritten file — replacing a good
	// index with a corrupt one.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// versionErr renders a version mismatch with enough history to tell
// the operator what to do about it.
func versionErr(version uint16) error {
	switch {
	case version < Version:
		return fmt.Errorf("libindex: index version %d predates the bit-layout permutation section (this build reads version %d): rebuild the index with omsbuild", version, Version)
	default:
		return fmt.Errorf("libindex: index version %d is newer than this build understands (version %d): upgrade the reader or rebuild the index", version, Version)
	}
}

// sectionWriter writes fixed-width little-endian fields, capturing the
// first error so call sites stay linear and counting bytes written so
// the alignment pad before the words section can be sized.
type sectionWriter struct {
	w   io.Writer
	err error
	n   int64
	buf [8]byte
}

func (s *sectionWriter) bytes(b []byte) {
	if s.err != nil {
		return
	}
	_, s.err = s.w.Write(b)
	if s.err == nil {
		s.n += int64(len(b))
	}
}

func (s *sectionWriter) u8(v byte) {
	s.buf[0] = v
	s.bytes(s.buf[:1])
}

func (s *sectionWriter) u16(v uint16) {
	binary.LittleEndian.PutUint16(s.buf[:2], v)
	s.bytes(s.buf[:2])
}

func (s *sectionWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(s.buf[:4], v)
	s.bytes(s.buf[:4])
}

func (s *sectionWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(s.buf[:8], v)
	s.bytes(s.buf[:8])
}

func (s *sectionWriter) f64(v float64) { s.u64(math.Float64bits(v)) }

func (s *sectionWriter) str(v string) {
	s.u32(uint32(len(v)))
	s.bytes([]byte(v))
}

// u64s writes a word slice in chunks through one scratch buffer,
// avoiding a per-word Write without materializing the whole section.
func (s *sectionWriter) u64s(vs []uint64) {
	if s.err != nil {
		return
	}
	const chunkWords = 8192
	buf := make([]byte, 0, chunkWords*8)
	for len(vs) > 0 {
		c := min(chunkWords, len(vs))
		buf = buf[:c*8]
		for i, v := range vs[:c] {
			binary.LittleEndian.PutUint64(buf[i*8:], v)
		}
		s.bytes(buf)
		if s.err != nil {
			return
		}
		vs = vs[c:]
	}
}

// decodeParams decodes a stored core.Params document. Indexes written
// before the K-tier ladder carry a legacy two-tier knob instead of
// Tiers: a positive tier-0 width p is the ladder [p, rest], so it
// decodes as Tiers [p], except that a p at or above the row's word
// count leaves nothing to prune and decodes as the single-tier layout.
// A document setting both the knob and Tiers is rejected.
func decodeParams(data []byte) (core.Params, error) {
	var doc struct {
		core.Params
		LegacyTier0 int `json:"PrefilterWords"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return core.Params{}, err
	}
	p, w := doc.Params, doc.LegacyTier0
	if w > 0 {
		if len(p.Tiers) > 0 {
			return core.Params{}, fmt.Errorf("params set both Tiers and the legacy two-tier knob")
		}
		if w < hdc.WordsPerHV(p.Accel.D) {
			p.Tiers = []int{w}
		}
	}
	return p, nil
}
