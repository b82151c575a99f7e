package libindex

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"
	"unsafe"
)

// FuzzIndexLoad drives crafted index images through the one parser,
// parseIndex, and the copying open path built on it. The parser may
// not panic, nor size an allocation from an unvalidated header field:
// it checks the claimed entry count against the image size before
// allocating anything. Each image is parsed from an 8-byte-aligned
// copy (the packed words become a view over the image) and from a
// misaligned copy (the words are copied out); the two must agree on
// accept/reject and on content. Opening an image through the copying
// path — parse, then CRC check — must accept exactly the images the
// parser accepts whose CRC trailer verifies. Structure-aware seeds
// start from a valid save so the fuzzer explores deep states, not just
// magic-number rejections.
func FuzzIndexLoad(f *testing.F) {
	valid := validIndexImage(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	// Header-field mutants: entry counts are the dangerous fields (they
	// size allocations); offsets per the format doc: magic 6, version
	// 2, d 4, shardSize 4, n 8, skipped 8, paramsLen 4. The seed list
	// is kept short — each corpus entry costs noticeable coordinator
	// warmup on small CI boxes before mutation throughput kicks in.
	for _, mut := range []struct {
		off int
		val uint64
		n   int
	}{
		{16, 1 << 60, 8}, // absurd entry count
		{16, 1 << 27, 8}, // large-but-bounded entry count
		{8, 63, 4},       // dimension not a multiple of 64
	} {
		img := append([]byte(nil), valid...)
		switch mut.n {
		case 2:
			binary.LittleEndian.PutUint16(img[mut.off:], uint16(mut.val))
		case 4:
			binary.LittleEndian.PutUint32(img[mut.off:], uint32(mut.val))
		case 8:
			binary.LittleEndian.PutUint64(img[mut.off:], mut.val)
		}
		f.Add(img)
	}
	// Version-3 permutation-section seeds: a valid permuted image, the
	// same image with a duplicated perm entry (a checksummed
	// non-bijection the parser must reject descriptively), and a
	// natural image claiming a nonzero perm length it does not carry.
	permuted := permutedIndexImage(f)
	f.Add(permuted)
	dup := append([]byte(nil), permuted...)
	off := permSectionOffset(dup)
	copy(dup[off+8:off+12], dup[off+4:off+8])
	fixCRC(dup)
	f.Add(dup)
	badLen := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(badLen[permSectionOffset(badLen):], 7)
	f.Add(badLen)
	f.Fuzz(func(t *testing.T, data []byte) {
		aligned := alignedCopy(data, 0)
		misaligned := alignedCopy(data, 1)
		ap, alib, _, aerr := parseIndex(aligned)
		mp, mlib, _, merr := parseIndex(misaligned)
		if (aerr == nil) != (merr == nil) {
			t.Fatalf("aligned and misaligned parses disagree: %v vs %v", aerr, merr)
		}
		crcOK := len(data) >= 4 &&
			crc32.Checksum(data[:len(data)-4], castagnoli) == binary.LittleEndian.Uint32(data[len(data)-4:])
		ix, oerr := openCopy(t, data)
		if want := aerr == nil && crcOK; (oerr == nil) != want {
			t.Fatalf("copying open returned %v; parser accepts=%v, CRC verifies=%v", oerr, aerr == nil, crcOK)
		}
		if aerr != nil {
			return
		}
		if ap.Accel.D != mp.Accel.D || alib.Len() != mlib.Len() || alib.Skipped != mlib.Skipped {
			t.Fatalf("parses disagree: aligned D=%d n=%d, misaligned D=%d n=%d",
				ap.Accel.D, alib.Len(), mp.Accel.D, mlib.Len())
		}
		if !slices.Equal(alib.DimPerm, mlib.DimPerm) {
			t.Fatalf("parses disagree on bit-layout permutation: %d vs %d entries",
				len(alib.DimPerm), len(mlib.DimPerm))
		}
		for i := 0; i < alib.Len(); i++ {
			if alib.Entries[i] != mlib.Entries[i] || !alib.HVs[i].Equal(mlib.HVs[i]) {
				t.Fatalf("parses disagree on entry %d", i)
			}
		}
		if ix != nil && ix.Lib.Len() != alib.Len() {
			t.Fatalf("copying open decoded %d entries, parser %d", ix.Lib.Len(), alib.Len())
		}
	})
}

// alignedCopy copies data into a fresh buffer starting off bytes past
// an 8-byte boundary.
func alignedCopy(data []byte, off int) []byte {
	words := make([]uint64, (len(data)+off+7)/8+1)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)
	return append(buf[off:off], data...)
}

// validIndexImage builds a small valid index image for seeding — a
// synthetic library (random hypervectors, ascending masses), not a
// full encoding pipeline, so every fuzz worker starts instantly.
func validIndexImage(f *testing.F) []byte {
	f.Helper()
	p, lib := syntheticLibrary(f, 6, 128)
	var buf bytes.Buffer
	if err := Save(&buf, p, lib); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// permutedIndexImage is validIndexImage under a non-identity bit
// layout (dimension reversal — any bijection exercises the perm
// section equally).
func permutedIndexImage(f *testing.F) []byte {
	f.Helper()
	p, lib := syntheticLibrary(f, 6, 128)
	d := lib.HVs[0].D
	perm := make([]int, d)
	for i := range perm {
		perm[i] = d - 1 - i
	}
	if err := lib.SetDimPerm(perm); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, p, lib); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
