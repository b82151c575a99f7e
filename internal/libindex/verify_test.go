package libindex

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestVerifyPartitionsRejectsBodyCorruption pins the two integrity
// layers of the partitioned verify pass against *body* damage — bit
// flips in the bulk word section that every structural check in
// OpenManifest (magic, sizes, params, fences) sails past:
//
//   - a flipped word bit breaks the partition's own CRC trailer, so
//     Index.Verify inside VerifyPartitions rejects it, naming the
//     partition;
//   - a flipped word bit with the trailer recomputed to match is an
//     internally consistent file from "a different build" — only the
//     manifest's recorded CRC-32C can catch the swap, and the error
//     must say so.
func TestVerifyPartitionsRejectsBodyCorruption(t *testing.T) {
	if !mmapSupported {
		t.Skip("body corruption reaches VerifyPartitions only on mmap platforms; the copying open path checksums at open")
	}
	ds := testWorkload(t)
	p := testParams(512, 0, 3)
	built := buildEngine(t, p, ds.Library)
	dir := t.TempDir()
	manifest := filepath.Join(dir, "lib.manifest")
	if err := SavePartitioned(manifest, p, built.Library(), 2); err != nil {
		t.Fatal(err)
	}

	// cloneLibrary copies the manifest and its partitions into a fresh
	// directory so each subtest corrupts its own set.
	cloneLibrary := func(t *testing.T) string {
		t.Helper()
		dst := t.TempDir()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			src, err := os.Open(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out, err := os.Create(filepath.Join(dst, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.Copy(out, src); err != nil {
				t.Fatal(err)
			}
			if err := src.Close(); err != nil {
				t.Fatal(err)
			}
			if err := out.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return filepath.Join(dst, filepath.Base(manifest))
	}

	// verify opens the manifest (which must succeed: body damage is
	// structurally invisible) and returns the VerifyPartitions error.
	verify := func(t *testing.T, m string) error {
		t.Helper()
		pi, err := OpenManifest(m)
		if err != nil {
			t.Fatalf("OpenManifest rejected a structurally valid library: %v", err)
		}
		defer pi.Close()
		return pi.VerifyPartitions()
	}

	t.Run("pristine", func(t *testing.T) {
		if err := verify(t, cloneLibrary(t)); err != nil {
			t.Fatalf("VerifyPartitions on a pristine library: %v", err)
		}
	})

	t.Run("flipped word bit", func(t *testing.T) {
		m := cloneLibrary(t)
		part := PartitionFileName(m, 1)
		img, err := os.ReadFile(part)
		if err != nil {
			t.Fatal(err)
		}
		// Flip one bit in the packed words, well clear of the metadata
		// sections at the front and the 4-byte CRC trailer at the back.
		img[len(img)-64] ^= 0x10
		if err := os.WriteFile(part, img, 0o644); err != nil {
			t.Fatal(err)
		}
		err = verify(t, m)
		if err == nil {
			t.Fatal("VerifyPartitions accepted a partition with a flipped word bit")
		}
		if !strings.Contains(err.Error(), "partition 1") || !strings.Contains(err.Error(), "corrupted") {
			t.Fatalf("error %q does not name partition 1 as corrupted", err)
		}
	})

	t.Run("swapped partition with consistent trailer", func(t *testing.T) {
		m := cloneLibrary(t)
		part := PartitionFileName(m, 0)
		img, err := os.ReadFile(part)
		if err != nil {
			t.Fatal(err)
		}
		// Alter a word and recompute the file's own CRC trailer: the
		// partition is now internally consistent but not the file the
		// manifest recorded — the replaced-file case.
		img[len(img)-32] ^= 0x04
		binary.LittleEndian.PutUint32(img[len(img)-4:], crc32.Checksum(img[:len(img)-4], castagnoli))
		if err := os.WriteFile(part, img, 0o644); err != nil {
			t.Fatal(err)
		}
		err = verify(t, m)
		if err == nil {
			t.Fatal("VerifyPartitions accepted a swapped partition with a self-consistent trailer")
		}
		if !strings.Contains(err.Error(), "partition 0") || !strings.Contains(err.Error(), "disagrees with manifest CRC") {
			t.Fatalf("error %q does not attribute the manifest CRC disagreement to partition 0", err)
		}
	})
}
