package libindex

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hdc"
)

// legacyImage rewrites a saved index image so its params document
// carries the pre-ladder two-tier knob "PrefilterWords": pf instead of
// a ladder — the shape of an index written before Tiers existed. The
// spliced text is padded with JSON whitespace to a multiple of 8
// bytes, so the aligned word section stays aligned.
func legacyImage(t *testing.T, img []byte, pf int) []byte {
	t.Helper()
	n := int(binary.LittleEndian.Uint32(img[32:36]))
	params := string(img[36 : 36+n])
	const field = `"Tiers":null`
	if !strings.Contains(params, field) {
		t.Fatalf("params document has no empty ladder to replace: %s", params)
	}
	splice := field + fmt.Sprintf(`,"PrefilterWords":%d`, pf)
	splice += strings.Repeat(" ", (8-(len(splice)-len(field))%8)%8)
	params = strings.Replace(params, field, splice, 1)
	var out bytes.Buffer
	out.Write(img[:32])
	binary.Write(&out, binary.LittleEndian, uint32(len(params)))
	out.WriteString(params)
	out.Write(img[36+n:])
	legacy := out.Bytes()
	fixCRC(legacy)
	return legacy
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLegacyPrefilterWordsParams pins the translation of the removed
// PrefilterWords knob: an index whose params carry "PrefilterWords": p
// loads (through both the copying fallback and the mmap opener) with
// the ladder Tiers [p], and the engine over it runs the same ladder
// and returns the same results as one configured with -tiers p.
func TestLegacyPrefilterWordsParams(t *testing.T) {
	ds := testWorkload(t)
	p := testParams(1024, 64, 3) // 16 words per row
	built := buildEngine(t, p, ds.Library)
	var buf bytes.Buffer
	if err := Save(&buf, p, built.Library()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "legacy.omsidx")
	if err := writeFile(path, legacyImage(t, buf.Bytes(), 4)); err != nil {
		t.Fatal(err)
	}

	tiered := p
	tiered.Tiers = []int{4}
	want := buildEngine(t, tiered, ds.Library)
	wantPSMs, err := want.SearchAll(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	wantStats, _ := want.CascadeStats()

	cp, err := openCopied(path)
	if err != nil {
		t.Fatal(err)
	}
	lp, lib := cp.Params, cp.Lib
	ix, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, got := range []core.Params{lp, ix.Params} {
		if !slices.Equal(got.Tiers, tiered.Tiers) {
			t.Fatalf("legacy params loaded with ladder %v, want %v", got.Tiers, tiered.Tiers)
		}
	}
	loaded, _, err := core.NewExactEngineFromLibrary(lp, lib)
	if err != nil {
		t.Fatal(err)
	}
	psms, err := loaded.SearchAll(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(psms, wantPSMs) {
		t.Fatalf("legacy index results differ from -tiers 4:\ngot  %v\nwant %v", psms, wantPSMs)
	}
	stats, ok := loaded.CascadeStats()
	if !ok || !slices.Equal(stats.TierRows, wantStats.TierRows) {
		t.Fatalf("legacy index ran tier rows %v (ok=%v), -tiers 4 ran %v", stats.TierRows, ok, wantStats.TierRows)
	}
}

// TestDecodeParamsLegacyCases pins the edge cases of the translation:
// a PrefilterWords at or above the row's word count (or unset) decodes
// as the single-tier layout, and a document setting both knobs is
// rejected, by the manifest decoder too.
func TestDecodeParamsLegacyCases(t *testing.T) {
	p := testParams(1024, 0, 3)
	words := hdc.WordsPerHV(p.Accel.D)
	doc := func(extra string) []byte {
		base := mustJSON(t, p)
		return append(base[:len(base)-1:len(base)-1], []byte(extra+"}")...)
	}
	for _, tc := range []struct {
		extra string
		tiers []int
	}{
		{``, nil},
		{`,"PrefilterWords":0`, nil},
		{`,"PrefilterWords":1`, []int{1}},
		{`,"PrefilterWords":15`, []int{15}},
		{`,"PrefilterWords":16`, nil},
		{`,"PrefilterWords":99`, nil},
	} {
		got, err := decodeParams(doc(tc.extra))
		if err != nil {
			t.Fatalf("%q: %v", tc.extra, err)
		}
		if !slices.Equal(got.Tiers, tc.tiers) {
			t.Errorf("%q (%d words per row): ladder %v, want %v", tc.extra, words, got.Tiers, tc.tiers)
		}
	}

	both := p
	both.Tiers = []int{2}
	bad := mustJSON(t, both)
	bad = append(bad[:len(bad)-1:len(bad)-1], []byte(`,"PrefilterWords":4}`)...)
	if _, err := decodeParams(bad); err == nil {
		t.Error("params setting both Tiers and PrefilterWords accepted")
	}
	if _, err := (&ManifestState{Params: bad}).DecodeParams(); err == nil {
		t.Error("manifest params setting both Tiers and PrefilterWords accepted")
	}
}
