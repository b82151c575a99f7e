package repro

// The golden end-to-end fixture: a tiny checked-in MGF library and
// query set (testdata/golden/) driven through the omsbuild → omsearch
// pipeline in-process — build the encoded library, persist it as both
// a single index file and a 3-partition manifest, open both back
// (mmap-backed) through libindex.Open into the partitioned engine
// omsearch serves, search, and render omsearch's TSV. The in-memory
// engine, single-file and partitioned outputs must match byte for
// byte, and all must match the checked-in expected.tsv (regenerate
// deliberately with -update-golden after an intentional scoring
// change).

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/fdr"
	"repro/internal/libindex"
	"repro/internal/spectrum"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/expected.tsv from the current engine output")

// goldenParams pins the engine configuration the fixture was built
// with; changing any encoder-identity field invalidates expected.tsv.
func goldenParams() core.Params {
	p := core.DefaultParams()
	p.Accel.D = 2048
	p.Accel.NumChunks = 64
	p.Accel.IDPrecision = 3
	p.Accel.Seed = 1
	return p
}

// renderGoldenTSV reproduces cmd/omsearch's writePSMs output format
// exactly — header line plus one row per accepted PSM.
func renderGoldenTSV(res fdr.Result) string {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "query_id\tpeptide\tscore\tmass_shift")
	for _, psm := range res.Accepted {
		fmt.Fprintf(&buf, "%s\t%s\t%.4f\t%+.4f\n", psm.QueryID, psm.Peptide, psm.Score, psm.MassShift)
	}
	return buf.String()
}

func TestGoldenEndToEnd(t *testing.T) {
	library, err := spectrum.ReadSpectraFile("testdata/golden/library.mgf")
	if err != nil {
		t.Fatal(err)
	}
	queries, err := spectrum.ReadSpectraFile("testdata/golden/queries.mgf")
	if err != nil {
		t.Fatal(err)
	}
	p := goldenParams()
	engine, _, err := core.BuildExact(p, library)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	singlePath := filepath.Join(dir, "golden.omsidx")
	manifestPath := filepath.Join(dir, "golden.manifest")
	if err := libindex.SaveFile(singlePath, p, engine.Library()); err != nil {
		t.Fatal(err)
	}
	if err := libindex.SavePartitioned(manifestPath, p, engine.Library(), 3); err != nil {
		t.Fatal(err)
	}

	// The in-memory engine the index was built from, as omsearch
	// -library runs it.
	builtRes, err := engine.Run(queries)
	if err != nil {
		t.Fatal(err)
	}
	builtTSV := renderGoldenTSV(builtRes)

	// Both on-disk layouts, exactly as omsearch -index takes them.
	runIndex := func(path string) string {
		t.Helper()
		pi, err := libindex.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer pi.Close()
		pe, _, err := core.NewPartitionedEngine(pi.Params, pi.PartitionSet())
		if err != nil {
			t.Fatal(err)
		}
		res, err := pe.Run(queries)
		if err != nil {
			t.Fatal(err)
		}
		return renderGoldenTSV(res)
	}
	singleTSV := runIndex(singlePath)
	partTSV := runIndex(manifestPath)

	if singleTSV != partTSV {
		t.Fatalf("partitioned TSV differs from single-file TSV:\n--- single ---\n%s--- partitioned ---\n%s", singleTSV, partTSV)
	}
	if builtTSV != singleTSV {
		t.Fatalf("in-memory engine TSV differs from single-file TSV:\n--- in-memory ---\n%s--- single ---\n%s", builtTSV, singleTSV)
	}
	if len(builtRes.Accepted) == 0 {
		t.Fatal("golden run accepted no PSMs; fixture is degenerate")
	}

	goldenPath := "testdata/golden/expected.tsv"
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(singleTSV), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d accepted PSMs)", goldenPath, len(builtRes.Accepted))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if singleTSV != string(want) {
		t.Fatalf("TSV output drifted from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, singleTSV, want)
	}
}
