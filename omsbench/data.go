package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/msdata"
	"repro/internal/spectrum"
)

// Dataset shape: the iPRG2012 preset at scale 0.02 is 20k target and
// 20k decoy references plus 320 query spectra. Encoded at D=2048 the
// packed store is about 10 MB: larger than a core's L2, smaller than a
// server's L3.
const (
	datasetScale = 0.02
	dimension    = 2048
	// batchRefs is the size of every batch published while serving
	// (churn's appends and the other workloads' post-run publishes).
	batchRefs = 1000
	// runBatches is the number of appends churn publishes while reads
	// run.
	runBatches = 4
	// probeCycles is the number of append-then-compact cycles the
	// other workloads publish after their reads.
	probeCycles = 2
)

// inputs are the generated files and request bodies of one run.
type inputs struct {
	// library is the MGF the index is built from (churn: the base
	// 80%).
	library string
	// setupDelta and retract are churn's set-up changes: the next 10%
	// of the library plus the retracted ids, re-added; and 2% of the
	// base ids.
	setupDelta string
	retract    []string
	// batches are the MGFs published while serving.
	batches []string
	// queries are the query spectra as omsd parses them; bodies holds
	// one single-spectrum MGF request body per query; all is the whole
	// query set as one body.
	queries []*spectrum.Spectrum
	bodies  [][]byte
	all     []byte
}

// makeInputs generates the run's dataset from the seed and writes the
// files the workload hands to the program.
func makeInputs(dir string, w workload, seed int64) (*inputs, error) {
	cfg := msdata.IPRG2012(datasetScale)
	cfg.Seed += seed
	ds, err := msdata.Generate(cfg)
	if err != nil {
		return nil, err
	}
	in := &inputs{}
	var buf bytes.Buffer
	if err := spectrum.WriteMGF(&buf, ds.Queries); err != nil {
		return nil, err
	}
	in.all = bytes.Clone(buf.Bytes())
	if in.queries, err = spectrum.ReadMGF(bytes.NewReader(in.all)); err != nil {
		return nil, err
	}
	for _, q := range ds.Queries {
		buf.Reset()
		if err := spectrum.WriteMGF(&buf, []*spectrum.Spectrum{q}); err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, bytes.Clone(buf.Bytes()))
	}

	lib := ds.Library
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	pick := func(idx []int) []*spectrum.Spectrum {
		out := make([]*spectrum.Spectrum, len(idx))
		for i, j := range idx {
			out[i] = lib[j]
		}
		return out
	}
	write := func(name string, spectra []*spectrum.Spectrum) (string, error) {
		path := filepath.Join(dir, name)
		return path, writeMGFFile(path, spectra)
	}
	perm := rng.Perm(len(lib))
	if !w.churn {
		if in.library, err = write("library.mgf", lib); err != nil {
			return nil, err
		}
		// The post-run publishes re-add library spectra, so the visible
		// set stays the one the reads were checked against.
		for k := 0; k < probeCycles; k++ {
			b, err := write(fmt.Sprintf("batch%d.mgf", k), pick(perm[k*batchRefs:(k+1)*batchRefs]))
			if err != nil {
				return nil, err
			}
			in.batches = append(in.batches, b)
		}
		return in, nil
	}

	nBase := len(lib) * 8 / 10
	nDelta := len(lib) / 10
	if nBase+nDelta+runBatches*batchRefs > len(lib) {
		return nil, fmt.Errorf("library of %d spectra too small for churn", len(lib))
	}
	base := perm[:nBase]
	if in.library, err = write("base.mgf", pick(base)); err != nil {
		return nil, err
	}
	retracted := base[:nBase/50] // perm is random, so any prefix is a random draw
	for _, j := range retracted {
		in.retract = append(in.retract, lib[j].ID)
	}
	delta := append(pick(perm[nBase:nBase+nDelta]), pick(retracted)...)
	if in.setupDelta, err = write("setup-delta.mgf", delta); err != nil {
		return nil, err
	}
	next := nBase + nDelta
	for k := 0; k < runBatches; k++ {
		b, err := write(fmt.Sprintf("batch%d.mgf", k), pick(perm[next:next+batchRefs]))
		if err != nil {
			return nil, err
		}
		in.batches = append(in.batches, b)
		next += batchRefs
	}
	return in, nil
}

// writeMGFFile writes spectra to a new MGF file.
func writeMGFFile(path string, spectra []*spectrum.Spectrum) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// Synced, so the timed set-up's own fsyncs never wait on writing
	// back the benchmark's inputs.
	if err := errors.Join(spectrum.WriteMGF(f, spectra), f.Sync()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
