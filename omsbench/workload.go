package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/hdc"
	"repro/internal/libindex"
	"repro/internal/spectrum"
)

// workload is one traffic mix against omsd.
type workload struct {
	name string
	// partitions is the manifest's base partition count.
	partitions int
	// rate is the open-loop arrival rate in requests per second; 0
	// runs a closed loop on one connection.
	rate float64
	// conns is the connection count (capped at the CPU count).
	conns int
	// bulk requests carry every query spectrum and ask for TSV.
	bulk bool
	// churn publishes appends and a compaction while reads run.
	churn bool
}

var workloads = []workload{
	{name: "interactive", partitions: 1, rate: 150, conns: 2},
	{name: "bulk", partitions: 4, conns: 1, bulk: true},
	{name: "churn", partitions: 4, conns: 1, churn: true},
}

// churn's append schedule, as fractions of the read window. The
// compaction runs once the reads end: in the window, its two seconds
// of work would put the median read right between the reads it slows
// and the ones it does not, and the median would swing with its length.
var publishAt = []float64{0.1, 0.3, 0.5, 0.7}

// connections is the workload's read connection count. With the one
// /healthz connection churn polls while reads run, the total never
// exceeds the machine's CPU count (down to a floor of one read
// connection).
func (w workload) connections() int {
	n := runtime.NumCPU()
	if w.churn {
		n--
	}
	return max(1, min(w.conns, n))
}

// firstGen is the manifest generation serving when reads start: the
// base build, plus churn's set-up retract and append.
func (w workload) firstGen() int {
	if w.churn {
		return 3
	}
	return 1
}

// target is what a run drives: omsd over HTTP, or the in-process
// replay.
type target interface {
	send(i, q int) ([]result, error)
	publish(batch string) (genSwitch, error)
	compact() (genSwitch, error)
}

// phase is one timed run of a workload against a target.
type phase struct {
	samples    []sample
	start, end time.Time
	// switches are the generation switches published while reads ran.
	switches []genSwitch
	// publishS and compactS are publish-to-served times in seconds;
	// reloadS the part of each spent between the tool's exit (or the
	// in-process publish) and the new generation serving.
	publishS, compactS, reloadS []float64
	// ops counts publishes and compactions attempted; opErrs the
	// failed ones.
	ops    int
	opErrs []error
	// warmup is the unmeasured request sent before the window.
	warmup sample
}

// runPhase drives the workload's reads for the window (churn also
// publishes its batches meanwhile). With probe set, churn then
// compacts, and the other workloads publish and compact each of their
// batches in turn, so every workload measures publish and compaction.
func runPhase(w workload, in *inputs, t target, seed int64, window time.Duration, probe bool) phase {
	// Warm up, unmeasured but checked: one request carrying every query
	// faults in the index pages their windows touch, so the window
	// starts from a steady state.
	warm := sample{Query: -1, Sent: time.Now()}
	warm.Results, warm.Err = t.send(-1, -1)
	warm.Done = time.Now()
	runtime.GC() // nor does it start by collecting set-up garbage
	ph := phase{start: time.Now(), warmup: warm}
	// op runs one publish or compaction; live ones run while reads do.
	op := func(f func() (genSwitch, error), times *[]float64, live bool) {
		ph.ops++
		sw, err := f()
		if err != nil {
			ph.opErrs = append(ph.opErrs, err)
			return
		}
		*times = append(*times, sw.Confirmed.Sub(sw.Started).Seconds())
		ph.reloadS = append(ph.reloadS, sw.Confirmed.Sub(sw.Signaled).Seconds())
		if live {
			ph.switches = append(ph.switches, sw)
		}
	}
	published := make(chan struct{})
	go func() {
		defer close(published)
		if !w.churn {
			return
		}
		at := func(frac float64) {
			time.Sleep(time.Until(ph.start.Add(time.Duration(frac * float64(window)))))
		}
		for k, batch := range in.batches {
			at(publishAt[k])
			op(func() (genSwitch, error) { return t.publish(batch) }, &ph.publishS, true)
		}
	}()
	switch {
	case w.rate > 0:
		sched := poissonSchedule(seed, w.rate, window, len(in.queries))
		ph.samples = runOpenLoop(sched, w.connections(), ph.start, t.send)
	case w.bulk:
		ph.samples = runClosedLoop(window, ph.start, func(int) int { return -1 }, t.send)
	default:
		rng := rand.New(rand.NewSource(seed))
		ph.samples = runClosedLoop(window, ph.start, func(int) int { return rng.Intn(len(in.queries)) }, t.send)
	}
	<-published
	if ht, ok := t.(*httpTarget); ok {
		// The read connections stay idle from here on.
		ht.d.reads.CloseIdleConnections()
	}
	for _, s := range ph.samples {
		if s.Done.After(ph.end) {
			ph.end = s.Done
		}
	}
	switch {
	case probe && w.churn:
		op(t.compact, &ph.compactS, false)
	case probe:
		for _, batch := range in.batches {
			op(func() (genSwitch, error) { return t.publish(batch) }, &ph.publishS, false)
			op(t.compact, &ph.compactS, false)
		}
	}
	return ph
}

// verdict is a phase's correctness tally.
type verdict struct {
	attempted, failed int
	// spectra counts correctly answered query spectra.
	spectra int
}

// verify checks every request of a phase against the expected answers
// of the generations live while it was in flight.
func verify(w workload, in *inputs, ph phase, expected [][]answer) verdict {
	all := make([]int, len(in.queries))
	for i := range all {
		all[i] = i
	}
	v := verdict{attempted: len(ph.samples) + ph.ops, failed: len(ph.opErrs)}
	if !checkSample(ph.warmup, all, expected, nil, w.bulk) {
		v.failed++
	}
	v.attempted++
	for _, s := range ph.samples {
		queries := all
		if s.Query >= 0 {
			queries = []int{s.Query}
		}
		if checkSample(s, queries, expected, ph.switches, w.bulk) {
			v.spectra += len(queries)
		} else {
			v.failed++
		}
	}
	return v
}

// add accumulates another phase's tally.
func (v *verdict) add(o verdict) {
	v.attempted += o.attempted
	v.failed += o.failed
	v.spectra += o.spectra
}

// firstErr reports a phase's first failure for the log.
func (ph phase) firstErr() error {
	if ph.warmup.Err != nil {
		return ph.warmup.Err
	}
	for _, s := range ph.samples {
		if s.Err != nil {
			return s.Err
		}
	}
	if len(ph.opErrs) > 0 {
		return ph.opErrs[0]
	}
	return nil
}

// expectedGens computes the answers of every generation a phase
// served: the first and one per switch.
func expectedGens(manifest string, w workload, in *inputs, ph phase) ([][]answer, error) {
	var out [][]answer
	for g := 0; g <= len(ph.switches); g++ {
		a, err := expectedAt(manifest, w.firstGen()+g, in.queries)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// httpTarget drives a running omsd.
type httpTarget struct {
	d        *daemon
	bin      string
	manifest string
	in       *inputs
	tsv      bool
	gen      int
}

func (t *httpTarget) send(_, q int) ([]result, error) {
	if q < 0 {
		return t.d.search(t.in.all, t.tsv)
	}
	return t.d.search(t.in.bodies[q], t.tsv)
}

// publish runs omsbuild -append and SIGHUP, timed until /healthz
// reports the new generation.
func (t *httpTarget) publish(batch string) (genSwitch, error) {
	sw := genSwitch{Started: time.Now()}
	if err := runTool(t.bin, "omsbuild", "-append", "-library", batch, "-out", t.manifest); err != nil {
		return sw, err
	}
	return t.reloadTo(sw, t.gen+1, false)
}

// compact runs omscompact -sweep and SIGHUP, timed until /healthz
// reports no delta partitions.
func (t *httpTarget) compact() (genSwitch, error) {
	sw := genSwitch{Started: time.Now()}
	if err := runTool(t.bin, "omscompact", "-index", t.manifest, "-sweep"); err != nil {
		return sw, err
	}
	return t.reloadTo(sw, t.gen+1, true)
}

func (t *httpTarget) reloadTo(sw genSwitch, gen int, compacted bool) (genSwitch, error) {
	if err := t.d.reload(); err != nil {
		return sw, err
	}
	sw.Signaled = time.Now()
	_, err := t.d.waitHealth(60*time.Second, func(h map[string]any) bool {
		return healthInt(h, "manifest_generation") == gen && (!compacted || healthInt(h, "delta_partitions") == 0)
	})
	sw.Confirmed = time.Now()
	t.gen = gen
	return sw, err
}

// setupDaemon is the measured set-up: omsbuild on the generated MGF
// (churn: then the set-up retract and append) until omsd's /healthz
// answers.
func setupDaemon(w workload, in *inputs, bin, dir string) (*daemon, string, float64, error) {
	manifest := filepath.Join(dir, "lib.manifest")
	start := time.Now()
	if err := runTool(bin, "omsbuild", "-library", in.library, "-out", manifest,
		"-d", strconv.Itoa(dimension), "-partitions", strconv.Itoa(w.partitions)); err != nil {
		return nil, "", 0, err
	}
	if w.churn {
		if err := runTool(bin, "omsbuild", "-retract", strings.Join(in.retract, ","), "-out", manifest); err != nil {
			return nil, "", 0, err
		}
		if err := runTool(bin, "omsbuild", "-append", "-library", in.setupDelta, "-out", manifest); err != nil {
			return nil, "", 0, err
		}
	}
	d, err := startDaemon(bin, manifest, w.connections())
	if err != nil {
		return nil, "", 0, err
	}
	if _, err := d.waitHealth(60*time.Second, func(map[string]any) bool { return true }); err != nil {
		return nil, "", 0, errors.Join(err, d.stop())
	}
	return d, manifest, time.Since(start).Seconds(), nil
}

// buildTimes are the in-process set-up's layer times in seconds.
type buildTimes struct {
	read, encode, save float64
}

// buildInProcess performs the set-up omsbuild performs, through the
// same public calls, timing each layer.
func buildInProcess(w workload, in *inputs, manifest string) (buildTimes, error) {
	var bt buildTimes
	var (
		spectra []*spectrum.Spectrum
		lib     *core.Library
		st      *libindex.ManifestState
	)
	p := buildParams()
	type step struct {
		dst *float64
		run func() error
	}
	steps := []step{
		{&bt.read, func() (err error) {
			spectra, err = spectrum.ReadSpectraFile(in.library)
			return err
		}},
		{&bt.encode, func() error {
			ids, levels, err := accel.NewEncoderComponents(p.Accel)
			if err != nil {
				return err
			}
			enc, err := hdc.NewEncoder(ids, levels)
			if err != nil {
				return err
			}
			lib, err = core.BuildLibrary(spectra, p, enc)
			return err
		}},
		{&bt.save, func() error { return libindex.SavePartitioned(manifest, p, lib, w.partitions) }},
	}
	if w.churn {
		steps = append(steps,
			step{&bt.save, func() error {
				pi, err := libindex.OpenManifest(manifest)
				if err != nil {
					return err
				}
				known, cur := pi.LiveIDs(), pi.State
				if err := pi.Close(); err != nil {
					return err
				}
				_, err = libindex.AppendRetract(manifest, cur, in.retract, known)
				return err
			}},
			step{&bt.read, func() (err error) {
				spectra, err = spectrum.ReadSpectraFile(in.setupDelta)
				return err
			}},
			step{&bt.encode, func() (err error) {
				if st, err = libindex.LoadManifestLog(manifest); err != nil {
					return err
				}
				dp, err := st.DecodeParams()
				if err != nil {
					return err
				}
				lib, err = libindex.BuildDeltaLibrary(spectra, dp, st.DimPerm)
				return err
			}},
			step{&bt.save, func() error {
				_, err := libindex.AppendDelta(manifest, st, lib, 0)
				return err
			}})
	}
	for _, s := range steps {
		t := time.Now()
		err := s.run()
		*s.dst += time.Since(t).Seconds()
		if err != nil {
			return bt, err
		}
	}
	return bt, nil
}

// buildParams are omsbuild's default params at the benchmark's
// dimension (omsbuild -d 2048).
func buildParams() core.Params {
	p := core.DefaultParams()
	p.Accel.D = dimension
	p.Accel.NumChunks = max(dimension/32, 32)
	return p
}

// indexBytes is the on-disk size of the manifest's current generation:
// the generation log plus every live partition file.
func indexBytes(manifest string) (int64, error) {
	st, err := libindex.LoadManifestLog(manifest)
	if err != nil {
		return 0, err
	}
	files := []string{manifest}
	for _, p := range st.Partitions() {
		files = append(files, filepath.Join(filepath.Dir(manifest), p.File))
	}
	var n int64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// restoreDir replaces dst with a copy of snapshot.
func restoreDir(snapshot, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return fmt.Errorf("restoring %s: %w", dst, err)
	}
	return copyDir(snapshot, dst)
}
