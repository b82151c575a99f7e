package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runEndToEnd is the untraced run: set up, serve the workload from
// omsd, then check every answer.
func runEndToEnd(w workload, seed int64, window time.Duration, bin, dir string) (*report, error) {
	began := time.Now()
	in, err := makeInputs(dir, w, seed)
	if err != nil {
		return nil, err
	}
	generated := time.Now()
	idx := filepath.Join(dir, "index")
	if err := os.MkdirAll(idx, 0o755); err != nil {
		return nil, err
	}
	d, manifest, setup, err := setupDaemon(w, in, bin, idx)
	if err != nil {
		return nil, err
	}
	t := &httpTarget{d: d, bin: bin, manifest: manifest, in: in, tsv: w.bulk, gen: w.firstGen()}
	served := time.Now()
	ph := runPhase(w, in, t, seed, window, true)
	ran := time.Now()
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	h, err := d.health()
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	bytes, err := indexBytes(manifest)
	if err != nil {
		return nil, err
	}
	expected, err := expectedGens(manifest, w, in, ph)
	if err != nil {
		return nil, err
	}
	v := verify(w, in, ph, expected)

	r := newReport()
	r.logf("timeline: inputs %.1fs, set-up %.1fs, reads+publishes %.1fs, checking %.1fs",
		generated.Sub(began).Seconds(), served.Sub(generated).Seconds(), ran.Sub(served).Seconds(), time.Since(ran).Seconds())
	r.tally(v)
	r.logf("workload %s, seed %d: %d requests over %.2fs, %d publishes/compactions, %d failed",
		w.name, seed, len(ph.samples), ph.end.Sub(ph.start).Seconds(), ph.ops, v.failed)
	if err := ph.firstErr(); err != nil {
		r.logf("first error: %v", err)
	}
	lat := latencies(ph.samples)
	r.set("setup_s", setup, "s", "omsbuild until /healthz answers")
	r.set("latency_p50_ms", lat.percentile(50), "ms", fmt.Sprintf("n=%d", lat.N()))
	r.set("latency_p90_ms", lat.percentile(90), "ms", fmt.Sprintf("n=%d, %d beyond", lat.N(), lat.beyond(90)))
	r.logf("%-26s %12.4f %-6s n=%d, %d beyond (printed only, not a named metric)",
		"latency_p99_ms", lat.percentile(99), "ms", lat.N(), lat.beyond(99))
	r.set("throughput_sps", float64(v.spectra)/ph.end.Sub(ph.start).Seconds(), "1/s",
		fmt.Sprintf("%d correctly answered spectra", v.spectra))
	r.set("correct_ratio", float64(v.attempted-v.failed)/float64(v.attempted), "ratio",
		fmt.Sprintf("%d of %d operations correct", v.attempted-v.failed, v.attempted))
	r.set("publish_s", median(ph.publishS), "s", fmt.Sprintf("median of %d publishes %v", len(ph.publishS), ph.publishS))
	r.set("compact_s", median(ph.compactS), "s", fmt.Sprintf("median of %d compactions %v", len(ph.compactS), ph.compactS))
	r.logf("%-26s %12.4f %-6s median SIGHUP-to-served share of the %d above", "reload_s", median(ph.reloadS), "s", len(ph.reloadS))
	r.set("rss_mb", rss, "MiB", "omsd VmHWM")
	refs := healthInt(h, "references")
	r.set("index_bytes_per_ref", float64(bytes)/float64(refs), "B", fmt.Sprintf("%d bytes, %d references", bytes, refs))
	return r, nil
}

// latencies is the distribution of request latencies from due time.
func latencies(samples []sample) dist {
	ms := make([]time.Duration, len(samples))
	for i, s := range samples {
		ms[i] = s.latency()
	}
	return newDist(durationsMS(ms))
}

// runTraced is the per-layer run. It builds the index in-process
// (timing the set-up layers), then runs the workload three times from
// the same starting index, each over half the window: against omsd,
// untraced (the HTTP mean the split must add up to); in-process with
// every layer call timed; and in-process untimed (the tracing
// overhead).
func runTraced(w workload, seed int64, window time.Duration, bin, dir string) (*report, error) {
	window /= 2
	in, err := makeInputs(dir, w, seed)
	if err != nil {
		return nil, err
	}
	idx := filepath.Join(dir, "index")
	snapshot := filepath.Join(dir, "snapshot")
	manifest := filepath.Join(idx, "lib.manifest")
	if err := os.MkdirAll(idx, 0o755); err != nil {
		return nil, err
	}
	bt, err := buildInProcess(w, in, manifest)
	if err != nil {
		return nil, err
	}
	if err := copyDir(idx, snapshot); err != nil {
		return nil, err
	}

	d, err := startDaemon(bin, manifest, w.connections())
	if err != nil {
		return nil, err
	}
	if _, err := d.waitHealth(60*time.Second, func(map[string]any) bool { return true }); err != nil {
		return nil, errors.Join(err, d.stop())
	}
	httpPhase := runPhase(w, in, &httpTarget{d: d, bin: bin, manifest: manifest, in: in, tsv: w.bulk, gen: w.firstGen()},
		seed, window, false)
	if err := d.stop(); err != nil {
		return nil, err
	}
	expected, err := expectedGens(manifest, w, in, httpPhase)
	if err != nil {
		return nil, err
	}

	if err := restoreDir(snapshot, idx); err != nil {
		return nil, err
	}
	tr := newTracer()
	ops := &opTimes{}
	timed, err := newInproc(manifest, in, w.bulk, tr, ops)
	if err != nil {
		return nil, err
	}
	overlay := timed.overlay()
	tracedPhase := runPhase(w, in, timed, seed, window, true)
	timed.close()

	if err := restoreDir(snapshot, idx); err != nil {
		return nil, err
	}
	plain, err := newInproc(manifest, in, w.bulk, nil, &opTimes{})
	if err != nil {
		return nil, err
	}
	plainPhase := runPhase(w, in, plain, seed, window, false)
	plain.close()

	var v verdict
	for _, ph := range []phase{httpPhase, tracedPhase, plainPhase} {
		v.add(verify(w, in, ph, expected))
	}
	r := newReport()
	r.tally(v)
	r.logf("workload %s, seed %d (traced): %d/%d/%d requests (omsd/traced/untimed), %d failed",
		w.name, seed, len(httpPhase.samples), len(tracedPhase.samples), len(plainPhase.samples), v.failed)
	for _, ph := range []phase{httpPhase, tracedPhase, plainPhase} {
		if err := ph.firstErr(); err != nil {
			r.logf("first error: %v", err)
		}
	}

	split := tr.split(tracedPhase.samples)
	httpMean := latencies(httpPhase.samples).mean() * 1e3
	plainMean := latencies(plainPhase.samples).mean() * 1e3
	r.logf("additive split of the mean request latency (us, from due time):")
	r.set("loadgen.wait_us", split.wait, "us", "due until a connection took the request")
	r.set("spectrum.parse_us", split.parse, "us", "spectrum.ReadMGF of the body")
	r.set("core.prepare_us", split.prepare, "us", "blocked in SearchEngine.Prepare, no sweep of its own running")
	r.set("serve.queue_us", split.queue, "us", "serve.Server.Search minus its Prepare and its batches' sweeps")
	r.set("core.sweep_us", split.sweep, "us", "blocked in a SearchPrepared batch holding one of its queries")
	r.set("omsd.unattributed_us", httpMean-split.total, "us", "omsd HTTP mean minus the traced in-process mean")
	r.set("trace.request_us", split.total, "us", fmt.Sprintf("traced in-process mean over %d requests", split.requests))
	r.set("omsd.request_us", httpMean, "us", fmt.Sprintf("untraced omsd mean over %d requests; = sum of the six parts above", len(httpPhase.samples)))
	r.set("trace.overhead_pct", (split.total-plainMean)/plainMean*100, "%",
		fmt.Sprintf("traced vs untimed in-process mean (%.1f us)", plainMean))

	cs := tr.calls()
	r.set("core.prepare_call_us", cs.prepareUS, "us", "mean SearchEngine.Prepare call")
	r.set("core.sweep_batch_us", cs.sweepBatchUS, "us", "mean SearchPrepared call")
	r.set("serve.batch_size", cs.batchSize, "count", "queries per SearchPrepared call")
	r.set("core.rows_per_query", cs.rowsPerQuery, "count", "PreparedQuery Hi-Lo")
	r.set("core.rows_per_us", cs.rowsPerUS, "1/us", "candidate rows per microsecond of sweep")
	r.set("serve.rejected", float64(timed.rejected.Load()), "count", "ErrQueueFull in the traced replay")
	lag := newDist(durationsMS(lags(httpPhase.samples)))
	r.set("loadgen.lag_p90_ms", lag.percentile(90), "ms", fmt.Sprintf("generator lateness against omsd, n=%d", lag.N()))

	r.set("spectrum.read_library_s", bt.read, "s", "ReadSpectraFile of the set-up MGFs")
	r.set("core.build_encode_s", bt.encode, "s", "core.BuildLibrary (churn: + BuildDeltaLibrary)")
	r.set("libindex.save_s", bt.save, "s", "SavePartitioned (churn: + AppendRetract, AppendDelta)")
	r.set("libindex.open_ms", mean(ops.open), "ms", fmt.Sprintf("mean OpenManifest over %d opens", len(ops.open)))
	r.set("core.engine_ms", mean(ops.engine), "ms", fmt.Sprintf("mean NewPartitionedEngine over %d opens", len(ops.engine)))
	r.set("libindex.append_ms", mean(ops.append), "ms", fmt.Sprintf("mean BuildDeltaLibrary+AppendDelta over %d", len(ops.append)))
	r.set("libindex.compact_ms", mean(ops.comp), "ms", fmt.Sprintf("mean Compact over %d", len(ops.comp)))
	r.set("core.hidden_refs", float64(overlay.HiddenRefs), "count", "OverlayStats when reads start")
	r.set("core.delta_partitions", float64(overlay.DeltaPartitions), "count", "OverlayStats when reads start")
	return r, nil
}

// lags collects the generator lateness of every request.
func lags(samples []sample) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, s := range samples {
		out[i] = s.Lag
	}
	return out
}
