// Command omsbench is the repository's end-to-end benchmark. It builds
// an index with omsbuild from a dataset generated from the workload
// seed, starts the real omsd on a loopback port, drives one of three
// workloads against it from a single load-generator process, checks
// every answer against core's single-query path, and prints the
// end-to-end metrics. With -trace 1 it instead replays the same
// workload in-process through the public entry points of spectrum,
// core, serve and libindex, and prints the per-layer split of the
// request latency. See README.md for the workloads and the metrics.
//
//	omsbench -bin DIR -work DIR -workload interactive|bulk|churn \
//	         -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics. The exit code is non-zero when
// any answer was wrong or any operation failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// runDeadline bounds a whole run: past it the benchmark stops its
// processes and fails rather than overrunning its caller's limit.
const runDeadline = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload: interactive, bulk or churn")
	seed := flag.Int64("seed", 1, "workload seed: generates the dataset, the split and the arrival schedule")
	seconds := flag.Int("seconds", 8, "read window, in seconds (a traced run measures three phases of half the window)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics against omsd; 1: per-layer metrics from the in-process replay")
	bin := flag.String("bin", "", "directory holding the built omsd, omsbuild and omscompact (required)")
	work := flag.String("work", "", "directory for generated inputs and indexes (required)")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fatal(fmt.Errorf("unknown workload %q", *name))
	case *bin == "" || *work == "":
		fatal(fmt.Errorf("-bin and -work are required"))
	case *seconds < 1:
		fatal(fmt.Errorf("-seconds must be at least 1"))
	case *trace != 0 && *trace != 1:
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}

	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	workDir = dir
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		select {
		case s := <-sig:
			fatal(fmt.Errorf("interrupted by %v", s))
		case <-time.After(runDeadline):
			fatal(fmt.Errorf("run exceeded %v", runDeadline))
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	window := time.Duration(*seconds) * time.Second
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTraced(*w, *seed, window, *bin, dir)
	} else {
		rep, err = runEndToEnd(*w, *seed, window, *bin, dir)
	}
	if err != nil {
		fatal(err)
	}
	stopChildren()
	if err := os.RemoveAll(dir); err != nil {
		fatal(err)
	}
	for _, line := range rep.lines {
		fmt.Println(line)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's result line plus human-readable detail.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	lines     []string
}

func newReport() *report { return &report{Metrics: map[string]metric{}} }

// set records a metric and its detail line.
func (r *report) set(name string, value float64, unit, detail string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
	r.logf("%-26s %12.4f %-6s %s", name, value, unit, detail)
}

func (r *report) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// tally fills the correctness fields from a verdict.
func (r *report) tally(v verdict) {
	r.Attempted, r.Failed = v.attempted, v.failed
	r.Correct = v.failed == 0
}

// Process bookkeeping: every omsd and tool the benchmark starts is
// stopped, and waited for, before it exits — on success, on error and
// on a signal or deadline.
var (
	childMu           sync.Mutex
	daemons           = map[*daemon]bool{}
	toolsCtx, stopAll = context.WithCancel(context.Background())
	tools             sync.WaitGroup
	workDir           string
	fatalMu           sync.Mutex
)

func track(d *daemon) {
	childMu.Lock()
	daemons[d] = true
	childMu.Unlock()
}

func untrack(d *daemon) {
	childMu.Lock()
	delete(daemons, d)
	childMu.Unlock()
}

// stopChildren kills every running tool and stops every daemon,
// waiting for each to exit.
func stopChildren() {
	stopAll()
	childMu.Lock()
	ds := make([]*daemon, 0, len(daemons))
	for d := range daemons {
		ds = append(ds, d)
	}
	childMu.Unlock()
	for _, d := range ds {
		_ = d.stop() // already failing or finished; exit status is moot
	}
	tools.Wait()
}

// fatal stops every child process, removes the run's files, reports
// the error and exits non-zero without a result line.
func fatal(err error) {
	fatalMu.Lock() // one exit path, even when a signal races an error
	stopChildren()
	if workDir != "" {
		_ = os.RemoveAll(workDir) // best effort; the error below is what matters
	}
	fmt.Fprintf(os.Stderr, "omsbench: %v\n", err)
	os.Exit(1)
}
