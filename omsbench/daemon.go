package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running omsd process on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	// reads carries the workload's searches on at most conns
	// connections; control carries /healthz polls on one more, so a
	// poll never queues a read behind it.
	reads, control *http.Client
	exited         chan struct{}

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

// startDaemon starts omsd with its default serving flags on an
// ephemeral loopback port and returns once it listens.
func startDaemon(bin, index string, conns int) (*daemon, error) {
	cmd := exec.Command(filepath.Join(bin, "omsd"), "-index", index, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	track(d)
	listening := make(chan string, 1)
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if addr, ok := strings.CutPrefix(line, "omsd: listening on "); ok {
				listening <- addr
			}
			d.mu.Lock()
			d.tail = append(d.tail, line)
			if len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
		}
	}()
	go func() {
		<-scanned // Wait must not run before the pipe is drained
		_ = cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-listening:
	case <-d.exited:
		untrack(d)
		return nil, fmt.Errorf("omsd exited during start-up: %s", d.log())
	case <-time.After(60 * time.Second):
		_ = d.stop()
		return nil, fmt.Errorf("omsd did not listen within 60s: %s", d.log())
	}
	d.reads, d.control = newClient(conns), newClient(1)
	return d, nil
}

// newClient is an HTTP client capped at conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// log returns the daemon's recent stderr lines.
func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// url is the address of an endpoint.
func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// health fetches /healthz.
func (d *daemon) health() (map[string]any, error) {
	resp, err := d.control.Get(d.url("/healthz"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	return h, nil
}

// healthInt reads an integer /healthz field (-1 when absent).
func healthInt(h map[string]any, key string) int {
	v, ok := h[key].(float64)
	if !ok {
		return -1
	}
	return int(v)
}

// waitHealth polls /healthz until cond holds, returning the matching
// response.
func (d *daemon) waitHealth(timeout time.Duration, cond func(map[string]any) bool) (map[string]any, error) {
	deadline := time.Now().Add(timeout)
	for {
		h, err := d.health()
		if err == nil && cond(h) {
			return h, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("omsd exited: %s", d.log())
		default:
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("omsd: condition not reached within %v (last: %v, %v): %s", timeout, h, err, d.log())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// reload sends SIGHUP.
func (d *daemon) reload() error { return d.cmd.Process.Signal(syscall.SIGHUP) }

// peakRSSMB reads the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop shuts omsd down (SIGTERM, then SIGKILL after its drain grace)
// and waits until the process has exited.
func (d *daemon) stop() error {
	defer untrack(d)
	if d.reads != nil {
		d.reads.CloseIdleConnections()
		d.control.CloseIdleConnections()
	}
	select {
	case <-d.exited:
		return nil
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		return nil
	case <-time.After(15 * time.Second):
	}
	_ = d.cmd.Process.Kill()
	<-d.exited
	return errors.New("omsd ignored SIGTERM; killed")
}

// search posts one MGF body to /search and parses the response.
func (d *daemon) search(body []byte, tsv bool) ([]result, error) {
	url := d.url("/search")
	if tsv {
		url += "?format=tsv"
	}
	resp, err := d.reads.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("search: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	if tsv {
		return parseTSV(data)
	}
	return parseJSON(data)
}

// parseJSON decodes omsd's JSON search response.
func parseJSON(data []byte) ([]result, error) {
	var resp struct {
		Results []struct {
			Matched   bool    `json:"matched"`
			Peptide   string  `json:"peptide"`
			Score     float64 `json:"score"`
			MassShift float64 `json:"mass_shift"`
			Error     string  `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("search response: %w", err)
	}
	out := make([]result, len(resp.Results))
	for i, r := range resp.Results {
		if r.Error != "" {
			return nil, fmt.Errorf("search result %d: %s", i, r.Error)
		}
		out[i] = exactResult(r.Matched, r.Peptide, r.Score, r.MassShift)
	}
	return out, nil
}

// parseTSV decodes omsd's TSV search response (header, then
// query_id, matched, peptide, score, mass_shift per query).
func parseTSV(data []byte) ([]result, error) {
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "query_id\t") {
		return nil, errors.New("search response: missing TSV header")
	}
	out := make([]result, 0, len(lines)-1)
	for _, line := range lines[1:] {
		f := strings.Split(line, "\t")
		if len(f) != 5 {
			return nil, fmt.Errorf("search response: TSV line %q", line)
		}
		out = append(out, result{Matched: f[1] == "true", Peptide: f[2], Score: f[3], Shift: f[4]})
	}
	return out, nil
}

// runTool runs one of the repository's command-line tools to
// completion.
func runTool(bin, tool string, args ...string) error {
	tools.Add(1)
	defer tools.Done()
	cmd := exec.CommandContext(toolsCtx, filepath.Join(bin, tool), args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %w: %s", tool, strings.Join(args, " "), err, bytes.TrimSpace(out.Bytes()))
	}
	return nil
}
