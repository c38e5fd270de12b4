package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hdpat"
	"hdpat/internal/metrics"
	"hdpat/internal/service"
)

// daemonOps keeps the daemon's runs small, so the journal, store, artifact
// assembly and HTTP carry a real share of the time.
const daemonOps = 16

// daemonWorkload serves the hdpatd service core (service.Open behind its
// Handler) on a loopback listener to one client. The client submits a
// sweep with attribution on, long-polls its progress and GETs every
// artifact, then submits a second sweep that repeats two cells of the
// first. Each iteration starts from an empty state directory.
type daemonWorkload struct {
	// expect maps "sweep<N>/<artifact>" to the SHA-256 of the bytes
	// service.Materialize assembles for the same spec at the run's seed.
	expect map[string]string
	// populated is a state directory holding finished jobs, which the
	// set-up pass reopens.
	populated string
	daemons   int
}

func (d *daemonWorkload) workers(b *bench) int { return b.workers }
func (d *daemonWorkload) connections() int     { return 1 }
func (d *daemonWorkload) exactHops() bool      { return true }

// specs returns the two sweeps: the second repeats baseline/FIR and
// hdpat/FIR from the first.
func (d *daemonWorkload) specs(seed int64, workers int) []service.JobSpec {
	first := service.JobSpec{Kind: service.KindSweep, Schemes: []string{"hdpat"},
		Benchmarks: []string{"FIR", "SPMV"}, OpsBudget: daemonOps, Seed: seed,
		Workers: workers, Attribution: true}
	second := first
	second.Benchmarks = []string{"FIR", "PR"}
	return []service.JobSpec{first, second}
}

// daemonRun is the service's run seam, built on the public API the way
// cmd/hdpatd builds it for the Table I wafer.
func daemonRun(ctx context.Context, spec service.JobSpec, p service.Point, reg *metrics.Registry) (hdpat.Result, error) {
	opts := []hdpat.Option{hdpat.WithSeed(spec.Seed), hdpat.WithOpsBudget(spec.OpsBudget)}
	if spec.Attribution {
		opts = append(opts, hdpat.WithAttribution())
	}
	if reg != nil {
		opts = append(opts, hdpat.WithMetrics(reg))
	}
	return hdpat.SimulateContext(ctx, hdpat.DefaultConfig(),
		hdpat.RunSpec{Scheme: p.Scheme, Benchmark: p.Benchmark}, opts...)
}

// materialize hashes the artifacts service.Materialize assembles for the
// sweeps at seed, keyed "sweep<N>/<artifact>".
func (d *daemonWorkload) materialize(seed int64, workers int) (map[string]string, error) {
	out := map[string]string{}
	for i, spec := range d.specs(seed, workers) {
		blobs, err := service.Materialize(context.Background(), spec, daemonRun)
		if err != nil {
			return nil, err
		}
		for _, blob := range blobs {
			sum := sha256.Sum256(blob.Data)
			out[fmt.Sprintf("sweep%d/%s", i+1, blob.Name)] = hex.EncodeToString(sum[:])
		}
	}
	return out, nil
}

func (d *daemonWorkload) prepare(b *bench) error {
	b.attempted++
	got, err := d.materialize(recordedSeed, b.workers)
	if err != nil {
		b.fail("daemon-sweep materialize at seed %d: %v", recordedSeed, err)
		got = map[string]string{}
	}
	if err := b.checkReference("daemon-sweep", got); err != nil || b.update {
		return err
	}
	d.expect = got
	if b.seed != recordedSeed {
		if d.expect, err = d.materialize(b.seed, b.workers); err != nil {
			return fmt.Errorf("materialize at seed %d: %w", b.seed, err)
		}
	}
	// One untimed daemon run warms the process and leaves the populated state
	// directory the set-up pass reopens.
	it := &iteration{}
	dir, err := d.runDaemon(b, it)
	if err != nil {
		return err
	}
	b.checkIteration(d, it)
	d.populated = dir
	return nil
}

func (d *daemonWorkload) setup(b *bench) (setupStats, error) {
	start := time.Now()
	svc, err := service.Open(service.Options{Dir: d.populated, Run: daemonRun, RunWorkers: b.workers})
	if err != nil {
		return setupStats{}, err
	}
	defer svc.Close()
	base, stop, err := serveLoopback(svc.Handler())
	if err != nil {
		return setupStats{}, err
	}
	defer stop()
	c := newClient(base)
	defer c.close()
	for {
		_, code, err := c.do("GET", "/readyz", nil)
		if err != nil {
			return setupStats{}, err
		}
		if code == http.StatusOK {
			return setupStats{wall: time.Since(start)}, nil
		}
		if time.Since(start) > 30*time.Second {
			return setupStats{}, fmt.Errorf("daemon not ready after 30s (status %d)", code)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemonWorkload) iterate(b *bench, it *iteration) error {
	dir, err := d.runDaemon(b, it)
	if err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

// runDaemon opens a daemon on a fresh state directory, runs the client's two
// sweeps inside the measured interval, and returns the directory.
func (d *daemonWorkload) runDaemon(b *bench, it *iteration) (string, error) {
	d.daemons++
	dir := filepath.Join(b.work, fmt.Sprintf("state-%d", d.daemons))
	svc, err := service.Open(service.Options{Dir: dir, Run: daemonRun, RunWorkers: b.workers})
	if err != nil {
		return "", err
	}
	defer svc.Close()
	base, stop, err := serveLoopback(svc.Handler())
	if err != nil {
		return "", err
	}
	defer stop()
	c := newClient(base)
	defer c.close()

	it.workers = b.workers
	var done []service.Status
	it.begin()
	for i, spec := range d.specs(b.seed, b.workers) {
		st, err := d.sweep(c, i+1, spec, it)
		if err != nil {
			return "", err
		}
		done = append(done, st)
	}
	it.end()

	// Per-run wall times come from the job timelines' run spans, read after
	// the measured interval.
	for _, st := range done {
		it.executed += st.Progress.Executed
		data, code, err := c.do("GET", "/v1/jobs/"+st.ID+"/timeline", nil)
		if err != nil || code != http.StatusOK {
			return "", fmt.Errorf("timeline of %s: status %d, %v", st.ID, code, err)
		}
		spans, err := runSpans(data)
		if err != nil {
			return "", err
		}
		it.runWalls = append(it.runWalls, spans...)
	}
	return dir, nil
}

// sweep submits one job, long-polls it to a terminal state and fetches
// every artifact, checking each against its digest and against
// Materialize's bytes.
func (d *daemonWorkload) sweep(c *client, n int, spec service.JobSpec, it *iteration) (service.Status, error) {
	var st service.Status
	body, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	t := time.Now()
	data, code, err := c.do("POST", "/v1/jobs", body)
	it.submitMs = append(it.submitMs, msSince(t))
	if err != nil || (code != http.StatusCreated && code != http.StatusOK) {
		return st, fmt.Errorf("submit sweep %d: status %d, %v: %s", n, code, err, data)
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, err
	}
	for !st.State.Terminal() {
		path := fmt.Sprintf("/v1/jobs/%s/progress?since=%d&timeout=30s", st.ID, st.Rev)
		data, code, err := c.do("GET", path, nil)
		if err != nil || code != http.StatusOK {
			return st, fmt.Errorf("progress of sweep %d: status %d, %v", n, code, err)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return st, err
		}
	}
	if st.State != service.StateDone {
		it.runErrs = append(it.runErrs, fmt.Errorf("sweep %d ended %s: %s", n, st.State, st.Error))
		return st, nil
	}
	prefix := fmt.Sprintf("sweep%d/", n)
	want := 0
	for k := range d.expect {
		if strings.HasPrefix(k, prefix) {
			want++
		}
	}
	it.checks++
	if len(st.Artifacts) != want {
		it.checkErrs = append(it.checkErrs, fmt.Sprintf("sweep %d served %d artifacts, Materialize assembles %d", n, len(st.Artifacts), want))
	}
	for _, a := range st.Artifacts {
		t := time.Now()
		data, code, err := c.do("GET", "/v1/artifacts/"+a.Digest, nil)
		it.artifactMs = append(it.artifactMs, msSince(t))
		if err != nil || code != http.StatusOK {
			return st, fmt.Errorf("artifact %s: status %d, %v", a.Name, code, err)
		}
		it.checks++
		sum := sha256.Sum256(data)
		got := hex.EncodeToString(sum[:])
		switch {
		case got != a.Digest:
			it.checkErrs = append(it.checkErrs, fmt.Sprintf("sweep %d %s hashes to %.12s, served as %.12s", n, a.Name, got, a.Digest))
		case got != d.expect[prefix+a.Name]:
			it.checkErrs = append(it.checkErrs, fmt.Sprintf("sweep %d %s differs from Materialize", n, a.Name))
		}
		if strings.HasPrefix(a.Name, "run-") {
			var res hdpat.Result
			if err := json.Unmarshal(data, &res); err != nil {
				it.checkErrs = append(it.checkErrs, fmt.Sprintf("sweep %d %s: %v", n, a.Name, err))
				continue
			}
			it.results = append(it.results, res)
		}
	}
	return st, nil
}

// runSpans extracts the per-run wall times from a job's Chrome-format
// timeline: the complete events on the "runs" track.
func runSpans(data []byte) ([]time.Duration, error) {
	var events []struct {
		Ph  string `json:"ph"`
		Cat string `json:"cat"`
		Dur int64  `json:"dur"`
	}
	if err := json.Unmarshal(data, &events); err != nil {
		return nil, fmt.Errorf("parse timeline: %w", err)
	}
	var out []time.Duration
	for _, e := range events {
		if e.Ph == "X" && e.Cat == "runs" {
			out = append(out, time.Duration(e.Dur)*time.Microsecond)
		}
	}
	return out, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// serveLoopback serves h on an ephemeral loopback port; stop closes the
// server and waits for its goroutine.
func serveLoopback(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed once stop runs
	}()
	return "http://" + ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

// client is the benchmark's single HTTP connection.
type client struct {
	base string
	tr   *http.Transport
	http *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, tr: tr, http: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole response body.
func (c *client) do(method, path string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}
