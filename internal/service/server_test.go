package service

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"hdpat/internal/metrics"
	"hdpat/internal/wafer"
)

// serveTest mounts a service over fakeRun behind httptest.
func serveTest(t *testing.T, run RunFunc) (*Service, *httptest.Server) {
	t.Helper()
	svc := open(t, t.TempDir(), run)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { srv.Close(); svc.Close() })
	return svc, srv
}

func postJob(t *testing.T, srv *httptest.Server, spec JobSpec) (Status, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode status: %v", err)
		}
	}
	return st, resp.StatusCode
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// pollDone long-polls /progress until the job is terminal, carrying the
// revision cursor forward like a real client.
func pollDone(t *testing.T, srv *httptest.Server, id string) Status {
	t.Helper()
	since := int64(-1)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st Status
		url := fmt.Sprintf("%s/v1/jobs/%s/progress?since=%d&timeout=1s", srv.URL, id, since)
		if code := getJSON(t, url, &st); code != http.StatusOK {
			t.Fatalf("progress returned %d", code)
		}
		if st.State.Terminal() {
			return st
		}
		since = st.Rev
	}
	t.Fatal("job never settled")
	return Status{}
}

func TestHTTPSubmitPollFetchArtifact(t *testing.T) {
	_, srv := serveTest(t, nil)
	spec := JobSpec{Kind: KindCompare, Scheme: "hdpat", Benchmark: "FIR", Seed: 1, OpsBudget: 8}

	st, code := postJob(t, srv, spec)
	if code != http.StatusCreated {
		t.Fatalf("first submit = %d", code)
	}
	if st.ID != spec.ID() || st.State.Terminal() && st.State != StateDone {
		t.Fatalf("submit status = %+v", st)
	}
	// Identical resubmission joins the job with 200.
	if _, code := postJob(t, srv, spec); code != http.StatusOK {
		t.Fatalf("resubmit = %d", code)
	}

	final := pollDone(t, srv, st.ID)
	if final.State != StateDone || len(final.Artifacts) != 3 {
		t.Fatalf("final = %+v", final)
	}

	// Fetch each artifact and verify its content hashes to its address.
	for _, a := range final.Artifacts {
		resp, err := http.Get(srv.URL + "/v1/artifacts/" + a.Digest)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("artifact %s: %d", a.Name, resp.StatusCode)
		}
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:]) != a.Digest {
			t.Errorf("artifact %s content does not match digest", a.Name)
		}
	}

	// The artifact index lists every stored digest.
	var idx map[string]ArtifactInfo
	if code := getJSON(t, srv.URL+"/v1/artifacts", &idx); code != http.StatusOK {
		t.Fatalf("index = %d", code)
	}
	for _, a := range final.Artifacts {
		if _, ok := idx[a.Digest]; !ok {
			t.Errorf("index missing %s", a.Digest)
		}
	}

	// Job listing includes the job.
	var list []Status
	if code := getJSON(t, srv.URL+"/v1/jobs", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("list = %d (%d jobs)", code, len(list))
	}
}

// A stored object whose bytes were flipped on disk must never be served
// under its digest: Get fails with ErrCorruptObject and the artifact
// endpoint answers an error status instead of 200.
func TestCorruptArtifactNotServed(t *testing.T) {
	svc, srv := serveTest(t, nil)
	digest, _, err := svc.store.Put([]byte("artifact payload"))
	if err != nil {
		t.Fatal(err)
	}
	path := svc.store.objectPath(digest)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := svc.store.Get(digest); !errors.Is(err, ErrCorruptObject) {
		t.Errorf("Get of corrupted object = %q, %v; want ErrCorruptObject", got, err)
	}
	resp, err := http.Get(srv.URL + "/v1/artifacts/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Errorf("GET corrupted artifact = 200, want an error status")
	}
}

func TestHTTPSSEProgress(t *testing.T) {
	// Gate each run so the stream observes at least one non-terminal event.
	release := make(chan struct{})
	run := func(ctx context.Context, spec JobSpec, p Point, reg *metrics.Registry) (wafer.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return wafer.Result{}, ctx.Err()
		}
		return fakeRun(ctx, spec, p, reg)
	}
	_, srv := serveTest(t, run)
	st, _ := postJob(t, srv, JobSpec{Kind: KindSimulate, Scheme: "hdpat", Benchmark: "FIR"})

	req, _ := http.NewRequest("GET", srv.URL+"/v1/jobs/"+st.ID+"/progress", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	close(release)

	// Read events until the terminal one arrives; each data line must be a
	// parseable Status with a non-decreasing revision.
	sc := bufio.NewScanner(resp.Body)
	var lastRev int64 = -1
	var events int
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Status
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE data %q: %v", line, err)
		}
		events++
		if ev.Rev < lastRev {
			t.Fatalf("revision went backwards: %d after %d", ev.Rev, lastRev)
		}
		lastRev = ev.Rev
		if ev.State.Terminal() {
			if ev.State != StateDone {
				t.Fatalf("terminal state %s (%s)", ev.State, ev.Error)
			}
			return // stream ends after the terminal event
		}
	}
	t.Fatalf("stream ended after %d events without a terminal status", events)
}

func TestHTTPCancel(t *testing.T) {
	block := make(chan struct{})
	run := func(ctx context.Context, spec JobSpec, p Point, reg *metrics.Registry) (wafer.Result, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return wafer.Result{}, ctx.Err()
	}
	_, srv := serveTest(t, run)
	st, _ := postJob(t, srv, JobSpec{Kind: KindSimulate, Scheme: "hdpat", Benchmark: "FIR"})

	req, _ := http.NewRequest("DELETE", srv.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d", resp.StatusCode)
	}
	final := pollDone(t, srv, st.ID)
	if final.State != StateCancelled {
		t.Fatalf("state %s after cancel", final.State)
	}
	// Cancelling a terminal job conflicts.
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel = %d", resp.StatusCode)
	}
}

func TestHTTPJobMetricsAndAggregate(t *testing.T) {
	svc, srv := serveTest(t, nil)
	spec := JobSpec{Kind: KindCompare, Scheme: "hdpat", Benchmark: "FIR", Metrics: true}
	st, _ := postJob(t, srv, spec)
	pollDone(t, srv, st.ID)

	// Per-job exposition carries the fake simulator's series and the job
	// pool's runner series.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"fake_runs", "runner_runs"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("job metrics missing %s:\n%s", want, text)
		}
	}
	var snap metrics.Snapshot
	if code := getJSON(t, srv.URL+"/v1/jobs/"+st.ID+"/metrics.json", &snap); code != http.StatusOK {
		t.Fatalf("metrics.json = %d", code)
	}
	if snap.Counters["fake.runs"] != 2 {
		t.Errorf("fake.runs = %d, want 2", snap.Counters["fake.runs"])
	}

	// The aggregate view folds service counters and every job registry.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"service_jobs_accepted", "service_runs_executed", "fake_runs", "store_objects"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("aggregate missing %s", want)
		}
	}
	agg := svc.AggregateSnapshot()
	if agg.Counters["service.jobs_done"] != 1 || agg.Counters["fake.runs"] != 2 {
		t.Errorf("aggregate snapshot = %+v", agg.Counters)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, srv := serveTest(t, nil)
	// Malformed and invalid specs.
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed spec = %d", resp.StatusCode)
	}
	if _, code := postJob(t, srv, JobSpec{Kind: "nope"}); code != http.StatusBadRequest {
		t.Errorf("invalid kind = %d", code)
	}
	if _, code := postJob(t, srv, JobSpec{}); code != http.StatusBadRequest {
		t.Errorf("empty spec = %d", code)
	}
	// Unknown resources.
	if code := getJSON(t, srv.URL+"/v1/jobs/doesnotexist", nil); code != http.StatusNotFound {
		t.Errorf("unknown job = %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/artifacts/zzzz", nil); code != http.StatusNotFound {
		t.Errorf("bad digest = %d", code)
	}
	if code := getJSON(t, srv.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz = %d", code)
	}
	// Bad progress parameters.
	if code := getJSON(t, srv.URL+"/v1/jobs/doesnotexist/progress", nil); code != http.StatusNotFound {
		t.Errorf("progress of unknown job = %d", code)
	}
}

// Hostile mesh geometry in a submitted spec must come back as HTTP 400 —
// never reach a run where it would panic inside mesh construction. Covers
// both the JobSpec.Validate bounds and the Options.CheckSpec seam cmd/hdpatd
// wires to the full config validation.
func TestHostileMeshSpecRejected(t *testing.T) {
	checked := 0
	svc, err := Open(Options{
		Dir: t.TempDir(),
		Run: fakeRun,
		CheckSpec: func(spec JobSpec) error {
			checked++
			if spec.Benchmark == "vetoed" {
				return fmt.Errorf("daemon config rejects this spec")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer func() { srv.Close(); svc.Close() }()

	base := JobSpec{Kind: KindSimulate, Scheme: "hdpat", Benchmark: "FIR", OpsBudget: 4}
	hostile := []func(*JobSpec){
		func(s *JobSpec) { s.MeshW = 0; s.MeshH = 30 },            // one-sided override
		func(s *JobSpec) { s.MeshW = -4; s.MeshH = -4 },           // negative
		func(s *JobSpec) { s.MeshW = 2; s.MeshH = 2 },             // below minimum
		func(s *JobSpec) { s.MeshW = 1 << 20; s.MeshH = 1 << 20 }, // would overflow W*H
		func(s *JobSpec) { s.MeshW = 1024; s.MeshH = 1024 },       // over the tile cap
		func(s *JobSpec) { s.Routing = "torus" },                  // unknown routing policy
	}
	for i, mutate := range hostile {
		spec := base
		mutate(&spec)
		if _, code := postJob(t, srv, spec); code != http.StatusBadRequest {
			t.Errorf("hostile spec %d accepted with %d, want 400", i, code)
		}
	}
	// The CheckSpec veto also surfaces as a client error.
	spec := base
	spec.Benchmark = "vetoed"
	if _, code := postJob(t, srv, spec); code != http.StatusBadRequest {
		t.Errorf("CheckSpec veto = %d, want 400", code)
	}
	if checked == 0 {
		t.Error("CheckSpec never invoked")
	}
	// A sane 30x30 override passes validation and runs.
	spec = base
	spec.MeshW, spec.MeshH = 30, 30
	st, code := postJob(t, srv, spec)
	if code != http.StatusCreated {
		t.Fatalf("valid 30x30 spec = %d, want 201", code)
	}
	if got := pollDone(t, srv, st.ID); got.State != StateDone {
		t.Fatalf("30x30 job state %s: %s", got.State, got.Error)
	}
}

// Mesh override fields are omitempty: specs that never set them keep their
// pre-existing canonical encoding, so job IDs from earlier daemon versions
// still deduplicate against the same spec submitted today.
func TestMeshFieldsOmittedFromCanonicalSpec(t *testing.T) {
	spec := JobSpec{Kind: KindSimulate, Scheme: "hdpat", Benchmark: "FIR"}
	data, _ := json.Marshal(spec)
	if strings.Contains(string(data), "mesh") {
		t.Fatalf("unset mesh fields leak into canonical encoding: %s", data)
	}
}
