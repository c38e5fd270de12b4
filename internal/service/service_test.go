package service

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdpat/internal/attr"
	"hdpat/internal/config"
	"hdpat/internal/metrics"
	"hdpat/internal/sim"
	"hdpat/internal/wafer"
	"hdpat/internal/workload"
)

// fakeRun is a deterministic stand-in simulator: the result depends only on
// (scheme, benchmark, spec seed/budget), like the real engine. Baselines
// run longer than schemes so speedups come out above 1.
func fakeRun(ctx context.Context, spec JobSpec, p Point, reg *metrics.Registry) (wafer.Result, error) {
	if err := ctx.Err(); err != nil {
		return wafer.Result{}, err
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d/%d", p.Scheme, p.Benchmark, spec.Seed, spec.OpsBudget)
	cycles := 2000 + h.Sum64()%1000
	if p.Scheme == "baseline" {
		cycles += 5000
	}
	res := wafer.Result{
		Scheme:    p.Scheme,
		Benchmark: p.Benchmark,
		Cycles:    sim.VTime(cycles),
		TotalOps:  cycles / 10,
		Events:    cycles * 3,
	}
	if spec.Attribution {
		res.Breakdown = &attr.Breakdown{
			Scheme:    p.Scheme,
			Benchmark: p.Benchmark,
			Cycles:    cycles,
			Requests:  cycles / 100,
			Sources:   map[string]uint64{"iommu": cycles / 200, "peer": cycles / 200},
		}
	}
	if reg != nil {
		reg.Counter("fake.runs").Inc()
		reg.Counter("fake.cycles").Add(cycles)
	}
	return res, nil
}

// open starts a service over fakeRun in dir.
func open(t *testing.T, dir string, run RunFunc) *Service {
	t.Helper()
	if run == nil {
		run = fakeRun
	}
	svc, err := Open(Options{Dir: dir, Run: run})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return svc
}

// waitState polls until the job reaches a terminal state.
func waitState(t *testing.T, j *Job, want State) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	since := int64(-1)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		st := j.Wait(ctx, since)
		cancel()
		since = st.Rev
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s settled %s (err %q), want %s", st.ID, st.State, st.Error, want)
		}
	}
	t.Fatalf("job %s never reached %s", j.ID, want)
	return Status{}
}

func sweepSpec() JobSpec {
	return JobSpec{
		Kind:        KindSweep,
		Schemes:     []string{"hdpat", "transfw"},
		Benchmarks:  []string{"FIR", "SPMV", "PR"},
		OpsBudget:   8,
		Seed:        1,
		Attribution: true,
	}
}

func TestSpecValidateAndID(t *testing.T) {
	bad := []JobSpec{
		{},
		{Kind: "nope"},
		{Kind: KindSimulate},
		{Kind: KindCompare, Scheme: "hdpat"},
		{Kind: KindSweep, Schemes: []string{"hdpat"}},
		{Kind: KindSweep, Schemes: []string{"x"}, Benchmarks: []string{"y"}, Scheme: "z"},
		{Kind: KindCompare, Scheme: "hdpat", Benchmark: "FIR", OpsBudget: -1},
		{Kind: KindSimulate, Scheme: "hdpat", Benchmark: "FIR", Routing: "torus"},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("spec %d (%+v) validated", i, spec)
		}
	}
	good := JobSpec{Kind: KindSimulate, Scheme: "hdpat", Benchmark: "FIR", Routing: "deflect"}
	if err := good.Validate(); err != nil {
		t.Errorf("deflect routing spec rejected: %v", err)
	}
	a := sweepSpec()
	b := sweepSpec()
	if a.ID() != b.ID() {
		t.Errorf("identical specs hash differently: %s vs %s", a.ID(), b.ID())
	}
	b.Seed = 2
	if a.ID() == b.ID() {
		t.Errorf("different seeds share ID %s", a.ID())
	}
}

func TestPointsLayout(t *testing.T) {
	pts := sweepSpec().Points()
	// Benchmark-major, baseline leading each group: 3 benchmarks x (1+2).
	if len(pts) != 9 {
		t.Fatalf("got %d points, want 9", len(pts))
	}
	wantScheme := []string{"baseline", "hdpat", "transfw"}
	for i, p := range pts {
		if p.Index != i {
			t.Errorf("point %d has index %d", i, p.Index)
		}
		if p.Scheme != wantScheme[i%3] {
			t.Errorf("point %d scheme %s, want %s", i, p.Scheme, wantScheme[i%3])
		}
	}
	if got := (JobSpec{Kind: KindCompare, Scheme: "hdpat", Benchmark: "FIR"}).Points(); len(got) != 2 ||
		got[0].Scheme != "baseline" || got[1].Scheme != "hdpat" {
		t.Errorf("compare points = %+v", got)
	}
}

func TestStorePutGetDedup(t *testing.T) {
	st, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	d1, existed, err := st.Put([]byte("hello"))
	if err != nil || existed {
		t.Fatalf("first put: digest %s existed %v err %v", d1, existed, err)
	}
	d2, existed, err := st.Put([]byte("hello"))
	if err != nil || !existed || d1 != d2 {
		t.Fatalf("second put: digest %s existed %v err %v", d2, existed, err)
	}
	if st.DedupHits() != 1 || st.Len() != 1 {
		t.Errorf("dedup %d len %d", st.DedupHits(), st.Len())
	}
	data, err := st.Get(d1)
	if err != nil || string(data) != "hello" {
		t.Fatalf("get: %q %v", data, err)
	}
	if _, err := st.Get("../../etc/passwd"); err == nil {
		t.Error("traversal digest accepted")
	}
	if _, err := st.Get("0000000000000000000000000000000000000000000000000000000000000000"); err == nil {
		t.Error("missing digest returned data")
	}
}

func TestStoreIndexRebuild(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenStore(dir, nil)
	d, _, err := st.Put([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	// Reopen without the index file: the object tree is authoritative.
	if err := os.Remove(filepath.Join(dir, "index.json")); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Has(d) {
		t.Errorf("rebuilt index lost %s", d)
	}
}

// An index that names an object whose file is gone must not make Put
// deduplicate against it: the put writes the object again, and Get serves
// it.
func TestStorePutRewritesMissingObject(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := st.Put([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(st.objectPath(d)); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	d2, existed, err := st2.Put([]byte("payload"))
	if err != nil || existed || d2 != d {
		t.Fatalf("put after the object was removed: digest %s existed %v err %v", d2, existed, err)
	}
	data, err := st2.Get(d)
	if err != nil || string(data) != "payload" {
		t.Fatalf("get after the rewrite: %q %v", data, err)
	}
	if _, existed, err := st2.Put([]byte("payload")); err != nil || !existed {
		t.Fatalf("third put: existed %v err %v", existed, err)
	}
}

func TestCompareJobLifecycleAndDedup(t *testing.T) {
	dir := t.TempDir()
	svc := open(t, dir, nil)
	defer svc.Close()

	spec := JobSpec{Kind: KindCompare, Scheme: "hdpat", Benchmark: "FIR", Seed: 3, OpsBudget: 8}
	j, existed, err := svc.Submit(spec)
	if err != nil || existed {
		t.Fatalf("submit: existed %v err %v", existed, err)
	}
	st := waitState(t, j, StateDone)
	if len(st.Artifacts) != 3 { // run-0, run-1, comparisons.json
		t.Fatalf("artifacts = %+v", st.Artifacts)
	}
	if st.Progress.Done != 2 || st.Progress.Executed != 2 || st.Progress.Resumed != 0 {
		t.Errorf("progress = %+v", st.Progress)
	}
	for _, a := range st.Artifacts {
		data, err := svc.Store().Get(a.Digest)
		if err != nil || int64(len(data)) != a.Size {
			t.Errorf("artifact %s: %d bytes err %v, want %d", a.Name, len(data), err, a.Size)
		}
	}

	// Resubmitting the identical spec joins the existing job.
	j2, existed, err := svc.Submit(spec)
	if err != nil || !existed || j2 != j {
		t.Fatalf("resubmit: existed %v err %v", existed, err)
	}
	if svc.Registry().Counter("service.jobs_deduped").Value() != 1 {
		t.Error("dedup counter not bumped")
	}
}

func TestArtifactDedupAcrossJobs(t *testing.T) {
	svc := open(t, t.TempDir(), nil)
	defer svc.Close()

	// A simulate job and a compare job share the (hdpat, FIR) cell at the
	// same budget/seed: the run artifact content is identical, so the store
	// keeps one object.
	simSpec := JobSpec{Kind: KindSimulate, Scheme: "hdpat", Benchmark: "FIR", Seed: 3, OpsBudget: 8}
	cmp := JobSpec{Kind: KindCompare, Scheme: "hdpat", Benchmark: "FIR", Seed: 3, OpsBudget: 8}
	js, _, err := svc.Submit(simSpec)
	if err != nil {
		t.Fatal(err)
	}
	stSim := waitState(t, js, StateDone)
	jc, _, err := svc.Submit(cmp)
	if err != nil {
		t.Fatal(err)
	}
	stCmp := waitState(t, jc, StateDone)

	simDigest := stSim.Artifacts[0].Digest
	var cmpDigest string
	for _, a := range stCmp.Artifacts {
		if a.Name == "run-1-hdpat-FIR.json" {
			cmpDigest = a.Digest
		}
	}
	if simDigest == "" || simDigest != cmpDigest {
		t.Fatalf("identical cells not deduplicated: %s vs %s", simDigest, cmpDigest)
	}
	if svc.Store().DedupHits() == 0 {
		t.Error("store recorded no dedup hits")
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	block := make(chan struct{})
	var started sync.Once
	startedCh := make(chan struct{})
	run := func(ctx context.Context, spec JobSpec, p Point, reg *metrics.Registry) (wafer.Result, error) {
		started.Do(func() { close(startedCh) })
		select {
		case <-block:
		case <-ctx.Done():
			return wafer.Result{}, ctx.Err()
		}
		return fakeRun(ctx, spec, p, reg)
	}
	svc := open(t, t.TempDir(), run)
	defer svc.Close()

	// First job occupies the single dispatcher slot...
	j1, _, err := svc.Submit(JobSpec{Kind: KindSimulate, Scheme: "hdpat", Benchmark: "FIR"})
	if err != nil {
		t.Fatal(err)
	}
	<-startedCh
	// ...so the second stays queued and cancels instantly.
	j2, _, err := svc.Submit(JobSpec{Kind: KindSimulate, Scheme: "hdpat", Benchmark: "PR"})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Cancel(j2.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if st := j2.Status(); st.State != StateCancelled {
		t.Fatalf("queued job state %s after cancel", st.State)
	}

	// Cancelling the running job interrupts its context.
	if err := svc.Cancel(j1.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	st := waitState(t, j1, StateCancelled)
	if st.State != StateCancelled {
		t.Fatalf("running job state %s", st.State)
	}
	// Terminal jobs refuse another cancel.
	if err := svc.Cancel(j1.ID); err == nil {
		t.Error("cancel of terminal job succeeded")
	}
	if err := svc.Cancel("nope"); err != ErrNotFound {
		t.Errorf("cancel unknown = %v", err)
	}
}

func TestRunErrorFailsJob(t *testing.T) {
	run := func(ctx context.Context, spec JobSpec, p Point, reg *metrics.Registry) (wafer.Result, error) {
		if p.Scheme == "hdpat" {
			return wafer.Result{}, fmt.Errorf("boom")
		}
		return fakeRun(ctx, spec, p, reg)
	}
	svc := open(t, t.TempDir(), run)
	defer svc.Close()
	j, _, err := svc.Submit(JobSpec{Kind: KindCompare, Scheme: "hdpat", Benchmark: "FIR"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := j.Status(); st.State.Terminal() {
			if st.State != StateFailed || st.Error == "" {
				t.Fatalf("state %s err %q", st.State, st.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never settled")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestKillAndRestartResumesSweep is the acceptance scenario: a sweep
// interrupted mid-flight (daemon torn down without terminal journal
// entries) and resumed by a fresh service produces artifacts byte-identical
// (same SHA-256 set) to the same sweep run uninterrupted, and the
// already-completed runs are not re-executed.
func TestKillAndRestartResumesSweep(t *testing.T) {
	spec := sweepSpec()
	total := len(spec.Points())
	const allowBeforeKill = 4

	// Control: the sweep uninterrupted, in its own state dir.
	ctrl := open(t, t.TempDir(), nil)
	jc, _, err := ctrl.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitState(t, jc, StateDone)
	ctrl.Close()

	// Interrupted: the run function blocks after allowBeforeKill runs, then
	// the service is torn down (the "kill").
	dir := t.TempDir()
	var executed1 atomic.Int64
	blocked := make(chan struct{})
	var once sync.Once
	gated := func(ctx context.Context, s JobSpec, p Point, reg *metrics.Registry) (wafer.Result, error) {
		if executed1.Add(1) > allowBeforeKill {
			once.Do(func() { close(blocked) })
			<-ctx.Done()
			return wafer.Result{}, ctx.Err()
		}
		return fakeRun(ctx, s, p, reg)
	}
	svc1 := open(t, dir, gated)
	if _, _, err := svc1.Submit(spec); err != nil {
		t.Fatal(err)
	}
	select {
	case <-blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("run function never reached the gate")
	}
	svc1.Close() // kill: no terminal journal entry

	// Restart: a fresh service over the same dir resumes the sweep.
	var executed2 atomic.Int64
	var executedPoints sync.Map
	counting := func(ctx context.Context, s JobSpec, p Point, reg *metrics.Registry) (wafer.Result, error) {
		executed2.Add(1)
		if _, dup := executedPoints.LoadOrStore(p.Index, true); dup {
			t.Errorf("run %d executed twice after restart", p.Index)
		}
		return fakeRun(ctx, s, p, reg)
	}
	svc2 := open(t, dir, counting)
	defer svc2.Close()
	j, ok := svc2.Get(spec.ID())
	if !ok {
		t.Fatal("recovered service lost the job")
	}
	got := waitState(t, j, StateDone)

	// Already-completed runs were restored, not re-executed.
	if n := int(executed2.Load()); n != total-allowBeforeKill {
		t.Errorf("restarted daemon executed %d runs, want %d", n, total-allowBeforeKill)
	}
	if got.Progress.Resumed != allowBeforeKill || got.Progress.Executed != total-allowBeforeKill {
		t.Errorf("resume accounting = %+v", got.Progress)
	}
	if v := svc2.Registry().Counter("service.runs_resumed").Value(); v != allowBeforeKill {
		t.Errorf("runs_resumed = %d", v)
	}

	// Golden-digest equality: same artifact names mapping to the same
	// SHA-256 digests as the uninterrupted control sweep.
	if len(got.Artifacts) != len(want.Artifacts) {
		t.Fatalf("artifact count %d vs control %d", len(got.Artifacts), len(want.Artifacts))
	}
	for i, a := range got.Artifacts {
		w := want.Artifacts[i]
		if a.Name != w.Name || a.Digest != w.Digest {
			t.Errorf("artifact %d: %s %s, control %s %s", i, a.Name, a.Digest, w.Name, w.Digest)
		}
	}
}

// TestRecoverTerminalJobs restarts over a dir holding a finished job: it
// reloads as history, not as queued work.
func TestRecoverTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Kind: KindCompare, Scheme: "hdpat", Benchmark: "FIR", Seed: 9}
	svc1 := open(t, dir, nil)
	j, _, err := svc1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitState(t, j, StateDone)
	svc1.Close()

	var executed atomic.Int64
	svc2 := open(t, dir, func(ctx context.Context, s JobSpec, p Point, reg *metrics.Registry) (wafer.Result, error) {
		executed.Add(1)
		return fakeRun(ctx, s, p, reg)
	})
	defer svc2.Close()
	j2, ok := svc2.Get(spec.ID())
	if !ok {
		t.Fatal("terminal job not recovered")
	}
	st := j2.Status()
	if st.State != StateDone || len(st.Artifacts) != len(want.Artifacts) {
		t.Fatalf("recovered status = %+v", st)
	}
	// Resubmitting the same spec deduplicates against the recovered job.
	j3, existed, err := svc2.Submit(spec)
	if err != nil || !existed || j3 != j2 {
		t.Fatalf("resubmit after restart: existed %v err %v", existed, err)
	}
	time.Sleep(50 * time.Millisecond)
	if executed.Load() != 0 {
		t.Errorf("recovered done job re-executed %d runs", executed.Load())
	}
}

// waferRun simulates each point for real on a 5x5 wafer, so consecutive
// jobs exercise the trace table and recycling stores they share.
func waferRun(ctx context.Context, spec JobSpec, p Point, _ *metrics.Registry) (wafer.Result, error) {
	base := config.Default()
	base.MeshW, base.MeshH = 5, 5
	base.GPM.NumCUs = 8
	base.WorkloadScale = 32
	cfg, err := wafer.ConfigFor(p.Scheme, base)
	if err != nil {
		return wafer.Result{}, err
	}
	b, err := workload.ByAbbr(p.Benchmark)
	if err != nil {
		return wafer.Result{}, err
	}
	opts := wafer.Options{Scheme: p.Scheme, Benchmark: b, OpsBudget: spec.OpsBudget, Seed: spec.Seed}
	if spec.Attribution {
		opts.Attribution = &attr.Config{}
	}
	return wafer.RunContext(ctx, cfg, opts)
}

// Two consecutive jobs running the same sweep serve byte-identical
// artifacts: the second job's runs start on the recycling stores the first
// job's runs filled. The specs differ only in their worker count, so the
// second submission is a new job rather than a dedup hit.
func TestConsecutiveJobsServeIdenticalArtifacts(t *testing.T) {
	svc := open(t, t.TempDir(), waferRun)
	defer svc.Close()
	var arts [2][]Artifact
	for i, workers := range []int{2, 1} {
		spec := sweepSpec()
		spec.Workers = workers
		j, _, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		arts[i] = waitState(t, j, StateDone).Artifacts
	}
	if len(arts[0]) == 0 || len(arts[0]) != len(arts[1]) {
		t.Fatalf("jobs served %d and %d artifacts", len(arts[0]), len(arts[1]))
	}
	for i, a := range arts[0] {
		if b := arts[1][i]; a != b {
			t.Errorf("artifact %d: first job %+v, second %+v", i, a, b)
		}
	}
}
