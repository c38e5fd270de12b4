package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hdpat/internal/config"
	"hdpat/internal/sim"
	"hdpat/internal/wafer"
	"hdpat/internal/workload"
)

// fake builds a task returning a result labelled with its index.
func fake(i int, delay time.Duration) Task {
	return func(ctx context.Context) (wafer.Result, error) {
		if delay > 0 {
			time.Sleep(delay)
		}
		return wafer.Result{Scheme: fmt.Sprintf("task-%d", i), Cycles: 10}, nil
	}
}

func TestRunOrdersResultsBySubmission(t *testing.T) {
	const n = 16
	tasks := make([]Task, n)
	for i := range tasks {
		// Later submissions finish first.
		tasks[i] = fake(i, time.Duration(n-i)*time.Millisecond)
	}
	p := &Pool{Workers: 8}
	outs := p.Run(context.Background(), tasks)
	if len(outs) != n {
		t.Fatalf("got %d outcomes, want %d", len(outs), n)
	}
	for i, o := range outs {
		if o.Index != i || o.Result.Scheme != fmt.Sprintf("task-%d", i) {
			t.Errorf("outs[%d] = index %d scheme %q", i, o.Index, o.Result.Scheme)
		}
		if o.Err != nil {
			t.Errorf("outs[%d] err = %v", i, o.Err)
		}
		if o.Wall <= 0 {
			t.Errorf("outs[%d] wall = %v", i, o.Wall)
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak int64
	tasks := make([]Task, 24)
	for i := range tasks {
		i := i
		tasks[i] = func(ctx context.Context) (wafer.Result, error) {
			cur := atomic.AddInt64(&inFlight, 1)
			for {
				old := atomic.LoadInt64(&peak)
				if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			atomic.AddInt64(&inFlight, -1)
			return fake(i, 0)(ctx)
		}
	}
	(&Pool{Workers: workers}).Run(context.Background(), tasks)
	if p := atomic.LoadInt64(&peak); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	tasks := []Task{
		fake(0, 0),
		func(ctx context.Context) (wafer.Result, error) { panic("boom") },
		fake(2, 0),
	}
	outs := (&Pool{Workers: 2}).Run(context.Background(), tasks)
	if outs[0].Err != nil || outs[2].Err != nil {
		t.Fatalf("healthy tasks failed: %v / %v", outs[0].Err, outs[2].Err)
	}
	var pe *PanicError
	if !errors.As(outs[1].Err, &pe) {
		t.Fatalf("panicking task error = %v, want *PanicError", outs[1].Err)
	}
	if pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = %v (stack %d bytes)", pe.Value, len(pe.Stack))
	}
	if !strings.Contains(pe.Error(), "boom") {
		t.Errorf("Error() = %q", pe.Error())
	}
}

func TestRunCancellationSkipsUnstartedTasks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 8
	tasks := make([]Task, n)
	for i := range tasks {
		i := i
		tasks[i] = func(ctx context.Context) (wafer.Result, error) {
			if i == 0 {
				cancel() // cancel the batch from inside the first task
			}
			return fake(i, 0)(ctx)
		}
	}
	// One worker makes the schedule deterministic: task 0 completes, then
	// every later task is claimed after cancellation.
	outs := (&Pool{Workers: 1}).Run(ctx, tasks)
	if outs[0].Err != nil {
		t.Fatalf("task 0 err = %v", outs[0].Err)
	}
	for i := 1; i < n; i++ {
		if !errors.Is(outs[i].Err, context.Canceled) {
			t.Errorf("outs[%d].Err = %v, want context.Canceled", i, outs[i].Err)
		}
	}
}

func TestProgressSerialisedAndMonotonic(t *testing.T) {
	const n = 12
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = fake(i, time.Duration(i%3)*time.Millisecond)
	}
	var calls []int
	p := &Pool{Workers: 4, Progress: func(done, total int, out Outcome) {
		if total != n {
			t.Errorf("total = %d, want %d", total, n)
		}
		calls = append(calls, done) // safe: Progress calls are serialised
	}}
	p.Run(context.Background(), tasks)
	if len(calls) != n {
		t.Fatalf("progress called %d times, want %d", len(calls), n)
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress done sequence %v", calls)
		}
	}
}

func TestRunEmptyBatch(t *testing.T) {
	outs := (&Pool{}).Run(context.Background(), nil)
	if len(outs) != 0 {
		t.Errorf("got %d outcomes for empty batch", len(outs))
	}
}

func TestSnapshotTracksBatchState(t *testing.T) {
	if s := (&Pool{}).Snapshot(); s != (Snapshot{}) {
		t.Errorf("fresh pool snapshot = %+v, want zero", s)
	}

	const n = 8
	release := make(chan struct{})
	started := make(chan struct{}, n)
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = func(ctx context.Context) (wafer.Result, error) {
			started <- struct{}{}
			<-release
			return wafer.Result{Cycles: 1}, nil
		}
	}
	p := &Pool{Workers: 2}
	done := make(chan []Outcome)
	go func() { done <- p.Run(context.Background(), tasks) }()

	// Wait until both workers hold a task, then observe the mid-flight
	// state: 2 inflight, none settled, the rest queued.
	<-started
	<-started
	mid := p.Snapshot()
	if mid.Total != n || mid.Inflight != 2 || mid.Done != 0 || mid.Queued != n-2 {
		t.Errorf("mid-flight snapshot = %+v", mid)
	}
	close(release)
	<-done
	end := p.Snapshot()
	if end.Total != n || end.Done != n || end.Inflight != 0 || end.Queued != 0 {
		t.Errorf("settled snapshot = %+v", end)
	}

	// Counts are cumulative across Run calls on the same pool.
	p.Run(context.Background(), []Task{fake(0, 0)})
	if s := p.Snapshot(); s.Total != n+1 || s.Done != n+1 {
		t.Errorf("cumulative snapshot = %+v", s)
	}
}

// Two workers share one batch's trace table, each run on a recycling store
// of its own, over two consecutive Run calls: every run, including the
// second batch's runs on stores the first one handed back, matches a serial
// wafer.Run of its cell outside any batch (internal/wafer pins those to
// fresh runs). Each full run follows a build-only run of the same cell,
// stopped at cycle 1, so a store goes from a run cut off with nearly every
// event queued straight into a full run. Run with -race.
func TestPoolRunsMatchFreshAcrossBatches(t *testing.T) {
	base := config.Default()
	base.MeshW, base.MeshH = 5, 5
	base.GPM.NumCUs = 8
	base.WorkloadScale = 32
	type cell struct {
		cfg          config.System
		opts         wafer.Options
		want, errMsg string
	}
	var cells []*cell
	for _, bench := range []string{"PR", "SPMV"} {
		b, err := workload.ByAbbr(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []string{"baseline", "transfw", "hdpat"} {
			cfg, err := wafer.ConfigFor(scheme, base)
			if err != nil {
				t.Fatal(err)
			}
			for _, maxCycles := range []sim.VTime{1, 0} {
				c := &cell{cfg: cfg, opts: wafer.Options{Scheme: scheme, Benchmark: b, OpsBudget: 16, Seed: 3, MaxCycles: maxCycles}}
				res, err := wafer.Run(c.cfg, c.opts)
				if (err != nil) != (maxCycles == 1) {
					t.Fatalf("%s/%s with MaxCycles %d: %v", scheme, bench, maxCycles, err)
				}
				if err != nil {
					c.errMsg = err.Error()
				}
				c.want = digest(t, res)
				cells = append(cells, c)
			}
		}
	}
	tasks := make([]Task, len(cells))
	for i, c := range cells {
		tasks[i] = func(ctx context.Context) (wafer.Result, error) {
			return wafer.RunContext(ctx, c.cfg, c.opts)
		}
	}
	p := &Pool{Workers: 2}
	for batch := range 2 {
		for i, o := range p.Run(context.Background(), tasks) {
			c := cells[i]
			if got := errText(o.Err); got != c.errMsg {
				t.Fatalf("batch %d run %d: error %q, serial %q", batch, i, got, c.errMsg)
			}
			if got := digest(t, o.Result); got != c.want {
				t.Errorf("batch %d run %d (%s/%s, MaxCycles %d): digest %s, serial %s", batch, i,
					c.opts.Scheme, c.opts.Benchmark.Abbr, c.opts.MaxCycles, got, c.want)
			}
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Labeled runs its task under the given pprof labels, and changes nothing
// else.
func TestLabeledTask(t *testing.T) {
	var scheme, job string
	task := Labeled(func(ctx context.Context) (wafer.Result, error) {
		scheme, _ = pprof.Label(ctx, "scheme")
		job, _ = pprof.Label(ctx, "job_id")
		return wafer.Result{Scheme: "s"}, errors.New("e")
	}, "scheme", "hdpat", "job_id", "j1")
	out := (&Pool{Workers: 1}).Run(context.Background(), []Task{task})
	if scheme != "hdpat" || job != "j1" {
		t.Fatalf("task saw labels scheme=%q job_id=%q", scheme, job)
	}
	if out[0].Result.Scheme != "s" || out[0].Err == nil || out[0].Err.Error() != "e" {
		t.Fatalf("labeled task returned %+v", out[0])
	}
}

// digest hashes everything a result carries.
func digest(t *testing.T, res wafer.Result) string {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
