package wafer

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"hdpat/internal/vm"
	"hdpat/internal/workload"
)

// Every CU's trace in a set is the generator's own, capacity-limited:
// appending to it reallocates instead of overwriting another CU's trace.
func TestTraceSetIsolatesCUs(t *testing.T) {
	cfg := smallConfig()
	b := mustBench(t, "SPMV")
	numGPMs := cfg.MeshW*cfg.MeshH - 1
	placement := vm.NewPlacement(numGPMs, cfg.PageSize)
	regions := map[string]vm.Region{}
	for _, rs := range b.Regions(cfg.WorkloadScale, numGPMs, cfg.PageSize) {
		regions[rs.Name] = placement.Alloc(rs.Name, rs.Pages, 0)
	}
	wctx := workload.Context{Regions: regions, PageSize: cfg.PageSize, NumGPMs: numGPMs,
		NumCUs: cfg.GPM.NumCUs, OpsBudget: 16, Seed: 5}
	traces := generateTraces(b, wctx)
	k := 0
	b.Traces(wctx, func(_, _ int, want []vm.VAddr) {
		got := traces[k]
		if len(got) != len(want) || cap(got) != len(got) {
			t.Fatalf("CU %d: len %d cap %d, want len and cap %d", k, len(got), cap(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("CU %d differs at %d", k, i)
			}
		}
		k++
	})
	next := append([]vm.VAddr(nil), traces[1]...)
	_ = append(traces[0], 1, 2, 3)
	for i, a := range traces[1] {
		if a != next[i] {
			t.Fatal("an append to CU 0's trace overwrote CU 1's")
		}
	}
}

// A panicking trace generator fails the run that generated the entry (as a
// panic) and every run that waited on the entry or asked for it later (as
// an error); none of them runs an empty trace set.
func TestTraceTablePanickingGenerator(t *testing.T) {
	cfg := smallConfig()
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	b := workload.Custom("BOOM", "panicking generator", 4,
		[]workload.RegionSpec{{Name: "r", Pages: 64}},
		func(ctx workload.Context) []vm.VAddr {
			once.Do(func() { close(started) })
			<-release
			panic("generator failed")
		})
	opts := Options{Scheme: "baseline", Benchmark: b, OpsBudget: 8, Seed: 1}
	ctx := WithTraceTable(context.Background())

	owner := make(chan any, 1)
	go func() {
		defer func() { owner <- recover() }()
		RunContext(ctx, cfg, opts)
	}()
	<-started
	const waiters = 3
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	results := make([]Result, waiters)
	for i := range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = RunContext(ctx, cfg, opts)
		}()
	}
	close(release)
	if v := <-owner; v == nil {
		t.Fatal("the generating run did not panic")
	}
	wg.Wait()
	late, lateErr := RunContext(ctx, cfg, opts)
	results = append(results, late)
	errs = append(errs, lateErr)
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "BOOM traces panicked: generator failed") {
			t.Errorf("run %d: err %v, want the generator's panic", i, err)
		}
		if results[i].Cycles != 0 || results[i].TotalOps != 0 {
			t.Errorf("run %d returned a result: %d cycles, %d ops", i, results[i].Cycles, results[i].TotalOps)
		}
	}
}

// Two trace replays sharing an abbreviation but not their records, run in
// one batch, each replay their own traces.
func TestTraceTableKeepsReplaysApart(t *testing.T) {
	cfg, err := ConfigFor("hdpat", smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	pr := mustBench(t, "PR")
	numGPMs := cfg.MeshW*cfg.MeshH - 1
	regions := pr.Regions(cfg.WorkloadScale, numGPMs, cfg.PageSize)
	var cells []Options
	for _, seed := range []int64{1, 2} {
		var buf bytes.Buffer
		if err := workload.WriteTrace(&buf, pr, cfg.WorkloadScale, numGPMs, cfg.GPM.NumCUs, 16, cfg.PageSize, seed); err != nil {
			t.Fatal(err)
		}
		replay, err := workload.ReadTrace(&buf, "REPLAY", pr.Gap, regions)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, Options{Scheme: "hdpat", Benchmark: replay, OpsBudget: 16, Seed: 3})
	}
	fresh := make([]string, len(cells))
	for i, opts := range cells {
		res, err := Run(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = digestOf(res)
	}
	if fresh[0] == fresh[1] {
		t.Fatal("the two replays ran identically; give them different records")
	}
	ctx := WithTraceTable(context.Background())
	for i, opts := range cells {
		res, err := RunContext(ctx, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := digestOf(res); got != fresh[i] {
			t.Errorf("replay %d in a shared batch: digest %s, fresh %s", i, got, fresh[i])
		}
	}
}

// A store handed back by one batch serves the next with the hierarchies
// it holds: a run always takes the store the previous run handed back.
func TestRecyclingOutlivesBatch(t *testing.T) {
	holdStores(t)
	cfg, err := ConfigFor("hdpat", smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Scheme: "hdpat", Benchmark: mustBench(t, "FIR"), OpsBudget: 8, Seed: 1}
	if _, err := RunContext(WithTraceTable(context.Background()), cfg, opts); err != nil {
		t.Fatal(err)
	}
	warm := topStore()
	if warm == nil || warm.spares.Len() == 0 {
		t.Fatal("the first batch's run handed back no warm store")
	}
	if _, err := RunContext(WithTraceTable(context.Background()), cfg, opts); err != nil {
		t.Fatal(err)
	}
	if topStore() != warm {
		t.Error("the next batch's run did not take the store the first one warmed")
	}
}
