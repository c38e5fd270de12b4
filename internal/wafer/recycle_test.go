package wafer

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"hdpat/internal/attr"
	"hdpat/internal/config"
	"hdpat/internal/metrics"
	"hdpat/internal/migrate"
	"hdpat/internal/noc"
)

// recycleCell is one run of the recycling differential: a configuration,
// its options, and what the fresh run of it produced.
type recycleCell struct {
	name string
	cfg  config.System
	opts Options
	// fresh is the digest of the run on a context without a store; errMsg
	// its error text (cycle-limited cells fail by design).
	fresh, errMsg string
	// metrics is the fresh run's registry snapshot, for cells with
	// Options.Metrics set.
	metrics *metrics.Snapshot
}

// digestOf hashes everything a Result carries, attribution and metrics
// snapshot included.
func digestOf(res Result) string {
	data, err := json.Marshal(res)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// goldenCells returns the golden-digest matrix — every scheme on FIR, SPMV
// and PR at the Table I configuration, 12 ops per CU, seed 7, with
// attribution — under XY and deflection routing, plus the XY page-migration
// cell. A -race build, about ten times slower, keeps PR only: every scheme
// and routing still runs through the store.
func goldenCells(t *testing.T) []*recycleCell {
	t.Helper()
	benches := []string{"FIR", "SPMV", "PR"}
	if raceEnabled {
		benches = []string{"PR"}
	}
	var cells []*recycleCell
	for _, routing := range []string{noc.RoutingXY, noc.RoutingDeflect} {
		for _, scheme := range SchemeNames() {
			for _, bench := range benches {
				cfg, err := ConfigFor(scheme, config.Default())
				if err != nil {
					t.Fatal(err)
				}
				cfg.NoC.Routing = routing
				cells = append(cells, &recycleCell{
					name: fmt.Sprintf("%s/%s/%s", scheme, bench, routing),
					cfg:  cfg,
					opts: Options{Scheme: scheme, Benchmark: mustBench(t, bench), OpsBudget: 12, Seed: 7,
						Attribution: &attr.Config{}},
				})
			}
		}
	}
	cfg, err := ConfigFor("hdpat", config.Default())
	if err != nil {
		t.Fatal(err)
	}
	mig := migrate.DefaultConfig()
	cells = append(cells, &recycleCell{name: "hdpat/PR/migrate", cfg: cfg,
		opts: Options{Scheme: "hdpat", Benchmark: mustBench(t, "PR"), OpsBudget: 12, Seed: 7, Migration: &mig}})
	return cells
}

// TestRecycledRunsMatchFresh runs every golden cell on a fresh wafer, then
// twice more, in two shuffled orders, as two batches the way runner.Pool
// runs them: each pass shares one trace table and draws a recycling store
// from the process-wide set, handing it back at its end, so the second
// pass normally starts on the store the first one filled. Mixed in
// are a cycle-limited run (which hands back hierarchies with misses still
// outstanding), a build-only run stopped at cycle 1 and followed by a full
// run (the engine comes back with nearly every event still queued), a
// metrics run followed by runs without metrics (the first
// run's registry must never count again), a cancelled run (which hands
// back nothing), and a 7x12 wafer between 7x7 runs (more GPMs than the
// store holds, then a surplus to trim). Every recycled run must reproduce
// its fresh digest, and the store must never hold more spares than the
// last run materialized.
func TestRecycledRunsMatchFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the golden matrix three times")
	}
	cells := goldenCells(t)
	hdpatCfg, err := ConfigFor("hdpat", config.Default())
	if err != nil {
		t.Fatal(err)
	}
	wideCfg, err := ConfigFor("hdpat", config.Wafer7x12())
	if err != nil {
		t.Fatal(err)
	}
	limited := &recycleCell{name: "hdpat/SPMV/cycle-limited", cfg: hdpatCfg,
		opts: Options{Scheme: "hdpat", Benchmark: mustBench(t, "SPMV"), OpsBudget: 12, Seed: 7, MaxCycles: 3000}}
	metered := &recycleCell{name: "hdpat/PR/metrics", cfg: hdpatCfg,
		opts: Options{Scheme: "hdpat", Benchmark: mustBench(t, "PR"), OpsBudget: 12, Seed: 7, Metrics: metrics.NewRegistry()}}
	wide := &recycleCell{name: "hdpat/SPMV/7x12", cfg: wideCfg,
		opts: Options{Scheme: "hdpat", Benchmark: mustBench(t, "SPMV"), OpsBudget: 12, Seed: 7, Attribution: &attr.Config{}}}
	buildOnly := &recycleCell{name: "hdpat/PR/build-only", cfg: hdpatCfg,
		opts: Options{Scheme: "hdpat", Benchmark: mustBench(t, "PR"), OpsBudget: 12, Seed: 7, MaxCycles: 1}}
	extras := []*recycleCell{limited, buildOnly, metered, wide}

	// The fresh runs share no state, so they run two at a time.
	all := append(append([]*recycleCell{}, cells...), extras...)
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(all); i += 2 {
				c := all[i]
				res, err := RunContext(context.Background(), c.cfg, c.opts)
				c.fresh, c.errMsg, c.metrics = digestOf(res), errText(err), res.Metrics
			}
		}()
	}
	wg.Wait()
	if limited.errMsg == "" || buildOnly.errMsg == "" {
		t.Fatal("a cycle-limited cell ran to completion; lower its MaxCycles")
	}

	var (
		ctx context.Context
		rec *recycler
	)
	check := func(c *recycleCell) {
		t.Helper()
		res, err := RunContext(ctx, c.cfg, c.opts)
		if got := errText(err); got != c.errMsg {
			t.Fatalf("%s: recycled error %q, fresh %q", c.name, got, c.errMsg)
		}
		if got := digestOf(res); got != c.fresh {
			t.Errorf("%s: recycled digest %s, fresh %s", c.name, got, c.fresh)
		}
		if !reflect.DeepEqual(res.Metrics, c.metrics) {
			t.Errorf("%s: recycled metrics snapshot differs from fresh", c.name)
		}
		if rec.last == 0 || rec.spares.Len() > rec.last {
			t.Fatalf("%s: store holds %d spares after a run that handed back %d", c.name, rec.spares.Len(), rec.last)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for pass := range 2 {
		var release func()
		ctx, release = WithRecycling(WithTraceTable(context.Background()))
		rec = ctx.Value(recyclerKey{}).(*recycler)
		order := append([]*recycleCell{}, cells...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for i, c := range order {
			check(c)
			switch i {
			case 3:
				check(limited)
			case 5:
				// The next cell runs in full on the engine and freelists
				// this run left with events queued.
				check(buildOnly)
			case 7:
				reg := metrics.NewRegistry()
				metered.opts.Metrics = reg
				check(metered)
				frozen := reg.Snapshot()
				check(order[(i+1)%len(order)])
				if !reflect.DeepEqual(reg.Snapshot(), frozen) {
					t.Fatalf("pass %d: a run without metrics counted into the previous run's registry", pass)
				}
			case 11:
				// More GPMs than the store holds, then a 7x7 run that must
				// trim the surplus.
				check(wide)
				if rec.spares.Len() != rec.last {
					t.Errorf("pass %d: store holds %d spares after the 7x12 run handed back %d", pass, rec.spares.Len(), rec.last)
				}
			case 15:
				held := rec.spares.Len()
				cctx, cancel := context.WithCancel(ctx)
				cancel()
				if _, err := RunContext(cctx, c.cfg, c.opts); !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled run: err %v", err)
				}
				if rec.spares.Len() > held {
					t.Fatalf("a cancelled run handed back hierarchies: %d spares, %d before", rec.spares.Len(), held)
				}
			}
		}
		release()
	}
}

// TestRecycledRunAllocs bounds what a run on a warm store allocates: the
// second Table I hdpat/PR run on one recycling context, sharing its traces
// with the first, takes its hierarchies, engine and freelists from the
// store. Measured on linux/amd64, Go 1.24.0: 0.71–1.09 MB in 1,329–3,652
// allocations, most of it the run's page table; before the engine, the
// request-path freelists and the probe legs were recycled, 4.66 MB in
// 31,677.
func TestRecycledRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	cfg, err := ConfigFor("hdpat", config.Default())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Scheme: "hdpat", Benchmark: mustBench(t, "PR"), OpsBudget: 32, Seed: 3}
	ctx, release := WithRecycling(WithTraceTable(context.Background()))
	defer release()
	if _, err := RunContext(ctx, cfg, opts); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunContext(ctx, cfg, opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const maxBytes, maxAllocs = 2 << 20, 10_000
	bytes, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("second run: %d bytes in %d allocations", bytes, allocs)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Errorf("second run on a warm store allocated %d bytes in %d allocations; bound %d bytes, %d allocations",
			bytes, allocs, maxBytes, maxAllocs)
	}
}

// A store serves one run at a time: a second acquirer builds fresh.
func TestRecyclerAdmitsOneRun(t *testing.T) {
	ctx, release := WithRecycling(context.Background())
	defer release()
	first := acquireRecycler(ctx)
	if first == nil {
		t.Fatal("an idle store refused a run")
	}
	if acquireRecycler(ctx) != nil {
		t.Error("a busy store admitted a second run")
	}
	first.busy.Store(false)
	if acquireRecycler(ctx) == nil {
		t.Error("a released store refused a run")
	}
	if acquireRecycler(context.Background()) != nil {
		t.Error("a context without a store yielded one")
	}
}

// Runs on several goroutines sharing one recycling context never share a
// hierarchy: one holds the store and the rest build new GPMs, and every
// result matches a fresh run. Run with -race.
func TestRecyclerSharedAcrossGoroutines(t *testing.T) {
	cfg, err := ConfigFor("hdpat", smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Scheme: "hdpat", Benchmark: mustBench(t, "SPMV"), OpsBudget: 16, Seed: 3}
	fresh, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := digestOf(fresh)
	ctx, release := WithRecycling(context.Background())
	defer release()
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				res, err := RunContext(ctx, cfg, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if got := digestOf(res); got != want {
					t.Errorf("shared-store run digest %s, fresh %s", got, want)
				}
			}
		}()
	}
	wg.Wait()
}
