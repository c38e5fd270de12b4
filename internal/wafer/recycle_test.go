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
	"slices"
	"sync"
	"testing"

	"hdpat/internal/attr"
	"hdpat/internal/config"
	"hdpat/internal/iommu"
	"hdpat/internal/metrics"
	"hdpat/internal/migrate"
	"hdpat/internal/noc"
	"hdpat/internal/sim"
	"hdpat/internal/vm"
	"hdpat/internal/workload"
	"hdpat/internal/xlat"
)

// recycleCell is one run of the recycling differential: a configuration,
// its options, and what the fresh run of it produced.
type recycleCell struct {
	name string
	cfg  config.System
	opts Options
	// fresh is the digest of the cell's fresh run; errMsg its error text
	// (cycle-limited cells fail by design).
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

// freshRun runs one simulation on nothing an earlier run grew: no spare
// hierarchies, a new engine and freelists, and an empty trace table of its
// own, so the run generates its traces itself. Call it while no other run
// is live.
func freshRun(ctx context.Context, cfg config.System, opts Options) (Result, error) {
	shared := traces
	traces = newTraceTable()
	defer func() { traces = shared }()
	res, _, err := run(ctx, cfg, opts, nil, newRunState())
	return res, err
}

// topStore returns the store the next run takes, or nil when the list is
// empty.
func topStore() *store {
	stores.mu.Lock()
	defer stores.mu.Unlock()
	if len(stores.free) == 0 {
		return nil
	}
	return stores.free[len(stores.free)-1]
}

// holdStores holds a store until the test ends, the way a run does, so the
// idle release leaves the list alone however long the test pauses between
// runs.
func holdStores(t *testing.T) {
	s := takeStore()
	t.Cleanup(func() { giveStore(s) })
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
// runs them: every run draws its traces from the process-wide table and
// takes the store the previous run handed back to the process-wide list,
// so the second pass starts on the store and trace sets the first one
// left. Mixed in are a cycle-limited run (which hands back hierarchies
// with misses still outstanding), a build-only run stopped at cycle 1 and
// followed by a full run (the engine comes back with nearly every event
// still queued), a metrics run followed by runs without metrics (the first
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

	holdStores(t)
	ctx := context.Background()
	check := func(c *recycleCell) *store {
		t.Helper()
		prev := topStore()
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
		rec := topStore()
		if prev != nil && rec != prev {
			t.Fatalf("%s: the run did not take the store the previous run handed back", c.name)
		}
		if rec.last == 0 || rec.spares.Len() > rec.last {
			t.Fatalf("%s: store holds %d spares after a run that handed back %d", c.name, rec.spares.Len(), rec.last)
		}
		return rec
	}
	rng := rand.New(rand.NewSource(1))
	for pass := range 2 {
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
				if rec := check(wide); rec.spares.Len() != rec.last {
					t.Errorf("pass %d: store holds %d spares after the 7x12 run handed back %d", pass, rec.spares.Len(), rec.last)
				}
			case 15:
				rec := topStore()
				held := rec.spares.Len()
				cctx, cancel := context.WithCancel(ctx)
				cancel()
				if _, err := RunContext(cctx, c.cfg, c.opts); !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled run: err %v", err)
				}
				if topStore() != rec || rec.spares.Len() > held {
					t.Fatalf("a cancelled run handed back hierarchies: %d spares, %d before", rec.spares.Len(), held)
				}
			}
		}
	}
}

// TestRecycledRunAllocs bounds what the second of two identical runs
// allocates, when it takes its hierarchies, engine and freelists from the
// store the first handed back. Measured on linux/amd64, Go 1.24.0:
//   - Table I hdpat/PR, plain: the second run is its key's second request
//     and generates the set the trace table keeps: 1.61 MB in 3,160
//     allocations, what a run generating its own traces allocated
//     (1.03–1.19 MB in 2,693–3,286) plus the set's one 0.4 MB array, once
//     per key in a process. Bound 2 MiB in 5,000, from 2 MiB in 10,000.
//   - the same, batch: both runs share the kept set: 0.66 MB in 1,219
//     allocations, most of it the run's page table; when a batch-scoped
//     table was the only one, 0.71–1.09 MB in 1,329–3,652. Bound 1 MiB in
//     3,000, from 2 MiB in 10,000. When the engine, the request-path
//     freelists and the probe legs were not recycled, 4.66 MB in 31,677;
//     when a plain Run drew no store, 22.3 MB in 49,080.
//   - a 30x30 wafer with every tenth GPM active, each run a new Custom
//     benchmark that generates its own traces: 3.81 MB in 17,523
//     allocations, the largest parts the 899 GPM headers (0.9 MB), MSHR
//     waiter lists (0.7 MB), the traces (0.6 MB) and ops (0.4 MB); when a
//     plain Run drew no store, 50.7 MB in 80,001. Its bound, 6 MB in
//     30,000, is the measured value with about 60 % headroom.
func TestRecycledRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	holdStores(t)
	tableI, err := ConfigFor("hdpat", config.Default())
	if err != nil {
		t.Fatal(err)
	}
	giant := config.Default()
	giant.MeshW, giant.MeshH = 30, 30
	if giant, err = ConfigFor("hdpat", giant); err != nil {
		t.Fatal(err)
	}
	emptyTraceTable(t)
	pr := func() Options { return Options{Scheme: "hdpat", Benchmark: mustBench(t, "PR"), OpsBudget: 32, Seed: 3} }
	// Runs at other seeds first warm the store, so the measured runs find
	// everything earlier runs of this wafer grow.
	for seed := range int64(3) {
		o := pr()
		o.Seed = 10 + seed
		if _, err := Run(tableI, o); err != nil {
			t.Fatal(err)
		}
	}
	// Each case runs twice and measures the second run. The Table I cases
	// run in order on one key: the plain case's second run is the key's
	// second request, which generates the set the table keeps; the batch
	// case's runs share that set, as a batch's runs after the first two
	// do. Each 30x30 run is a new Custom benchmark, whose one request
	// generates its traces for itself.
	for _, c := range []struct {
		name                string
		cfg                 config.System
		opts                func() Options
		maxBytes, maxAllocs uint64
	}{
		{"TableI/plain", tableI, pr, 2 << 20, 5_000},
		{"TableI/batch", tableI, pr, 1 << 20, 3_000},
		{"30x30/plain", giant, func() Options {
			return Options{Scheme: "hdpat", Benchmark: concentrated(), OpsBudget: 16, Seed: 7}
		}, 6 << 20, 30_000},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Run(c.cfg, c.opts()); err != nil {
				t.Fatal(err)
			}
			opts := c.opts()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Run(c.cfg, opts); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			bytes, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
			t.Logf("second run: %d bytes in %d allocations", bytes, allocs)
			if bytes > c.maxBytes || allocs > c.maxAllocs {
				t.Errorf("second run allocated %d bytes in %d allocations; bound %d bytes, %d allocations",
					bytes, allocs, c.maxBytes, c.maxAllocs)
			}
		})
	}
}

// emptyTraceTable gives the process an empty trace table until the test
// ends, so the test decides which of its keys the table has seen.
func emptyTraceTable(t *testing.T) {
	shared := traces
	traces = newTraceTable()
	t.Cleanup(func() { traces = shared })
}

// concentrated is a workload for a giant wafer: only every tenth GPM
// issues traffic, striding its own pages and, every fourth access, its next
// active peer's, so the rest of the wafer never materializes.
func concentrated() workload.Benchmark {
	const every = 10
	regions := []workload.RegionSpec{{Name: "main", Pages: 4 * (30*30 - 1)}}
	return workload.Custom("CONC", "concentrated", 64, regions, func(ctx workload.Context) []vm.VAddr {
		if ctx.GPM%every != 0 {
			return nil
		}
		r := ctx.Regions["main"]
		out := make([]vm.VAddr, ctx.OpsBudget)
		for i := range out {
			owner := ctx.GPM
			if i%4 == 3 {
				owner = (ctx.GPM + every) % ctx.NumGPMs
			}
			lo, hi := r.OwnerSlice(owner, ctx.NumGPMs)
			p := lo + (i*3+ctx.CU)%(hi-lo)
			out[i] = ctx.PageSize.Base(r.Start+vm.VPN(p)) + vm.VAddr(i%64*64)
		}
		return out
	})
}

// Concurrent runs each hold a store of their own: more runs than
// GOMAXPROCS, all live at once, start on an emptied list, so each takes a
// new store, and every result matches a fresh run's. Afterwards the list
// holds GOMAXPROCS distinct stores, each warmed by its run; two runs
// sharing a store would hand it back twice. Run with -race.
func TestConcurrentRunsHoldDistinctStores(t *testing.T) {
	cfg, err := ConfigFor("hdpat", smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Scheme: "hdpat", Benchmark: mustBench(t, "SPMV"), OpsBudget: 16, Seed: 3}
	fresh, err := freshRun(context.Background(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := digestOf(fresh)
	procs := runtime.GOMAXPROCS(0)
	runs := procs + 2
	releaseIdle()
	// Each run waits at its first IOMMU request until every run has made
	// one, so all of them hold their stores at once.
	var live sync.WaitGroup
	live.Add(runs)
	var wg sync.WaitGroup
	for range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var once sync.Once
			o := opts
			o.Hooks = []iommu.RequestHook{iommu.RequestHookFunc(func(sim.VTime, *xlat.Request) {
				once.Do(func() { live.Done(); live.Wait() })
			})}
			res, err := RunContext(context.Background(), cfg, o)
			if err != nil {
				t.Error(err)
				return
			}
			if got := digestOf(res); got != want {
				t.Errorf("concurrent run digest %s, fresh %s", got, want)
			}
		}()
	}
	wg.Wait()
	stores.mu.Lock()
	free := slices.Clone(stores.free)
	stores.mu.Unlock()
	if len(free) != procs {
		t.Fatalf("list holds %d stores after %d concurrent runs, want GOMAXPROCS = %d", len(free), runs, procs)
	}
	seen := map[*store]bool{}
	for _, s := range free {
		if seen[s] {
			t.Fatal("the list holds one store twice: two runs shared it")
		}
		seen[s] = true
		if s.spares.Len() == 0 || s.state == nil {
			t.Errorf("a store came back cold: %d spares, state %v", s.spares.Len(), s.state != nil)
		}
	}
}

// The idle release drops every store the list holds, but only once no run
// holds one; the next run builds new and hands its store back.
func TestIdleReleaseDropsStores(t *testing.T) {
	cfg, err := ConfigFor("hdpat", smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Scheme: "hdpat", Benchmark: mustBench(t, "FIR"), OpsBudget: 8, Seed: 1}
	if _, err := Run(cfg, opts); err != nil {
		t.Fatal(err)
	}
	stores.mu.Lock()
	armed := stores.idle != nil
	stores.mu.Unlock()
	warm := topStore()
	if warm == nil || !armed {
		t.Fatalf("a run handed back no store (idle release armed: %v)", armed)
	}
	// A run holding a store keeps the release off.
	stores.mu.Lock()
	stores.held++
	stores.mu.Unlock()
	releaseIdle()
	stores.mu.Lock()
	stores.held--
	stores.mu.Unlock()
	if topStore() != warm {
		t.Fatal("the idle release dropped the list while a run held a store")
	}
	releaseIdle()
	if topStore() != nil {
		t.Fatal("the idle release left a store in the list")
	}
	fresh, err := freshRun(context.Background(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if digestOf(res) != digestOf(fresh) {
		t.Error("the run after an idle release differs from a fresh run")
	}
	if s := topStore(); s == nil || s.spares.Len() == 0 {
		t.Error("the run after an idle release handed back no warm store")
	}
}
