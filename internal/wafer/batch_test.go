package wafer

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hdpat/internal/config"
	"hdpat/internal/vm"
	"hdpat/internal/workload"
)

// A set holds every CU's trace its generator returns, each
// capacity-limited: appending to one reallocates instead of overwriting the
// next CU's trace. The set is sized exactly.
func TestTraceSetIsolatesCUs(t *testing.T) {
	cfg := smallConfig()
	b := mustBench(t, "SPMV")
	numGPMs := cfg.MeshW*cfg.MeshH - 1
	wctx := workloadContext(b, traceKey{scale: cfg.WorkloadScale, numGPMs: numGPMs,
		numCUs: cfg.GPM.NumCUs, opsBudget: 16, pageSize: cfg.PageSize, seed: 5})
	set := generateTraces(b, wctx)
	k := 0
	b.Traces(wctx, func(_, _ int, want []vm.VAddr) {
		got := set.trace(k)
		if len(got) != len(want) || cap(got) != len(got) {
			t.Fatalf("CU %d: len %d cap %d, want len and cap %d", k, len(got), cap(got), len(want))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("CU %d differs", k)
		}
		k++
	})
	if k != len(set.ends) || set.bytes() != 8*(len(set.addrs)+len(set.ends)) {
		t.Errorf("set of %d CUs holds %d bytes for %d addresses; want %d CUs, sized exactly",
			len(set.ends), set.bytes(), len(set.addrs), k)
	}
	next := slices.Clone(set.trace(1))
	_ = append(set.trace(0), 1, 2, 3)
	if !slices.Equal(set.trace(1), next) {
		t.Fatal("an append to CU 0's trace overwrote CU 1's")
	}
}

// A panicking trace generator fails the run that generated the set (as a
// panic) and every run that waited on the set (as an error); none of them
// runs an empty trace set. The table then forgets the key, so a
// process-wide key never stays poisoned: the next request generates the
// traces again, and the one after keeps a set.
func TestTraceTablePanickingGenerator(t *testing.T) {
	cfg := smallConfig()
	var armed atomic.Bool
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	b := workload.Custom("BOOM", "panicking generator", 4,
		[]workload.RegionSpec{{Name: "r", Pages: 64}},
		func(ctx workload.Context) []vm.VAddr {
			if !armed.Load() {
				return []vm.VAddr{ctx.PageSize.Base(ctx.Regions["r"].Start + vm.VPN(ctx.CU))}
			}
			once.Do(func() { close(started) })
			<-release
			panic("generator failed")
		})
	opts := Options{Scheme: "baseline", Benchmark: b, OpsBudget: 8, Seed: 1}
	fresh, err := freshRun(context.Background(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The key's first request runs on its own traces and leaves a marker;
	// the second generates the set.
	if _, err := Run(cfg, opts); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	owner := make(chan any, 1)
	go func() {
		defer func() { owner <- recover() }()
		Run(cfg, opts)
	}()
	<-started
	const waiters = 3
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	results := make([]Result, waiters)
	for i := range waiters {
		ctx := &waitingCtx{Context: context.Background(), waiting: make(chan struct{})}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = RunContext(ctx, cfg, opts)
		}()
		<-ctx.waiting
	}
	close(release)
	if v := <-owner; v == nil {
		t.Fatal("the generating run did not panic")
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "BOOM traces panicked: generator failed") {
			t.Errorf("waiter %d: err %v, want the generator's panic", i, err)
		}
		if results[i].Cycles != 0 || results[i].TotalOps != 0 {
			t.Errorf("waiter %d returned a result: %d cycles, %d ops", i, results[i].Cycles, results[i].TotalOps)
		}
	}
	armed.Store(false)
	for i := range 2 {
		res, err := Run(cfg, opts)
		if err != nil {
			t.Fatalf("request %d after the panic: %v", i+1, err)
		}
		if digestOf(res) != digestOf(fresh) {
			t.Errorf("request %d after the panic differs from a fresh run", i+1)
		}
	}
	if e := entryOf(traces, b); e == nil || e.done == nil || e.err != nil {
		t.Error("the table kept no set for the key after two requests that followed the panic")
	}
}

// waitingCtx closes waiting when a run first asks for its Done channel,
// which a run does first when it waits on a trace set another run is
// generating.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// entryOf returns tab's entry for benchmark b's traces, nil when it has
// none; the tests that call it ask for b's traces on one wafer, ops budget
// and seed only.
func entryOf(tab *traceTable, b workload.Benchmark) *traceEntry {
	tab.mu.Lock()
	defer tab.mu.Unlock()
	for key, e := range tab.entries {
		if key.bench == b.Identity() {
			return e
		}
	}
	return nil
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
	ctx := context.Background()
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
	if _, err := RunContext(context.Background(), cfg, opts); err != nil {
		t.Fatal(err)
	}
	warm := topStore()
	if warm == nil || warm.spares.Len() == 0 {
		t.Fatal("the first batch's run handed back no warm store")
	}
	if _, err := RunContext(context.Background(), cfg, opts); err != nil {
		t.Fatal(err)
	}
	if topStore() != warm {
		t.Error("the next batch's run did not take the store the first one warmed")
	}
}

// Two consecutive batches, then a plain Run, draw one set per benchmark
// from the process-wide table: the second batch and the plain run read the
// very arrays the first batch's runs generated, and every run matches a
// fresh run that generated its own traces. The sets still hold what their
// generators returned afterwards, so no run wrote into a shared trace. Run
// with -race.
func TestTraceSetOutlivesBatch(t *testing.T) {
	emptyTraceTable(t)
	type cell struct {
		cfg  config.System
		opts Options
		want string
	}
	var cells []*cell
	for _, bench := range []string{"PR", "SPMV"} {
		for _, scheme := range []string{"baseline", "transfw", "hdpat"} {
			cfg, err := ConfigFor(scheme, smallConfig())
			if err != nil {
				t.Fatal(err)
			}
			c := &cell{cfg: cfg, opts: Options{Scheme: scheme, Benchmark: mustBench(t, bench), OpsBudget: 16, Seed: 3}}
			res, err := freshRun(context.Background(), cfg, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			c.want = digestOf(res)
			cells = append(cells, c)
		}
	}
	check := func(c *cell, res Result, err error) {
		if err != nil {
			t.Errorf("%s/%s: %v", c.opts.Scheme, c.opts.Benchmark.Abbr, err)
		} else if got := digestOf(res); got != c.want {
			t.Errorf("%s/%s: digest %s, fresh %s", c.opts.Scheme, c.opts.Benchmark.Abbr, got, c.want)
		}
	}
	// batch runs the cells on two goroutines, as runner.Pool does.
	batch := func() {
		var wg sync.WaitGroup
		for w := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < len(cells); i += 2 {
					res, err := RunContext(context.Background(), cells[i].cfg, cells[i].opts)
					check(cells[i], res, err)
				}
			}()
		}
		wg.Wait()
	}
	sets := func() map[traceKey]traceSet {
		traces.mu.Lock()
		defer traces.mu.Unlock()
		out := map[traceKey]traceSet{}
		for key, e := range traces.entries {
			if e.done != nil {
				out[key] = e.set
			}
		}
		return out
	}
	batch()
	first := sets()
	if len(first) != 2 {
		t.Fatalf("the first batch left %d sets, want one for each of PR and SPMV", len(first))
	}
	batch()
	res, err := Run(cells[0].cfg, cells[0].opts)
	check(cells[0], res, err)
	last := sets()
	for key, set := range first {
		if other := last[key]; &other.addrs[0] != &set.addrs[0] {
			t.Fatalf("%v: a later run replaced the set the first batch generated", key.bench)
		}
	}
	for _, c := range []*cell{cells[0], cells[3]} {
		b := c.opts.Benchmark
		e := entryOf(traces, b)
		k := 0
		b.Traces(workloadContext(b, e.key), func(_, _ int, want []vm.VAddr) {
			if !slices.Equal(e.set.trace(k), want) {
				t.Errorf("%s: CU %d's shared trace no longer matches its generator", b.Abbr, k)
			}
			k++
		})
	}
}

// workloadContext rebuilds the workload.Context a run passes b's generator
// for key.
func workloadContext(b workload.Benchmark, key traceKey) workload.Context {
	placement := vm.NewPlacement(key.numGPMs, key.pageSize)
	regions := map[string]vm.Region{}
	for _, rs := range b.Regions(key.scale, key.numGPMs, key.pageSize) {
		regions[rs.Name] = placement.Alloc(rs.Name, rs.Pages, 0)
	}
	return workload.Context{Regions: regions, PageSize: key.pageSize, NumGPMs: key.numGPMs,
		NumCUs: key.numCUs, OpsBudget: key.opsBudget, Seed: key.seed}
}

// The table holds no more than its limit, markers included, and drops the
// least recently requested entry first. A key it dropped starts over, and
// a set larger than the limit serves its request but is not kept.
func TestTraceTableLRU(t *testing.T) {
	tab := newTraceTable()
	const setBytes = 1024
	tab.limit = 4 * setBytes
	key := func(i int) traceKey { return traceKey{seed: int64(i)} }
	gens := 0
	get := func(i, bytes int) bool {
		t.Helper()
		set, shared, err := tab.get(context.Background(), key(i), "T", func() traceSet {
			gens++
			addrs := make([]vm.VAddr, bytes/8-1)
			addrs[0] = vm.VAddr(i)
			return traceSet{addrs: addrs, ends: []int{len(addrs)}}
		})
		if err != nil {
			t.Fatal(err)
		}
		if shared && set.addrs[0] != vm.VAddr(i) {
			t.Fatalf("key %d: got key %d's set", i, set.addrs[0])
		}
		held, n := 0, 0
		for e := tab.lru.next; e != &tab.lru; e = e.next {
			held += e.bytes
			n++
		}
		if held != tab.bytes || n != len(tab.entries) || tab.bytes > tab.limit {
			t.Fatalf("table counts %d bytes in %d entries, its ring %d in %d; limit %d",
				tab.bytes, len(tab.entries), held, n, tab.limit)
		}
		return shared
	}
	has := func(i int) bool { _, ok := tab.entries[key(i)]; return ok }
	for i := range 4 {
		if get(i, setBytes) {
			t.Fatalf("key %d: the first request shared a set", i)
		}
		if !get(i, setBytes) || gens != i+1 {
			t.Fatalf("key %d: the second request generated no set", i)
		}
	}
	// Key 0 is the most recently requested now; the next marker evicts
	// key 1, the least recently requested.
	if !get(0, setBytes) || gens != 4 {
		t.Fatal("the third request for key 0 did not share its set")
	}
	get(4, setBytes)
	if has(1) || !has(0) || !has(2) || !has(3) || !has(4) {
		t.Fatal("the table did not evict exactly its least recently requested entry")
	}
	get(4, setBytes)
	if get(1, setBytes) {
		t.Fatal("an evicted key's next request shared a set")
	}
	if has(2) || !has(0) {
		t.Fatal("the table did not evict its least recently requested entry")
	}
	// A set larger than the limit serves the request that generated it but
	// evicts nothing else.
	get(9, setBytes)
	before := len(tab.entries)
	if !get(9, 2*tab.limit) {
		t.Fatal("an oversized set was not served")
	}
	if has(9) || len(tab.entries) != before-1 {
		t.Errorf("the table kept the oversized set or evicted for it: %d entries, %d before", len(tab.entries), before)
	}
}

// A one-shot Custom run, as each w30-scale run is, generates its traces
// for itself once and leaves only a marker: the table builds no set.
func TestOneShotCustomBuildsNoSet(t *testing.T) {
	cfg := smallConfig()
	var calls atomic.Int64
	b := workload.Custom("ONCE", "one-shot", 4, []workload.RegionSpec{{Name: "r", Pages: 64}},
		func(ctx workload.Context) []vm.VAddr {
			calls.Add(1)
			return []vm.VAddr{ctx.PageSize.Base(ctx.Regions["r"].Start + vm.VPN(ctx.CU))}
		})
	if _, err := Run(cfg, Options{Scheme: "baseline", Benchmark: b, OpsBudget: 8, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if want := int64((cfg.MeshW*cfg.MeshH - 1) * cfg.GPM.NumCUs); calls.Load() != want {
		t.Errorf("the generator ran %d times, want once per CU (%d)", calls.Load(), want)
	}
	e := entryOf(traces, b)
	if e == nil || e.done != nil || e.set.addrs != nil || e.bytes != markerBytes {
		t.Errorf("the table holds %+v for a one-shot benchmark, want a marker", e)
	}
}
