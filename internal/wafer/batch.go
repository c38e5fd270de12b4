package wafer

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"hdpat/internal/core"
	"hdpat/internal/gpm"
	"hdpat/internal/iommu"
	"hdpat/internal/noc"
	"hdpat/internal/sim"
	"hdpat/internal/vm"
	"hdpat/internal/workload"
	"hdpat/internal/xlat"
)

// State that outlives one run: the recycling stores of GPM hierarchies,
// event queues and request-path freelists, shared process-wide, and the
// trace table one batch shares.

// store is what one run hands the next: its spare GPM hierarchies and the
// rest of what it grew. A run takes a store from the process-wide list
// when it starts and holds it alone until it ends.
type store struct {
	spares gpm.Spares
	// last is how many hierarchies the last reclaimed run handed back; the
	// store never holds more.
	last int
	// state is the rest of what the last run grew, emptied for the next
	// run; nil while a run holds it, and after a run that panicked.
	state *runState
}

// runState is what a run grows besides its GPM hierarchies: the event
// queue, the request path's freelists and the filter-seeding buffer. A store
// hands it from one run to the next: the engine is reset when it comes
// back, and every freelist object was zeroed when released, so nothing of
// one run reaches the next.
type runState struct {
	eng      *sim.Engine
	requests xlat.RequestPool
	noc      noc.Pools
	iommu    iommu.Pools
	core     core.Pools
	fetches  sim.Freelist[lineFetch]
	// vpns is the buffer the GPMs' filter seeds enumerate their pages into.
	vpns []vm.VPN
}

func newRunState() *runState { return &runState{eng: sim.NewEngine()} }

// idleRelease is how long the store list waits, once no run holds a store,
// before it drops every store it holds. A held store is not free for the
// rest of the process: every garbage collection marks its pointers (about
// 3.6 MB per Table I store, which makes a forced collection about eight
// times longer), and work that follows a collection runs slower while
// stores are listed (docs/performance.md, "Every run recycles").
// Runs of one batch or sweep follow each other within milliseconds, and a
// new build costs 10–25 ms (Table I to 30×30), so after a pause of this
// length the rebuild adds at most a quarter to the time the process spent
// idle.
const idleRelease = 100 * time.Millisecond

// stores is the process-wide list of stores no run holds, the most recently
// handed back last. It holds at most GOMAXPROCS stores, as many as can run
// at once on as many CPUs. held counts the stores runs hold; idle, re-armed
// by every hand-back, empties the list when it fires with none held.
var stores struct {
	mu   sync.Mutex
	free []*store
	held int
	idle *time.Timer
}

// takeStore removes and returns the most recently handed-back store, so a
// run finds the store its goroutine's previous run warmed, or a new empty
// one when the list is empty.
func takeStore() *store {
	stores.mu.Lock()
	defer stores.mu.Unlock()
	stores.held++
	n := len(stores.free)
	if n == 0 {
		return new(store)
	}
	s := stores.free[n-1]
	stores.free[n-1] = nil
	stores.free = stores.free[:n-1]
	return s
}

// giveStore hands s back for the next run, dropping the oldest store when
// the list would hold more than GOMAXPROCS, and re-arms the idle release.
func giveStore(s *store) {
	stores.mu.Lock()
	defer stores.mu.Unlock()
	stores.held--
	stores.free = append(stores.free, s)
	if over := len(stores.free) - runtime.GOMAXPROCS(0); over > 0 {
		n := copy(stores.free, stores.free[over:])
		clear(stores.free[n:])
		stores.free = stores.free[:n]
	}
	if stores.idle == nil {
		stores.idle = time.AfterFunc(idleRelease, releaseIdle)
	} else {
		stores.idle.Reset(idleRelease)
	}
}

// releaseIdle empties the list, releasing everything its stores hold,
// unless a run holds a store: that run's hand-back re-arms the release.
func releaseIdle() {
	stores.mu.Lock()
	defer stores.mu.Unlock()
	if stores.held == 0 {
		stores.free = nil
	}
}

// traceKey is every input a benchmark's traces depend on: the generator's
// identity, the workload scale, and the workload.Context fields other than
// GPM and CU. The regions follow from the benchmark, scale, GPM count and
// page size, since every run allocates them the same way on a fresh
// placement. The scheme plays no part.
type traceKey struct {
	bench                             workload.Identity
	scale, numGPMs, numCUs, opsBudget int
	pageSize                          vm.PageSize
	seed                              int64
}

// generateTraces returns every CU's trace of b for the wafer wctx
// describes, GPM-major. Each is the generator's own slice, capacity-limited
// so that an append can never write into another CU's trace. Runs only read
// them.
func generateTraces(b workload.Benchmark, wctx workload.Context) [][]vm.VAddr {
	traces := make([][]vm.VAddr, 0, wctx.NumGPMs*wctx.NumCUs)
	b.Traces(wctx, func(_, _ int, tr []vm.VAddr) {
		traces = append(traces, tr[:len(tr):len(tr)])
	})
	return traces
}

// traceTable holds the trace sets a batch's runs have generated.
type traceTable struct {
	mu      sync.Mutex
	entries map[traceKey]*traceEntry
}

// traceEntry is one benchmark's traces, published by closing done. A
// non-nil err after done means their generator panicked.
type traceEntry struct {
	done   chan struct{}
	traces [][]vm.VAddr
	err    error
}

type traceTableKey struct{}

// WithTraceTable returns a context under which runs share their
// generated traces: the first run to need a benchmark's traces for a
// wafer, ops budget and seed generates them, runs that need them
// meanwhile wait, and later runs reuse them, whatever their scheme. Every
// set stays in memory while the context is reachable, so scope it to one
// batch; runner.Pool.Run does.
func WithTraceTable(ctx context.Context) context.Context {
	return context.WithValue(ctx, traceTableKey{}, &traceTable{entries: map[traceKey]*traceEntry{}})
}

// loadTraces passes every CU's trace of benchmark b at the given workload
// scale to load, GPM-major, as Benchmark.Traces does. Under a
// WithTraceTable context the traces come from the table's set for them;
// otherwise, or when b has no identity, b generates them for this run
// alone. If the run generating a set panics, every run waiting on that
// set, or asking for it later, fails with an error rather than running
// without traces.
func loadTraces(ctx context.Context, b workload.Benchmark, scale int, wctx workload.Context, load func(gpm, cu int, tr []vm.VAddr)) error {
	t, _ := ctx.Value(traceTableKey{}).(*traceTable)
	if t == nil || b.Identity() == (workload.Identity{}) {
		b.Traces(wctx, load)
		return nil
	}
	key := traceKey{bench: b.Identity(), scale: scale, numGPMs: wctx.NumGPMs, numCUs: wctx.NumCUs,
		opsBudget: wctx.OpsBudget, pageSize: wctx.PageSize, seed: wctx.Seed}
	traces, err := t.get(ctx, key, b.Abbr, func() [][]vm.VAddr { return generateTraces(b, wctx) })
	if err != nil {
		return err
	}
	for k, tr := range traces {
		load(k/wctx.NumCUs, k%wctx.NumCUs, tr)
	}
	return nil
}

// get returns key's traces, generating them with gen if no run has, and
// waiting for them if another run is generating them.
func (t *traceTable) get(ctx context.Context, key traceKey, abbr string, gen func() [][]vm.VAddr) ([][]vm.VAddr, error) {
	t.mu.Lock()
	e := t.entries[key]
	if e == nil {
		e = &traceEntry{done: make(chan struct{})}
		t.entries[key] = e
		t.mu.Unlock()
		defer close(e.done)
		defer func() {
			if v := recover(); v != nil {
				e.err = fmt.Errorf("wafer: generating %s traces panicked: %v", abbr, v)
				panic(v)
			}
		}()
		e.traces = gen()
		return e.traces, nil
	}
	t.mu.Unlock()
	select {
	case <-e.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if e.err != nil {
		return nil, e.err
	}
	return e.traces, nil
}
