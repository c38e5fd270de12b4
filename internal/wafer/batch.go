package wafer

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

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

// recycler is the store behind WithRecycling.
type recycler struct {
	// busy admits one run at a time; a run that finds the store busy
	// builds everything new, so sharing the context between goroutines
	// costs speed, never correctness.
	busy   atomic.Bool
	spares gpm.Spares
	// last is how many hierarchies the last reclaimed run handed back; the
	// store never holds more.
	last int
	// state is the rest of what the last run grew, emptied for the next
	// run; nil while a run holds it, and after a run that panicked.
	state *runState
}

// runState is what a run grows besides its GPM hierarchies: the event
// queue, the request path's freelists and the filter-seeding buffer. A run
// without a store builds its own. A store hands it from one run to the
// next: the engine is reset when it comes back, and every freelist object
// was zeroed when released, so nothing of one run reaches the next. It
// still serves one run at a time.
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

// recyclers holds the stores no context is using. A store keeps what its
// last run materialized, so the next batch's first run on a worker
// recycles too; a store that sits idle through two garbage collections is
// dropped with everything it holds.
var recyclers = sync.Pool{New: func() any { return new(recycler) }}

type recyclerKey struct{}

// WithRecycling returns a context under which successive RunContext calls
// reuse each other's GPM hierarchies — the TLBs, caches, MSHR files and
// cuckoo filters that dominate a wafer's build — and everything else a run
// grows (the event queue, the pooled ops, messages, requests, IOMMU jobs
// and probe legs), instead of allocating them per run, and a release func
// that hands the context's store back to the process-wide set it came
// from, for the next caller. A run that completes or stops at its cycle
// limit hands its hierarchies back, resetting each, and the store then
// keeps no more than that run materialized. A cancelled run hands back
// only its event queue and freelists; a panicked run hands back nothing.
// Recycled runs are byte-identical to fresh ones. The store serves one run at a
// time, so give each goroutine its own context; runner.Pool gives each
// worker one for the length of a batch. Call release once, when no run
// uses the context any more.
func WithRecycling(ctx context.Context) (_ context.Context, release func()) {
	r := recyclers.Get().(*recycler)
	return context.WithValue(ctx, recyclerKey{}, r), func() { recyclers.Put(r) }
}

// acquireRecycler returns ctx's store, or nil when ctx has none or another
// run holds it. A non-nil store must be released when the run is over.
func acquireRecycler(ctx context.Context) *recycler {
	r, _ := ctx.Value(recyclerKey{}).(*recycler)
	if r == nil || !r.busy.CompareAndSwap(false, true) {
		return nil
	}
	return r
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

// traceSet is every CU's trace for one wafer in one backing array: CU k,
// counted GPM-major, owns addrs[ends[k-1]:ends[k]]. Runs only read it.
type traceSet struct {
	addrs []vm.VAddr
	ends  []int
}

// generateTraces builds b's trace set for the wafer wctx describes, its
// backing array sized exactly.
func generateTraces(b workload.Benchmark, wctx workload.Context) *traceSet {
	parts := make([][]vm.VAddr, 0, wctx.NumGPMs*wctx.NumCUs)
	n := 0
	b.Traces(wctx, func(_, _ int, tr []vm.VAddr) {
		parts = append(parts, tr)
		n += len(tr)
	})
	s := &traceSet{addrs: make([]vm.VAddr, 0, n), ends: make([]int, len(parts))}
	for k, tr := range parts {
		s.addrs = append(s.addrs, tr...)
		s.ends[k] = len(s.addrs)
	}
	return s
}

// trace returns CU k's trace, capacity-limited so that an append can never
// write into the next CU's.
func (s *traceSet) trace(k int) []vm.VAddr {
	lo, hi := 0, s.ends[k]
	if k > 0 {
		lo = s.ends[k-1]
	}
	return s.addrs[lo:hi:hi]
}

// traceTable holds the trace sets a batch's runs have generated.
type traceTable struct {
	mu      sync.Mutex
	entries map[traceKey]*traceEntry
}

// traceEntry is one set, published by closing done. A nil set after done
// means its generator panicked, and err says so.
type traceEntry struct {
	done chan struct{}
	set  *traceSet
	err  error
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
	set, err := t.get(ctx, key, b.Abbr, func() *traceSet { return generateTraces(b, wctx) })
	if err != nil {
		return err
	}
	for k := range set.ends {
		load(k/wctx.NumCUs, k%wctx.NumCUs, set.trace(k))
	}
	return nil
}

// get returns key's set, generating it with gen if no run has, and waiting
// for it if another run is generating it.
func (t *traceTable) get(ctx context.Context, key traceKey, abbr string, gen func() *traceSet) (*traceSet, error) {
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
		e.set = gen()
		return e.set, nil
	}
	t.mu.Unlock()
	select {
	case <-e.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if e.set == nil {
		return nil, e.err
	}
	return e.set, nil
}
