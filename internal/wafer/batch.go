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

// State that outlives one run, shared process-wide: the recycling stores of
// GPM hierarchies, event queues and request-path freelists, and the trace
// table.

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

// traceBound is the most bytes of trace sets the table keeps. A set is
// about 8 bytes an op: at 96 ops per CU a Table I set is 1.2 MB (1,536
// CUs), a 7×12 set 2.1 MB, a full 30×30 set 22 MB. 64 MB holds the sets of
// all 14 Table II benchmarks at Table I and 96 ops (17.0 MB) and at 7×12
// (28.9 MB) together, or two full 30×30 sets with room to spare. Sets hold
// no pointers, so a full table adds nothing for a garbage collection to
// scan and needs no idle release (docs/performance.md, "Traces that
// outlive a batch").
const traceBound = 64 << 20

// markerBytes is what the table charges a key it holds no set for: its
// entry (176 bytes as allocated) and its map slot (an 80-byte key and
// value, before the map's own overhead).
const markerBytes = 256

// traces is the process-wide trace table every run draws from.
var traces = newTraceTable()

// traceTable keeps trace sets for runs to share, whatever their scheme,
// batch or caller. It admits on reuse: a key's first request leaves only a
// marker, and its second generates the set, which concurrent requests wait
// for and later ones share. Past its limit it drops the least recently
// requested entries, markers and sets alike.
type traceTable struct {
	mu      sync.Mutex
	entries map[traceKey]*traceEntry
	// lru is the sentinel of the ring of entries, the most recently
	// requested at lru.next; bytes is what they hold, at most limit
	// (traceBound, lowered by tests).
	lru          traceEntry
	bytes, limit int
}

// traceEntry is one key's marker, or once its set is requested its set,
// published by closing done. A non-nil err after done means the set's
// generator panicked.
type traceEntry struct {
	key        traceKey
	prev, next *traceEntry
	bytes      int
	// done is nil while the entry is a marker.
	done chan struct{}
	set  traceSet
	err  error
}

func newTraceTable() *traceTable {
	t := &traceTable{entries: map[traceKey]*traceEntry{}, limit: traceBound}
	t.lru.prev, t.lru.next = &t.lru, &t.lru
	return t
}

// traceSet is every CU's trace of one benchmark on one wafer, GPM-major,
// back to back in addrs, CU k's ending at ends[k]. It holds no pointers, so
// however long the table keeps it, a garbage collection never scans it.
type traceSet struct {
	addrs []vm.VAddr
	ends  []int
}

// trace returns CU k's trace, capacity-limited so that an append can never
// write into the next CU's trace. Runs only read it.
func (s traceSet) trace(k int) []vm.VAddr {
	start := 0
	if k > 0 {
		start = s.ends[k-1]
	}
	return s.addrs[start:s.ends[k]:s.ends[k]]
}

// bytes is the memory s holds.
func (s traceSet) bytes() int { return 8 * (cap(s.addrs) + cap(s.ends)) }

// generateTraces returns the set of b's traces for the wafer wctx
// describes, copied into one exactly sized array.
func generateTraces(b workload.Benchmark, wctx workload.Context) traceSet {
	traces := make([][]vm.VAddr, 0, wctx.NumGPMs*wctx.NumCUs)
	n := 0
	b.Traces(wctx, func(_, _ int, tr []vm.VAddr) {
		traces = append(traces, tr)
		n += len(tr)
	})
	set := traceSet{addrs: make([]vm.VAddr, 0, n), ends: make([]int, len(traces))}
	for k, tr := range traces {
		set.addrs = append(set.addrs, tr...)
		set.ends[k] = len(set.addrs)
	}
	return set
}

// loadTraces passes every CU's trace of benchmark b at the given workload
// scale to load, GPM-major, as Benchmark.Traces does. When the table holds
// a set for them, or b's traces were asked for before, the traces come from
// the table's set; otherwise, or when b has no identity, b generates them
// for this run alone. If the run generating a set panics, every run waiting
// on that set fails with an error rather than running without traces, and
// the table forgets the key.
func loadTraces(ctx context.Context, b workload.Benchmark, scale int, wctx workload.Context, load func(gpm, cu int, tr []vm.VAddr)) error {
	if b.Identity() == (workload.Identity{}) {
		b.Traces(wctx, load)
		return nil
	}
	key := traceKey{bench: b.Identity(), scale: scale, numGPMs: wctx.NumGPMs, numCUs: wctx.NumCUs,
		opsBudget: wctx.OpsBudget, pageSize: wctx.PageSize, seed: wctx.Seed}
	set, shared, err := traces.get(ctx, key, b.Abbr, func() traceSet { return generateTraces(b, wctx) })
	if err != nil {
		return err
	}
	if !shared {
		b.Traces(wctx, load)
		return nil
	}
	for k := range set.ends {
		load(k/wctx.NumCUs, k%wctx.NumCUs, set.trace(k))
	}
	return nil
}

// get returns key's set, generating it with gen if no run has, and waiting
// for it if another run is generating it. On the key's first request it
// returns shared false and leaves a marker: the caller generates the traces
// for itself.
func (t *traceTable) get(ctx context.Context, key traceKey, abbr string, gen func() traceSet) (set traceSet, shared bool, err error) {
	t.mu.Lock()
	e := t.entries[key]
	if e == nil {
		e = &traceEntry{key: key, bytes: markerBytes}
		t.entries[key] = e
		t.bytes += e.bytes
		t.touch(e)
		t.evict()
		t.mu.Unlock()
		return traceSet{}, false, nil
	}
	t.touch(e)
	if e.done == nil {
		e.done = make(chan struct{})
		t.mu.Unlock()
		return t.generate(e, abbr, gen), true, nil
	}
	t.mu.Unlock()
	select {
	case <-e.done:
	case <-ctx.Done():
		return traceSet{}, false, ctx.Err()
	}
	if e.err != nil {
		return traceSet{}, false, e.err
	}
	return e.set, true, nil
}

// generate builds e's set with gen and publishes it, keeping it unless the
// table dropped e meanwhile or the set alone exceeds the table's limit. If gen
// panics, e fails and the table forgets it, so the key's next request
// starts over.
func (t *traceTable) generate(e *traceEntry, abbr string, gen func() traceSet) traceSet {
	defer close(e.done)
	defer func() {
		if v := recover(); v != nil {
			e.err = fmt.Errorf("wafer: generating %s traces panicked: %v", abbr, v)
			t.mu.Lock()
			t.drop(e)
			t.mu.Unlock()
			panic(v)
		}
	}()
	e.set = gen()
	bytes := e.set.bytes()
	t.mu.Lock()
	defer t.mu.Unlock()
	if bytes > t.limit {
		t.drop(e)
	} else if t.entries[e.key] == e {
		t.bytes += bytes - e.bytes
		e.bytes = bytes
		t.evict()
	}
	return e.set
}

// touch moves e, linked or not, to the most recently requested end.
func (t *traceTable) touch(e *traceEntry) {
	if e.next != nil {
		e.prev.next, e.next.prev = e.next, e.prev
	}
	e.prev, e.next = &t.lru, t.lru.next
	e.prev.next, e.next.prev = e, e
}

// evict drops the least recently requested entries until the table holds
// no more than its limit.
func (t *traceTable) evict() {
	for t.bytes > t.limit {
		t.drop(t.lru.prev)
	}
}

// drop unlinks e and forgets its key, if e is still the key's entry. Runs
// holding e's set keep it.
func (t *traceTable) drop(e *traceEntry) {
	if t.entries[e.key] != e {
		return
	}
	delete(t.entries, e.key)
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	t.bytes -= e.bytes
}
