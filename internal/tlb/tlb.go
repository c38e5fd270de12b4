// Package tlb models the set-associative translation lookaside buffers of
// the GPM hierarchy (Table I): L1 vector/scalar/instruction TLBs (1-set,
// 32-way), the shared L2 TLB (64-set, 32-way) and the last-level GMMU cache
// (64-set, 16-way), all with LRU replacement and a bounded MSHR file that
// coalesces outstanding misses to the same page.
package tlb

import (
	"hdpat/internal/metrics"
	"hdpat/internal/sim"
	"hdpat/internal/vm"
)

// Key identifies a translation: the redirection table and all TLBs are
// tagged with (process id, virtual page number).
type Key struct {
	PID vm.PID
	VPN vm.VPN
}

// Config sizes a TLB.
type Config struct {
	Sets    int
	Ways    int
	MSHRs   int
	Latency sim.VTime
}

// Stats counts TLB events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Fills      uint64
	Evictions  uint64
	MSHRHits   uint64 // misses merged into an existing MSHR
	MSHRStalls uint64 // misses rejected because the MSHR file was full
}

type entry struct {
	key   Key
	pte   vm.PTE
	valid bool
}

// TLB is a set-associative, LRU-replacement translation cache.
// Within each set, entries are kept in recency order (index 0 = MRU).
type TLB struct {
	cfg   Config
	sets  [][]entry
	Stats Stats

	// OnEvict, when non-nil, is called with each evicted entry. The GMMU
	// uses this to keep its cuckoo filter in sync with the auxiliary
	// translation cache contents.
	OnEvict func(vm.PTE)

	// m mirrors hits/misses into registry counters shared across every TLB
	// of the same level (AttachMetrics); nil costs one branch per lookup.
	m *levelCounters
}

// levelCounters are the per-level registry series a TLB reports into.
type levelCounters struct {
	hits, misses *metrics.Counter
}

// AttachMetrics mirrors this TLB's hits and misses into the given counters.
// Many TLB instances (one L1 per CU, one L2 per GPM, ...) typically share
// one counter pair, aggregating the level across the wafer.
func (t *TLB) AttachMetrics(hits, misses *metrics.Counter) {
	t.m = &levelCounters{hits: hits, misses: misses}
}

// New creates a TLB with the given geometry.
func New(cfg Config) *TLB {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		panic("tlb: sets and ways must be positive")
	}
	w := cfg.Ways
	t := &TLB{cfg: cfg, sets: make([][]entry, cfg.Sets)}
	// One backing array for every set; each set's capacity stops at its own
	// ways, so append in Insert and Invalidate never reaches into the next
	// set.
	slots := make([]entry, cfg.Sets*w)
	for i := range t.sets {
		t.sets[i] = slots[i*w : i*w : (i+1)*w]
	}
	return t
}

// Config returns the TLB geometry.
func (t *TLB) Config() Config { return t.cfg }

// Latency returns the lookup latency in cycles.
func (t *TLB) Latency() sim.VTime { return t.cfg.Latency }

// Capacity returns total entry slots.
func (t *TLB) Capacity() int { return t.cfg.Sets * t.cfg.Ways }

// Len returns the number of valid entries.
func (t *TLB) Len() int {
	n := 0
	for _, s := range t.sets {
		n += len(s)
	}
	return n
}

func (t *TLB) setOf(k Key) int {
	// Hash the key rather than taking low VPN bits directly: HDPAT's
	// clustering assigns an auxiliary cache only VPNs sharing a residue
	// class (Eq. 1-2), which would alias onto a fraction of the sets and
	// quarter the effective capacity. Hardware achieves the same with an
	// XOR-folded index.
	x := uint64(k.VPN) ^ uint64(k.PID)<<48
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x % uint64(t.cfg.Sets))
}

// Lookup probes the TLB, promoting a hit to MRU.
func (t *TLB) Lookup(k Key) (vm.PTE, bool) {
	set := t.sets[t.setOf(k)]
	for i, e := range set {
		if e.valid && e.key == k {
			// Move to front (MRU).
			copy(set[1:i+1], set[:i])
			set[0] = e
			t.Stats.Hits++
			if t.m != nil {
				t.m.hits.Inc()
			}
			return e.pte, true
		}
	}
	t.Stats.Misses++
	if t.m != nil {
		t.m.misses.Inc()
	}
	return vm.PTE{}, false
}

// Peek probes without updating recency or stats (used by remote probes that
// should not perturb the local replacement state in some schemes, and by
// tests).
func (t *TLB) Peek(k Key) (vm.PTE, bool) {
	for _, e := range t.sets[t.setOf(k)] {
		if e.valid && e.key == k {
			return e.pte, true
		}
	}
	return vm.PTE{}, false
}

// Insert fills pte, evicting the LRU entry of its set if needed.
// Re-inserting an existing key refreshes it to MRU.
func (t *TLB) Insert(pte vm.PTE) {
	k := Key{PID: pte.PID, VPN: pte.VPN}
	si := t.setOf(k)
	set := t.sets[si]
	for i, e := range set {
		if e.valid && e.key == k {
			copy(set[1:i+1], set[:i])
			set[0] = entry{key: k, pte: pte, valid: true}
			return
		}
	}
	t.Stats.Fills++
	if len(set) < t.cfg.Ways {
		set = append(set, entry{})
	} else {
		victim := set[len(set)-1]
		t.Stats.Evictions++
		if t.OnEvict != nil && victim.valid {
			t.OnEvict(victim.pte)
		}
	}
	copy(set[1:], set)
	set[0] = entry{key: k, pte: pte, valid: true}
	t.sets[si] = set
}

// Invalidate drops k if present and reports whether it was.
func (t *TLB) Invalidate(k Key) bool {
	si := t.setOf(k)
	set := t.sets[si]
	for i, e := range set {
		if e.valid && e.key == k {
			t.sets[si] = append(set[:i], set[i+1:]...)
			return true
		}
	}
	return false
}

// Flush invalidates everything.
func (t *TLB) Flush() {
	for i := range t.sets {
		t.sets[i] = t.sets[i][:0]
	}
}

// HitRate returns hits/(hits+misses), or 0 with no accesses.
func (s Stats) HitRate() float64 {
	tot := s.Hits + s.Misses
	if tot == 0 {
		return 0
	}
	return float64(s.Hits) / float64(tot)
}

// Lookups returns the total probe count (hits + misses).
func (s Stats) Lookups() uint64 { return s.Hits + s.Misses }

// Add accumulates o into s, aggregating many TLB instances of one level
// (e.g. the per-CU L1 TLBs of a GPM) into a single Stats.
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Fills += o.Fills
	s.Evictions += o.Evictions
	s.MSHRHits += o.MSHRHits
	s.MSHRStalls += o.MSHRStalls
}
