// Package tlb models the set-associative translation lookaside buffers of
// the GPM hierarchy (Table I): L1 vector/scalar/instruction TLBs (1-set,
// 32-way), the shared L2 TLB (64-set, 32-way) and the last-level GMMU cache
// (64-set, 16-way), all with LRU replacement and a bounded MSHR file that
// coalesces outstanding misses to the same page.
package tlb

import (
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
	Hits      uint64
	Misses    uint64
	Fills     uint64
	Evictions uint64
	// Deprecated: always zero; MSHR counters live in tlb.MSHR. The field
	// stays because hdpatd run artifacts pinned by perfbench/reference.json
	// carry its JSON key, and the golden digests print AuxStats with %+v.
	MSHRHits uint64
	// Deprecated: always zero; MSHR counters live in tlb.MSHR. Kept for
	// the same reason as MSHRHits.
	MSHRStalls uint64
}

// TLB is a set-associative, LRU-replacement translation cache.
//
// Way w of set s lives at index s*Ways+w of three parallel arrays: vpn, the
// tags a lookup scans; pte, the payload, which carries the PID; and stamp,
// the way's last-touch time, where 0 marks an empty way. Each hit, refresh
// and fill writes the next value of a per-TLB clock into the way's stamp,
// so nothing moves. The victim is the way with the smallest stamp, and an
// empty way always wins, so a set fills before it evicts. Stamps strictly
// increase with each touch, so the smallest stamp is exactly the entry a
// move-to-front recency list would hold last.
type TLB struct {
	cfg   Config
	vpn   []vm.VPN
	pte   []vm.PTE
	stamp []uint64
	clock uint64 // last stamp written
	Stats Stats

	// OnEvict, when non-nil, is called with each evicted entry. The GMMU
	// uses this to keep its cuckoo filter in sync with the auxiliary
	// translation cache contents.
	OnEvict func(vm.PTE)
}

// New creates a TLB with the given geometry.
func New(cfg Config) *TLB {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		panic("tlb: sets and ways must be positive")
	}
	n := cfg.Sets * cfg.Ways
	return &TLB{cfg: cfg, vpn: make([]vm.VPN, n), pte: make([]vm.PTE, n), stamp: make([]uint64, n)}
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
	for _, s := range t.stamp {
		if s != 0 {
			n++
		}
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

// find returns the slot holding k, or -1, and the first slot of k's set.
func (t *TLB) find(k Key) (slot, base int) {
	base = t.setOf(k) * t.cfg.Ways
	for i, v := range t.vpn[base : base+t.cfg.Ways] {
		if v == k.VPN && t.stamp[base+i] != 0 && t.pte[base+i].PID == k.PID {
			return base + i, base
		}
	}
	return -1, base
}

// touch makes slot the most recently used way of its set.
func (t *TLB) touch(slot int) {
	t.clock++
	t.stamp[slot] = t.clock
}

// Lookup probes the TLB, promoting a hit to MRU.
func (t *TLB) Lookup(k Key) (vm.PTE, bool) {
	if i, _ := t.find(k); i >= 0 {
		t.touch(i)
		t.Stats.Hits++
		return t.pte[i], true
	}
	t.Stats.Misses++
	return vm.PTE{}, false
}

// Peek probes without updating recency or stats (used by remote probes that
// should not perturb the local replacement state in some schemes, and by
// tests).
func (t *TLB) Peek(k Key) (vm.PTE, bool) {
	if i, _ := t.find(k); i >= 0 {
		return t.pte[i], true
	}
	return vm.PTE{}, false
}

// Insert fills pte, evicting the LRU entry of its set if needed.
// Re-inserting an existing key refreshes it to MRU.
func (t *TLB) Insert(pte vm.PTE) {
	i, base := t.find(Key{PID: pte.PID, VPN: pte.VPN})
	if i < 0 {
		t.Stats.Fills++
		i = base
		for j := base + 1; j < base+t.cfg.Ways; j++ {
			if t.stamp[j] < t.stamp[i] {
				i = j
			}
		}
		if t.stamp[i] != 0 {
			t.Stats.Evictions++
			if t.OnEvict != nil {
				t.OnEvict(t.pte[i])
			}
		}
		t.vpn[i] = pte.VPN
	}
	t.pte[i] = pte
	t.touch(i)
}

// Invalidate drops k if present and reports whether it was.
func (t *TLB) Invalidate(k Key) bool {
	i, _ := t.find(k)
	if i < 0 {
		return false
	}
	t.stamp[i] = 0
	return true
}

// Flush invalidates everything.
func (t *TLB) Flush() { clear(t.stamp) }

// Reset returns the TLB to the state New left it in: empty, with clock and
// Stats zeroed. Tags and payloads are not cleared, because a zero stamp
// already marks a way empty. OnEvict is kept: it is the owner's wiring, not
// TLB state.
func (t *TLB) Reset() {
	clear(t.stamp)
	t.clock = 0
	t.Stats = Stats{}
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
}
