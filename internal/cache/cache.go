// Package cache models the GPM data caches of Table I: per-CU L1
// vector/scalar/instruction caches and the per-GPM shared L2, all
// set-associative with LRU replacement and bounded MSHR files. The model is
// presence-only (no dirty writeback traffic): the translation study's
// workloads are read-dominated and the paper's bottleneck is translation, so
// the data path only needs to produce realistic latencies and downstream
// request rates.
package cache

import (
	"hdpat/internal/sim"
	"hdpat/internal/vm"
)

// LineSize is the cacheline size in bytes; GPMs access remote memory at
// cacheline granularity (§II-A).
const LineSize = 64

// LineOf returns the line address (tag+index portion) of a physical address.
func LineOf(a vm.PAddr) uint64 { return uint64(a) / LineSize }

// Config sizes a cache.
type Config struct {
	SizeBytes int
	Ways      int
	MSHRs     int
	Latency   sim.VTime
}

// Sets derives the set count from size, ways and line size.
func (c Config) Sets() int {
	s := c.SizeBytes / (c.Ways * LineSize)
	if s < 1 {
		s = 1
	}
	return s
}

// Stats counts cache events.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	MSHRMerge uint64
	MSHRStall uint64
}

// HitRate returns hits/(hits+misses).
func (s Stats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// Waiter is woken when an outstanding miss fills. Waiters are long-lived
// components or pooled per-operation state machines, so tracking a miss
// allocates nothing — this replaced the previous per-miss func() callback.
type Waiter interface {
	LineFilled(line uint64)
}

// WaiterFunc adapts a closure to Waiter for cold paths and tests.
type WaiterFunc func(line uint64)

// LineFilled implements Waiter.
func (f WaiterFunc) LineFilled(line uint64) { f(line) }

// Cache is a set-associative LRU cache of line addresses.
type Cache struct {
	cfg   Config
	sets  [][]uint64 // recency-ordered line addresses per set (0 = MRU)
	Stats Stats

	pending map[uint64][]Waiter
}

// New creates a cache.
func New(cfg Config) *Cache {
	n, w := cfg.Sets(), cfg.Ways
	c := &Cache{cfg: cfg, sets: make([][]uint64, n), pending: make(map[uint64][]Waiter)}
	// One backing array for every set; each set's capacity stops at its own
	// ways, so append in Insert never reaches into the next set.
	slots := make([]uint64, n*w)
	for i := range c.sets {
		c.sets[i] = slots[i*w : i*w : (i+1)*w]
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Latency returns the hit latency.
func (c *Cache) Latency() sim.VTime { return c.cfg.Latency }

func (c *Cache) setOf(line uint64) int { return int(line % uint64(len(c.sets))) }

// Lookup probes for a line, promoting hits to MRU.
func (c *Cache) Lookup(line uint64) bool {
	set := c.sets[c.setOf(line)]
	for i, l := range set {
		if l == line {
			copy(set[1:i+1], set[:i])
			set[0] = line
			c.Stats.Hits++
			return true
		}
	}
	c.Stats.Misses++
	return false
}

// Insert fills a line, evicting LRU on conflict.
func (c *Cache) Insert(line uint64) {
	si := c.setOf(line)
	set := c.sets[si]
	for i, l := range set {
		if l == line {
			copy(set[1:i+1], set[:i])
			set[0] = line
			return
		}
	}
	if len(set) < c.cfg.Ways {
		set = append(set, 0)
	} else {
		c.Stats.Evictions++
	}
	copy(set[1:], set)
	set[0] = line
	c.sets[si] = set
}

// MissTrack registers an outstanding miss on line.
//
//	primary=true  — caller must fetch the line downstream and call Fill.
//	primary=false, ok=true — merged; w wakes at Fill time.
//	ok=false      — MSHR file full; caller must stall/retry.
func (c *Cache) MissTrack(line uint64, w Waiter) (primary, ok bool) {
	if ws, exists := c.pending[line]; exists {
		c.pending[line] = append(ws, w)
		c.Stats.MSHRMerge++
		return false, true
	}
	if len(c.pending) >= c.cfg.MSHRs {
		c.Stats.MSHRStall++
		return false, false
	}
	c.pending[line] = []Waiter{w}
	return true, true
}

// OutstandingMisses returns occupied MSHR count.
func (c *Cache) OutstandingMisses() int { return len(c.pending) }

// Fill completes an outstanding miss: installs the line and releases every
// merged waiter.
func (c *Cache) Fill(line uint64) {
	c.Insert(line)
	ws := c.pending[line]
	delete(c.pending, line)
	for _, w := range ws {
		w.LineFilled(line)
	}
}

// Flush empties the cache (MSHRs are unaffected).
func (c *Cache) Flush() {
	for i := range c.sets {
		c.sets[i] = c.sets[i][:0]
	}
}

// Len returns resident line count.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.sets {
		n += len(s)
	}
	return n
}
