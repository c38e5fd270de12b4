// Package cache models the GPM data caches of Table I: per-CU L1
// vector/scalar/instruction caches and the per-GPM shared L2, all
// set-associative with LRU replacement and bounded MSHR files. The model is
// presence-only (no dirty writeback traffic): the translation study's
// workloads are read-dominated and the paper's bottleneck is translation, so
// the data path only needs to produce realistic latencies and downstream
// request rates.
package cache

import (
	"hdpat/internal/mshr"
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

// Cache is a set-associative LRU cache of line addresses. Set s owns
// lines[s*Ways:(s+1)*Ways], of which the first n[s] are resident in recency
// order (0 = MRU).
type Cache struct {
	cfg   Config
	lines []uint64
	n     []uint32
	Stats Stats

	pending mshr.File[uint64, Waiter]
}

// New creates a cache.
func New(cfg Config) *Cache {
	n := cfg.Sets()
	return &Cache{cfg: cfg, lines: make([]uint64, n*cfg.Ways), n: make([]uint32, n)}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Latency returns the hit latency.
func (c *Cache) Latency() sim.VTime { return c.cfg.Latency }

func (c *Cache) setOf(line uint64) int { return int(line % uint64(len(c.n))) }

// resident returns set s's resident lines, MRU first.
func (c *Cache) resident(s int) []uint64 {
	base := s * c.cfg.Ways
	return c.lines[base : base+int(c.n[s])]
}

// Lookup probes for a line, promoting hits to MRU.
func (c *Cache) Lookup(line uint64) bool {
	set := c.resident(c.setOf(line))
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
	s := c.setOf(line)
	set := c.resident(s)
	for i, l := range set {
		if l == line {
			copy(set[1:i+1], set[:i])
			set[0] = line
			return
		}
	}
	if len(set) < c.cfg.Ways {
		c.n[s]++
		set = set[:len(set)+1]
	} else {
		c.Stats.Evictions++
	}
	copy(set[1:], set)
	set[0] = line
}

// MissTrack registers an outstanding miss on line.
//
//	primary=true  — caller must fetch the line downstream and call Fill.
//	primary=false, ok=true — merged; w wakes at Fill time.
//	ok=false      — MSHR file full; caller must stall/retry.
func (c *Cache) MissTrack(line uint64, w Waiter) (primary, ok bool) {
	primary, ok = c.pending.Allocate(line, w, c.cfg.MSHRs)
	switch {
	case !ok:
		c.Stats.MSHRStall++
	case !primary:
		c.Stats.MSHRMerge++
	}
	return primary, ok
}

// OutstandingMisses returns occupied MSHR count.
func (c *Cache) OutstandingMisses() int { return c.pending.Len() }

// Fill completes an outstanding miss: installs the line and releases every
// merged waiter, primary first.
func (c *Cache) Fill(line uint64) {
	c.Insert(line)
	ws := c.pending.Take(line)
	for _, w := range ws {
		w.LineFilled(line)
	}
	c.pending.Release(ws)
}

// Flush empties the cache (MSHRs are unaffected).
func (c *Cache) Flush() { clear(c.n) }

// Reset returns the cache to the state New left it in: empty, Stats zeroed
// and every outstanding miss dropped with its waiters unwoken. It costs
// O(sets): lines past a set's resident count are never read, so only the
// counts are cleared.
func (c *Cache) Reset() {
	clear(c.n)
	c.Stats = Stats{}
	c.pending.Reset()
}

// Len returns resident line count.
func (c *Cache) Len() int {
	n := 0
	for _, k := range c.n {
		n += int(k)
	}
	return n
}
