package cache

import (
	"fmt"
	"slices"
	"testing"
)

// refCache is the cache the flat layout replaced, kept as the reference
// model: one recency-ordered slice per set (index 0 = MRU) and a map from
// line to the waiters of its outstanding miss.
type refCache struct {
	ways, mshrs int
	sets        [][]uint64
	stats       Stats
	pending     map[uint64][]Waiter
}

func newRefCache(cfg Config) *refCache {
	return &refCache{ways: cfg.Ways, mshrs: cfg.MSHRs, sets: make([][]uint64, cfg.Sets()), pending: map[uint64][]Waiter{}}
}

func (c *refCache) setOf(line uint64) int { return int(line % uint64(len(c.sets))) }

func (c *refCache) Lookup(line uint64) bool {
	set := c.sets[c.setOf(line)]
	for i, l := range set {
		if l == line {
			copy(set[1:i+1], set[:i])
			set[0] = line
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

func (c *refCache) Insert(line uint64) {
	si := c.setOf(line)
	set := c.sets[si]
	for i, l := range set {
		if l == line {
			copy(set[1:i+1], set[:i])
			set[0] = line
			return
		}
	}
	if len(set) < c.ways {
		set = append(set, 0)
	} else {
		c.stats.Evictions++
	}
	copy(set[1:], set)
	set[0] = line
	c.sets[si] = set
}

func (c *refCache) MissTrack(line uint64, w Waiter) (primary, ok bool) {
	if ws, exists := c.pending[line]; exists {
		c.pending[line] = append(ws, w)
		c.stats.MSHRMerge++
		return false, true
	}
	if len(c.pending) >= c.mshrs {
		c.stats.MSHRStall++
		return false, false
	}
	c.pending[line] = []Waiter{w}
	return true, true
}

func (c *refCache) Fill(line uint64) {
	c.Insert(line)
	ws := c.pending[line]
	delete(c.pending, line)
	for _, w := range ws {
		w.LineFilled(line)
	}
}

func (c *refCache) Flush() {
	for i := range c.sets {
		c.sets[i] = c.sets[i][:0]
	}
}

func (c *refCache) Len() int {
	n := 0
	for _, s := range c.sets {
		n += len(s)
	}
	return n
}

// resident returns set s's lines, most recently used first.
func resident(c *Cache, s int) []uint64 {
	base := s * c.cfg.Ways
	return c.lines[base : base+int(c.n[s])]
}

// logWaiter records fills in order. A waiter whose id is a multiple of 5
// re-tracks its line from inside the fill, so the fuzz exercises re-entry
// into a register file that is mid-wake.
type logWaiter struct {
	id    int
	log   *[]string
	track func(uint64, Waiter) (bool, bool)
}

func (w logWaiter) LineFilled(line uint64) {
	entry := fmt.Sprintf("%d:%d", w.id, line)
	if w.id%5 == 0 {
		p, ok := w.track(line, logWaiter{id: w.id + 1, log: w.log, track: w.track})
		entry += fmt.Sprintf(":re=%v,%v", p, ok)
	}
	*w.log = append(*w.log, entry)
}

// FuzzCacheMatchesReference drives the flat cache and the per-set-slice,
// map-backed model it replaced with the same op sequence on a small
// geometry (1-4 sets, 1-8 ways, 1-4 MSHRs, 16 lines, so conflicts are
// dense). Every return value, Stats, Len, OutstandingMisses, each set's
// recency order and the waiter wake order must match.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 1, 2, 3, 2, 3, 3, 3, 0, 3})
	f.Add([]byte{0x23, 7, 1, 0, 1, 4, 1, 8, 1, 12, 2, 4, 3, 4, 4, 0, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		sets, ways, mshrs := 1+int(data[0]%4), 1+int(data[1]%8), 1+int(data[0]>>4%4)
		cfg := Config{SizeBytes: sets * ways * LineSize, Ways: ways, MSHRs: mshrs}
		got, want := New(cfg), newRefCache(cfg)
		var gotLog, wantLog []string
		for op, i := 0, 2; i+1 < len(data); op, i = op+1, i+2 {
			line := uint64(data[i+1] % 16)
			var g, w [2]bool
			switch data[i] % 5 {
			case 0:
				g[0], w[0] = got.Lookup(line), want.Lookup(line)
			case 1:
				got.Insert(line)
				want.Insert(line)
			case 2:
				g[0], g[1] = got.MissTrack(line, logWaiter{id: op, log: &gotLog, track: got.MissTrack})
				w[0], w[1] = want.MissTrack(line, logWaiter{id: op, log: &wantLog, track: want.MissTrack})
			case 3:
				got.Fill(line)
				want.Fill(line)
			case 4:
				got.Flush()
				want.Flush()
			}
			if g != w {
				t.Fatalf("op %d (%d on line %d): got %v, reference %v", op, data[i]%5, line, g, w)
			}
			if got.Stats != want.stats || got.Len() != want.Len() || got.OutstandingMisses() != len(want.pending) {
				t.Fatalf("op %d: stats %+v len %d outstanding %d, reference %+v len %d outstanding %d",
					op, got.Stats, got.Len(), got.OutstandingMisses(), want.stats, want.Len(), len(want.pending))
			}
			for s := range want.sets {
				if gs := resident(got, s); !slices.Equal(gs, want.sets[s]) {
					t.Fatalf("op %d: set %d = %v, reference %v", op, s, gs, want.sets[s])
				}
			}
			if !slices.Equal(gotLog, wantLog) {
				t.Fatalf("op %d: wake order %v, reference %v", op, gotLog, wantLog)
			}
		}
	})
}
