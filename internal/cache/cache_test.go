package cache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hdpat/internal/vm"
)

func mk(size, ways, mshrs int) *Cache {
	return New(Config{SizeBytes: size, Ways: ways, MSHRs: mshrs, Latency: 1})
}

func TestSetsDerivation(t *testing.T) {
	// 16 KB, 4-way, 64 B lines -> 64 sets (L1 of Table I).
	c := Config{SizeBytes: 16 << 10, Ways: 4}
	if c.Sets() != 64 {
		t.Errorf("Sets = %d, want 64", c.Sets())
	}
	// 4 MB, 16-way -> 4096 sets (L2).
	c = Config{SizeBytes: 4 << 20, Ways: 16}
	if c.Sets() != 4096 {
		t.Errorf("Sets = %d, want 4096", c.Sets())
	}
}

func TestLineOf(t *testing.T) {
	if LineOf(vm.PAddr(0)) != 0 || LineOf(vm.PAddr(63)) != 0 || LineOf(vm.PAddr(64)) != 1 {
		t.Error("LineOf boundary arithmetic wrong")
	}
}

func TestMissThenHit(t *testing.T) {
	c := mk(1024, 2, 4)
	if c.Lookup(5) {
		t.Fatal("hit in empty cache")
	}
	c.Insert(5)
	if !c.Lookup(5) {
		t.Fatal("miss after insert")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Errorf("stats %+v", c.Stats)
	}
}

func TestLRU(t *testing.T) {
	c := New(Config{SizeBytes: 2 * LineSize, Ways: 2, MSHRs: 4}) // 1 set, 2 ways
	c.Insert(0)
	c.Insert(1)
	c.Lookup(0)
	c.Insert(2) // evicts 1
	if c.Lookup(1) {
		t.Error("LRU line survived")
	}
	if !c.Lookup(0) {
		t.Error("MRU line evicted")
	}
}

func TestMSHRMergeAndFill(t *testing.T) {
	c := mk(1024, 2, 2)
	fired := 0
	p1, ok1 := c.MissTrack(9, WaiterFunc(func(uint64) { fired++ }))
	p2, ok2 := c.MissTrack(9, WaiterFunc(func(uint64) { fired++ }))
	if !p1 || !ok1 || p2 || !ok2 {
		t.Fatalf("track results %v,%v,%v,%v", p1, ok1, p2, ok2)
	}
	c.Fill(9)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if !c.Lookup(9) {
		t.Fatal("line absent after Fill")
	}
	if c.OutstandingMisses() != 0 {
		t.Fatal("MSHR not released")
	}
}

func TestMSHRFull(t *testing.T) {
	c := mk(1024, 2, 1)
	c.MissTrack(1, WaiterFunc(func(uint64) {}))
	_, ok := c.MissTrack(2, WaiterFunc(func(uint64) {}))
	if ok {
		t.Fatal("allocation beyond MSHR capacity succeeded")
	}
	if c.Stats.MSHRStall != 1 {
		t.Errorf("MSHRStall = %d", c.Stats.MSHRStall)
	}
}

// Property: capacity invariant and insert-lookup consistency.
func TestCacheProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := mk(LineSize*16, 4, 8) // 4 sets x 4 ways
		for i := 0; i < 400; i++ {
			line := uint64(rng.Intn(64))
			c.Insert(line)
			if c.Len() > 16 {
				return false
			}
			// Inserted line is immediately resident.
			if !c.Lookup(line) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFlush(t *testing.T) {
	c := mk(1024, 4, 4)
	for i := uint64(0); i < 8; i++ {
		c.Insert(i)
	}
	c.Flush()
	if c.Len() != 0 {
		t.Errorf("Len = %d after flush", c.Len())
	}
}

// TestSetIsolation pins that sets, which share one backing array, never
// spill into a neighbour: filling, evicting from and refreshing one set
// leaves every other set's contents exact, Len stays exact, and each set's
// capacity stops at Ways. Every set after the first runs on a flushed cache.
func TestSetIsolation(t *testing.T) {
	const sets, ways = 4, 4
	c := mk(LineSize*sets*ways, ways, 4)
	line := func(set, k int) uint64 { return uint64(set + k*sets) }
	for i := 0; i < sets; i++ {
		c.Flush()
		for s := 0; s < sets; s++ {
			for k := 0; k < ways; k++ {
				c.Insert(line(s, k))
			}
		}
		before := make([][]uint64, sets)
		for s := range before {
			before[s] = slices.Clone(c.sets[s])
		}
		c.Insert(line(i, ways)) // evicts line(i, 0)
		c.Insert(line(i, 2))    // refreshes a middle entry to MRU
		before[i] = []uint64{line(i, 2), line(i, ways), line(i, 3), line(i, 1)}
		for s := 0; s < sets; s++ {
			if !slices.Equal(c.sets[s], before[s]) {
				t.Fatalf("after touching set %d: set %d = %v, want %v", i, s, c.sets[s], before[s])
			}
			if cap(c.sets[s]) != ways {
				t.Fatalf("set %d capacity %d, want %d", s, cap(c.sets[s]), ways)
			}
		}
		if c.Len() != sets*ways {
			t.Fatalf("after touching set %d: Len = %d, want %d", i, c.Len(), sets*ways)
		}
		if c.Stats.Evictions != uint64(i+1) {
			t.Fatalf("Evictions = %d, want %d", c.Stats.Evictions, i+1)
		}
	}
	c.Flush()
	if c.Len() != 0 {
		t.Fatalf("Len = %d after Flush", c.Len())
	}
}

// BenchmarkCacheAccess prices one access on the Table I per-CU L1 vector
// cache geometry (16 KB, 4-way): a lookup, and a fill on a miss. Lines are
// drawn uniformly from twice the capacity, so about half the accesses hit.
func BenchmarkCacheAccess(b *testing.B) {
	c := mk(16<<10, 4, 16)
	rng := rand.New(rand.NewSource(1))
	stream := make([]uint64, 4096)
	for i := range stream {
		stream[i] = uint64(rng.Intn(2 * (16 << 10) / LineSize))
	}
	for _, l := range stream {
		c.Insert(l)
	}
	c.Stats = Stats{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := stream[i&(len(stream)-1)]
		if !c.Lookup(line) {
			c.Insert(line)
		}
	}
	b.StopTimer()
	b.ReportMetric(c.Stats.HitRate(), "hit-rate")
}
