package iommu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hdpat/internal/tlb"
	"hdpat/internal/vm"
)

func k(v vm.VPN) tlb.Key { return tlb.Key{VPN: v} }

func TestRTInsertLookup(t *testing.T) {
	rt := NewRedirectTable(4)
	rt.Insert(k(1), 7)
	gpm, ok := rt.Lookup(k(1))
	if !ok || gpm != 7 {
		t.Fatalf("lookup = %d,%v", gpm, ok)
	}
	if _, ok := rt.Lookup(k(2)); ok {
		t.Fatal("hit for absent key")
	}
	if rt.Hits != 1 || rt.Misses != 1 {
		t.Errorf("hits=%d misses=%d", rt.Hits, rt.Misses)
	}
}

func TestRTLRUEviction(t *testing.T) {
	rt := NewRedirectTable(2)
	rt.Insert(k(1), 1)
	rt.Insert(k(2), 2)
	rt.Lookup(k(1)) // 1 MRU
	rt.Insert(k(3), 3)
	if _, ok := rt.Lookup(k(2)); ok {
		t.Error("LRU entry survived")
	}
	if _, ok := rt.Lookup(k(1)); !ok {
		t.Error("MRU entry evicted")
	}
	if rt.Evictions != 1 {
		t.Errorf("evictions = %d", rt.Evictions)
	}
}

func TestRTReinsertRepoints(t *testing.T) {
	rt := NewRedirectTable(4)
	rt.Insert(k(1), 5)
	rt.Insert(k(1), 9)
	if rt.Len() != 1 {
		t.Fatalf("len = %d", rt.Len())
	}
	gpm, _ := rt.Lookup(k(1))
	if gpm != 9 {
		t.Errorf("gpm = %d, want 9", gpm)
	}
}

func TestRTRemove(t *testing.T) {
	rt := NewRedirectTable(4)
	rt.Insert(k(1), 5)
	if !rt.Remove(k(1)) {
		t.Fatal("remove of present key failed")
	}
	if rt.Remove(k(1)) {
		t.Fatal("double remove succeeded")
	}
	if _, ok := rt.Lookup(k(1)); ok {
		t.Error("removed key still present")
	}
}

func TestRTZeroCapacity(t *testing.T) {
	rt := NewRedirectTable(0)
	rt.Insert(k(1), 5) // must not panic
	if rt.Len() != 0 {
		t.Error("zero-cap table stored an entry")
	}
}

// Property: table never exceeds capacity and lookups return the most recent
// insert for each key.
func TestRTProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rt := NewRedirectTable(16)
		ref := map[tlb.Key]int{}
		for i := 0; i < 500; i++ {
			key := k(vm.VPN(rng.Intn(40)))
			gpm := rng.Intn(48)
			rt.Insert(key, gpm)
			ref[key] = gpm
			if rt.Len() > 16 {
				return false
			}
		}
		for key, want := range ref {
			if got, ok := rt.Lookup(key); ok && got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// The index-linked table against a slice-ordered reference LRU: random
// inserts, lookups, removals and resets (to a capacity of their own) must
// agree on every answer, on residency and on the counters.
func TestRTMatchesReferenceLRU(t *testing.T) {
	type entry struct {
		key tlb.Key
		gpm int
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(8)
		rt := NewRedirectTable(capacity)
		var ref []entry // MRU first
		var evictions uint64
		find := func(key tlb.Key) int {
			for i, e := range ref {
				if e.key == key {
					return i
				}
			}
			return -1
		}
		for op := 0; op < 2000; op++ {
			key := k(vm.VPN(rng.Intn(12)))
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				gpm := rng.Intn(48)
				rt.Insert(key, gpm)
				if i := find(key); i >= 0 {
					ref = append(ref[:i], ref[i+1:]...)
				} else if len(ref) >= capacity {
					ref = ref[:len(ref)-1]
					evictions++
				}
				ref = append([]entry{{key, gpm}}, ref...)
			case 4, 5, 6, 7:
				got, ok := rt.Lookup(key)
				i := find(key)
				if ok != (i >= 0) || (ok && got != ref[i].gpm) {
					t.Fatalf("seed %d op %d: Lookup(%v) = %d, %v; reference %v", seed, op, key, got, ok, ref)
				}
				if i >= 0 {
					e := ref[i]
					ref = append([]entry{e}, append(ref[:i], ref[i+1:]...)...)
				}
			case 8:
				i := find(key)
				if got := rt.Remove(key); got != (i >= 0) {
					t.Fatalf("seed %d op %d: Remove(%v) = %v", seed, op, key, got)
				}
				if i >= 0 {
					ref = append(ref[:i], ref[i+1:]...)
				}
			case 9:
				if rng.Intn(20) == 0 {
					capacity = 1 + rng.Intn(8)
					rt.Reset(capacity)
					ref, evictions = nil, 0
				}
			}
			if rt.Len() != len(ref) || rt.Evictions != evictions || rt.Capacity() != capacity {
				t.Fatalf("seed %d op %d: len %d evictions %d cap %d; reference %d, %d, %d",
					seed, op, rt.Len(), rt.Evictions, rt.Capacity(), len(ref), evictions, capacity)
			}
		}
	}
}

// A reset table refills into the storage it kept: filling hdpat's
// 1024-entry table, overflowing it and resetting it allocates nothing once
// the table has been filled before.
func TestRTRefillAllocatesNothing(t *testing.T) {
	const capacity = 1024
	rt := NewRedirectTable(capacity)
	allocs := testing.AllocsPerRun(5, func() {
		rt.Reset(capacity)
		for v := range capacity + capacity/4 {
			rt.Insert(k(vm.VPN(v)), v%48)
		}
	})
	if allocs != 0 {
		t.Fatalf("a refill after Reset allocated %.0f times", allocs)
	}
	if cap(rt.slots) != capacity {
		t.Fatalf("slots hold %d entries, capacity %d", cap(rt.slots), capacity)
	}
}
