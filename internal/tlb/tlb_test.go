package tlb

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hdpat/internal/vm"
)

func mkTLB(sets, ways int) *TLB {
	return New(Config{Sets: sets, Ways: ways, MSHRs: 4, Latency: 4})
}

func pte(v vm.VPN) vm.PTE { return vm.PTE{VPN: v, PFN: vm.PFN(v * 10), Valid: true} }

func TestLookupMissThenHit(t *testing.T) {
	tl := mkTLB(4, 2)
	k := Key{VPN: 42}
	if _, ok := tl.Lookup(k); ok {
		t.Fatal("hit in empty TLB")
	}
	tl.Insert(pte(42))
	got, ok := tl.Lookup(k)
	if !ok || got.PFN != 420 {
		t.Fatalf("lookup after insert: %+v ok=%v", got, ok)
	}
	if tl.Stats.Hits != 1 || tl.Stats.Misses != 1 {
		t.Errorf("stats = %+v", tl.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	// 1 set, 2 ways: inserting a third entry evicts the LRU.
	tl := mkTLB(1, 2)
	tl.Insert(pte(1))
	tl.Insert(pte(2))
	tl.Lookup(Key{VPN: 1}) // 1 becomes MRU, 2 is LRU
	tl.Insert(pte(3))      // evicts 2
	if _, ok := tl.Peek(Key{VPN: 2}); ok {
		t.Error("LRU entry 2 survived")
	}
	if _, ok := tl.Peek(Key{VPN: 1}); !ok {
		t.Error("MRU entry 1 evicted")
	}
	if tl.Stats.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", tl.Stats.Evictions)
	}
}

func TestOnEvictCallback(t *testing.T) {
	tl := mkTLB(1, 1)
	var evicted []vm.VPN
	tl.OnEvict = func(p vm.PTE) { evicted = append(evicted, p.VPN) }
	tl.Insert(pte(1))
	tl.Insert(pte(2))
	tl.Insert(pte(3))
	if len(evicted) != 2 || evicted[0] != 1 || evicted[1] != 2 {
		t.Fatalf("evicted = %v", evicted)
	}
}

func TestReinsertRefreshes(t *testing.T) {
	tl := mkTLB(1, 2)
	tl.Insert(pte(1))
	tl.Insert(pte(2))
	tl.Insert(pte(1)) // refresh, not duplicate
	if tl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tl.Len())
	}
	tl.Insert(pte(3)) // evicts 2 (LRU), not 1
	if _, ok := tl.Peek(Key{VPN: 1}); !ok {
		t.Error("refreshed entry was evicted")
	}
}

func TestInvalidate(t *testing.T) {
	tl := mkTLB(2, 2)
	tl.Insert(pte(5))
	if !tl.Invalidate(Key{VPN: 5}) {
		t.Fatal("invalidate of present entry returned false")
	}
	if tl.Invalidate(Key{VPN: 5}) {
		t.Fatal("double invalidate returned true")
	}
	if tl.Len() != 0 {
		t.Errorf("Len = %d", tl.Len())
	}
}

func TestFlush(t *testing.T) {
	tl := mkTLB(4, 4)
	for v := vm.VPN(0); v < 16; v++ {
		tl.Insert(pte(v))
	}
	tl.Flush()
	if tl.Len() != 0 {
		t.Fatalf("Len = %d after flush", tl.Len())
	}
}

func TestPIDsAreSeparate(t *testing.T) {
	tl := mkTLB(8, 4)
	tl.Insert(vm.PTE{VPN: 9, PFN: 1, PID: 1, Valid: true})
	if _, ok := tl.Peek(Key{VPN: 9, PID: 2}); ok {
		t.Error("PID 2 hit PID 1's entry")
	}
	if _, ok := tl.Peek(Key{VPN: 9, PID: 1}); !ok {
		t.Error("owning PID missed")
	}
}

// Property: TLB never exceeds capacity and lookups after inserts return the
// inserted PFN for keys still resident.
func TestTLBProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := mkTLB(4, 4)
		resident := map[Key]vm.PFN{}
		for i := 0; i < 500; i++ {
			v := vm.VPN(rng.Intn(64))
			tl.Insert(pte(v))
			resident[Key{VPN: v}] = vm.PFN(v * 10)
			if tl.Len() > tl.Capacity() {
				return false
			}
		}
		// Every entry still resident must carry the right PFN.
		for k, pfn := range resident {
			if got, ok := tl.Peek(k); ok && got.PFN != pfn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("empty stats hit rate not 0")
	}
	s.Hits, s.Misses = 3, 1
	if s.HitRate() != 0.75 {
		t.Errorf("HitRate = %f", s.HitRate())
	}
}

func TestMSHRCoalesce(t *testing.T) {
	m := NewMSHR(2)
	var results []vm.PFN
	cb := FillerFunc(func(p vm.PTE, ok bool) { results = append(results, p.PFN) })
	k := Key{VPN: 7}
	primary, ok := m.Allocate(k, cb)
	if !primary || !ok {
		t.Fatal("first allocate should be primary")
	}
	primary, ok = m.Allocate(k, cb)
	if primary || !ok {
		t.Fatal("second allocate should merge")
	}
	if m.Used() != 1 {
		t.Fatalf("Used = %d, want 1", m.Used())
	}
	m.Complete(k, vm.PTE{PFN: 99}, true)
	if len(results) != 2 || results[0] != 99 || results[1] != 99 {
		t.Fatalf("results = %v", results)
	}
	if m.Used() != 0 {
		t.Fatalf("Used = %d after complete", m.Used())
	}
}

func TestMSHRFullStalls(t *testing.T) {
	m := NewMSHR(1)
	m.Allocate(Key{VPN: 1}, FillerFunc(func(vm.PTE, bool) {}))
	_, ok := m.Allocate(Key{VPN: 2}, FillerFunc(func(vm.PTE, bool) {}))
	if ok {
		t.Fatal("allocation beyond capacity succeeded")
	}
	if m.Stalled != 1 {
		t.Errorf("Stalled = %d", m.Stalled)
	}
	// Same-key merge still works when full.
	_, ok = m.Allocate(Key{VPN: 1}, FillerFunc(func(vm.PTE, bool) {}))
	if !ok {
		t.Fatal("merge rejected while full")
	}
}

func TestMSHRCompleteUnknownKey(t *testing.T) {
	m := NewMSHR(2)
	m.Complete(Key{VPN: 5}, vm.PTE{}, false) // must not panic
}

func BenchmarkTLBLookup(b *testing.B) {
	tl := New(Config{Sets: 64, Ways: 32, Latency: 32})
	for v := vm.VPN(0); v < 2048; v++ {
		tl.Insert(pte(v))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Lookup(Key{VPN: vm.VPN(i % 4096)})
	}
}

// TestSetIsolation pins that sets, which share one backing array, never
// spill into a neighbour: filling, evicting from, invalidating in and
// refilling one set leaves every other set's entries exact, Len stays
// exact, and each set's capacity stops at Ways. Every set after the first
// runs on a flushed TLB.
func TestSetIsolation(t *testing.T) {
	const sets, ways = 4, 4
	tl := mkTLB(sets, ways)
	var evicted []vm.VPN
	tl.OnEvict = func(p vm.PTE) { evicted = append(evicted, p.VPN) }
	// vpns[s] lists ways+1 VPNs that hash to set s.
	vpns := make([][]vm.VPN, sets)
	for v, full := vm.VPN(0), 0; full < sets; v++ {
		if s := tl.setOf(Key{VPN: v}); len(vpns[s]) <= ways {
			vpns[s] = append(vpns[s], v)
			if len(vpns[s]) == ways+1 {
				full++
			}
		}
	}
	keys := func(set []entry) []vm.VPN {
		out := make([]vm.VPN, len(set))
		for i, e := range set {
			out[i] = e.key.VPN
		}
		return out
	}
	for i := 0; i < sets; i++ {
		tl.Flush()
		for s := 0; s < sets; s++ {
			for k := 0; k < ways; k++ {
				tl.Insert(pte(vpns[s][k]))
			}
		}
		before := make([][]vm.VPN, sets)
		for s := range before {
			before[s] = keys(tl.sets[s])
		}
		v := vpns[i]
		evicted = evicted[:0]
		tl.Insert(pte(v[ways])) // evicts v[0]
		if !tl.Invalidate(Key{VPN: v[2]}) {
			t.Fatalf("set %d: middle entry %d not resident", i, v[2])
		}
		if tl.Len() != sets*ways-1 {
			t.Fatalf("set %d: Len = %d after Invalidate, want %d", i, tl.Len(), sets*ways-1)
		}
		tl.Insert(pte(v[2])) // refills the freed way
		before[i] = []vm.VPN{v[2], v[ways], v[3], v[1]}
		for s := 0; s < sets; s++ {
			if got := keys(tl.sets[s]); !slices.Equal(got, before[s]) {
				t.Fatalf("after touching set %d: set %d = %v, want %v", i, s, got, before[s])
			}
			if cap(tl.sets[s]) != ways {
				t.Fatalf("set %d capacity %d, want %d", s, cap(tl.sets[s]), ways)
			}
		}
		if tl.Len() != sets*ways {
			t.Fatalf("after touching set %d: Len = %d, want %d", i, tl.Len(), sets*ways)
		}
		if !slices.Equal(evicted, []vm.VPN{v[0]}) {
			t.Fatalf("set %d: evicted %v, want [%d]", i, evicted, v[0])
		}
	}
	tl.Flush()
	if tl.Len() != 0 {
		t.Fatalf("Len = %d after Flush", tl.Len())
	}
}
