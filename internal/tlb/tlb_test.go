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

// TestSetIsolation pins that sets, which share three flat arrays, never
// spill into a neighbour: filling, evicting from, invalidating in and
// refilling one set leaves every other set's recency order exact and every
// slot outside the set's own Ways untouched, Len stays exact, and exactly
// the set's LRU entry is evicted. Every set after the first runs on a
// flushed TLB.
func TestSetIsolation(t *testing.T) {
	const sets, ways = 4, 4
	tl := mkTLB(sets, ways)
	if len(tl.vpn) != sets*ways || len(tl.pte) != sets*ways || len(tl.stamp) != sets*ways {
		t.Fatalf("arrays hold %d/%d/%d slots, want %d", len(tl.vpn), len(tl.pte), len(tl.stamp), sets*ways)
	}
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
	keys := func(s int) []vm.VPN {
		var out []vm.VPN
		for _, k := range recency(tl, s) {
			out = append(out, k.VPN)
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
			before[s] = keys(s)
		}
		vpn, ptes, stamp := slices.Clone(tl.vpn), slices.Clone(tl.pte), slices.Clone(tl.stamp)
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
			if got := keys(s); !slices.Equal(got, before[s]) {
				t.Fatalf("after touching set %d: set %d = %v, want %v", i, s, got, before[s])
			}
		}
		for j := range stamp {
			if j/ways != i && (tl.vpn[j] != vpn[j] || tl.pte[j] != ptes[j] || tl.stamp[j] != stamp[j]) {
				t.Fatalf("touching set %d wrote slot %d of set %d", i, j, j/ways)
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

// TestMSHRWakeOrder pins that completion wakes the primary first, then the
// merged waiters in arrival order.
func TestMSHRWakeOrder(t *testing.T) {
	m := NewMSHR(4)
	var order []int
	k := Key{VPN: 3}
	for id := 0; id < 5; id++ {
		m.Allocate(k, FillerFunc(func(vm.PTE, bool) { order = append(order, id) }))
	}
	m.Complete(k, vm.PTE{}, true)
	if !slices.Equal(order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("wake order %v", order)
	}
}

// TestMSHRSwapRemove completes a register from the middle of the file, so
// the last register moves into its slot, and checks every remaining
// register's waiter count and key-to-waiter binding.
func TestMSHRSwapRemove(t *testing.T) {
	m := NewMSHR(4)
	var woke []Key
	for v := vm.VPN(0); v < 4; v++ {
		k := Key{VPN: v}
		for n := vm.VPN(0); n <= v; n++ {
			m.Allocate(k, FillerFunc(func(vm.PTE, bool) { woke = append(woke, k) }))
		}
	}
	m.Complete(Key{VPN: 1}, vm.PTE{}, true)
	if m.Used() != 3 {
		t.Fatalf("Used = %d, want 3", m.Used())
	}
	for v, want := range []int{1, 0, 3, 4} {
		if got := m.Waiters(Key{VPN: vm.VPN(v)}); got != want {
			t.Fatalf("Waiters(%d) = %d, want %d", v, got, want)
		}
	}
	for _, v := range []vm.VPN{3, 0, 2} {
		woke = woke[:0]
		m.Complete(Key{VPN: v}, vm.PTE{}, true)
		if len(woke) != int(v)+1 || slices.ContainsFunc(woke, func(k Key) bool { return k.VPN != v }) {
			t.Fatalf("completing %d woke %v", v, woke)
		}
	}
	if m.Used() != 0 {
		t.Fatalf("Used = %d after draining", m.Used())
	}
}

// TestMSHRReallocateDuringComplete pins that a waiter re-allocating its own
// key from inside Complete gets a fresh primary register and does not
// disturb the list still being woken.
func TestMSHRReallocateDuringComplete(t *testing.T) {
	m := NewMSHR(2)
	k := Key{VPN: 9}
	var order []string
	var reprimary []bool
	for _, name := range []string{"a", "b", "c"} {
		m.Allocate(k, FillerFunc(func(vm.PTE, bool) {
			order = append(order, name)
			p, ok := m.Allocate(k, FillerFunc(func(vm.PTE, bool) { order = append(order, name+"'") }))
			reprimary = append(reprimary, p && ok)
		}))
	}
	m.Complete(k, vm.PTE{}, true)
	if !slices.Equal(order, []string{"a", "b", "c"}) {
		t.Fatalf("first wake %v", order)
	}
	if !slices.Equal(reprimary, []bool{true, false, false}) {
		t.Fatalf("re-allocations primary = %v, want only the first", reprimary)
	}
	if m.Used() != 1 || m.Waiters(k) != 3 {
		t.Fatalf("Used %d Waiters %d, want 1 and 3", m.Used(), m.Waiters(k))
	}
	order = order[:0]
	m.Complete(k, vm.PTE{}, true)
	if !slices.Equal(order, []string{"a'", "b'", "c'"}) || m.Used() != 0 {
		t.Fatalf("second wake %v, Used %d", order, m.Used())
	}
}

type nopFiller struct{}

func (nopFiller) Fill(vm.PTE, bool) {}

// TestMSHRNoAllocs pins that allocate, merge and complete cycles allocate
// nothing once the register file has warmed up.
func TestMSHRNoAllocs(t *testing.T) {
	m := NewMSHR(32)
	var w Filler = nopFiller{}
	cycle := func() {
		for v := vm.VPN(0); v < 32; v++ {
			m.Allocate(Key{VPN: v}, w)
			m.Allocate(Key{VPN: v}, w)
		}
		for v := vm.VPN(0); v < 32; v++ {
			m.Complete(Key{VPN: (v * 7) % 32}, vm.PTE{}, true)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("%v allocations per cycle, want 0", n)
	}
}

var sinkPTE vm.PTE

// BenchmarkTLBLookup prices, on the Table I L2 TLB (64 sets × 32 ways) and
// L1 TLB (1 × 32) geometries, a lookup that hits half the time, and a miss
// followed by the Insert that fills it, evicting the set's LRU entry.
func BenchmarkTLBLookup(b *testing.B) {
	for _, g := range []struct {
		name       string
		sets, ways int
	}{{"L2", 64, 32}, {"L1", 1, 32}} {
		n := vm.VPN(g.sets * g.ways)
		b.Run(g.name, func(b *testing.B) {
			b.Run("lookup", func(b *testing.B) {
				tl := New(Config{Sets: g.sets, Ways: g.ways})
				for v := vm.VPN(0); v < n; v++ {
					tl.Insert(pte(v))
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sinkPTE, _ = tl.Lookup(Key{VPN: vm.VPN(i) % (2 * n)})
				}
			})
			b.Run("miss-insert", func(b *testing.B) {
				tl := New(Config{Sets: g.sets, Ways: g.ways})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := Key{VPN: vm.VPN(i)}
					if _, ok := tl.Lookup(k); !ok {
						tl.Insert(pte(k.VPN))
					}
				}
			})
		})
	}
}

// BenchmarkMSHR prices one miss lifecycle on the Table I L2 TLB MSHR file
// (32 registers, 16 occupied): allocate a register, merge a second waiter
// into it, and complete it.
func BenchmarkMSHR(b *testing.B) {
	m := NewMSHR(32)
	var w Filler = nopFiller{}
	for v := vm.VPN(0); v < 16; v++ {
		m.Allocate(Key{VPN: v}, w)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := Key{VPN: 16 + vm.VPN(i&15)}
		m.Allocate(k, w)
		m.Allocate(k, w)
		m.Complete(k, vm.PTE{}, true)
	}
}
