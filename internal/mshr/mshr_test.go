package mshr

import (
	"slices"
	"testing"
)

// Allocate opens one register per key, merges later waiters into it in
// arrival order, and refuses a new key once capacity registers are taken.
func TestAllocateMergeAndFull(t *testing.T) {
	var f File[int, string]
	if p, ok := f.Allocate(1, "a", 2); !p || !ok {
		t.Fatalf("first miss on 1: primary=%v ok=%v, want a new register", p, ok)
	}
	if p, ok := f.Allocate(1, "b", 2); p || !ok {
		t.Fatalf("second miss on 1: primary=%v ok=%v, want a merge", p, ok)
	}
	if p, ok := f.Allocate(2, "c", 2); !p || !ok {
		t.Fatalf("first miss on 2: primary=%v ok=%v, want a new register", p, ok)
	}
	if p, ok := f.Allocate(3, "d", 2); p || ok {
		t.Fatalf("miss on 3 with 2/2 registers: primary=%v ok=%v, want a stall", p, ok)
	}
	// A full file still merges into an open register.
	if p, ok := f.Allocate(2, "e", 2); p || !ok {
		t.Fatalf("merge into 2 with a full file: primary=%v ok=%v", p, ok)
	}
	if f.Len() != 2 || f.Waiters(1) != 2 || f.Waiters(2) != 2 || f.Waiters(3) != 0 {
		t.Fatalf("Len %d waiters 1:%d 2:%d 3:%d, want 2, 2, 2, 0", f.Len(), f.Waiters(1), f.Waiters(2), f.Waiters(3))
	}
	if ws := f.Take(1); !slices.Equal(ws, []string{"a", "b"}) {
		t.Fatalf("Take(1) = %v, want primary then merge", ws)
	}
}

// Take swap-removes a register: the last register moves into the hole and
// stays findable, and a taken key is gone.
func TestTakeSwapRemove(t *testing.T) {
	var f File[int, int]
	for k := 1; k <= 4; k++ {
		f.Allocate(k, k*10, 4)
	}
	if ws := f.Take(2); !slices.Equal(ws, []int{20}) {
		t.Fatalf("Take(2) = %v", ws)
	}
	if f.Len() != 3 || f.Waiters(2) != 0 {
		t.Fatalf("after Take(2): Len %d, waiters on 2 %d", f.Len(), f.Waiters(2))
	}
	if !slices.Equal(f.keys, []int{1, 4, 3}) {
		t.Fatalf("keys %v, want the last register swapped into the hole", f.keys)
	}
	for _, k := range []int{1, 3, 4} {
		if ws := f.Take(k); !slices.Equal(ws, []int{k * 10}) {
			t.Fatalf("Take(%d) = %v after the swap", k, ws)
		}
	}
	if f.Take(9) != nil {
		t.Fatal("Take of an unknown key returned waiters")
	}
}

// The register is gone before its waiters wake, so a waiter that misses on
// the same key again opens a fresh register rather than joining the list
// being woken.
func TestTakeThenReallocateDuringWake(t *testing.T) {
	var f File[int, int]
	f.Allocate(7, 1, 1)
	f.Allocate(7, 2, 1)
	ws := f.Take(7)
	var woke []int
	for _, w := range ws {
		woke = append(woke, w)
		if w == 1 {
			if p, ok := f.Allocate(7, 3, 1); !p || !ok {
				t.Fatalf("re-entry during wake: primary=%v ok=%v, want a fresh register", p, ok)
			}
		}
	}
	f.Release(ws)
	if !slices.Equal(woke, []int{1, 2}) {
		t.Fatalf("woke %v, want the original two waiters only", woke)
	}
	if next := f.Take(7); !slices.Equal(next, []int{3}) {
		t.Fatalf("fresh register holds %v, want the re-entered waiter", next)
	}
}

// Release clears a taken list and hands its storage to the next primary
// miss.
func TestReleaseReusesLists(t *testing.T) {
	var f File[int, *int]
	x := new(int)
	f.Allocate(1, x, 1)
	f.Allocate(1, x, 1)
	ws := f.Take(1)
	f.Release(ws)
	if ws[0] != nil || ws[1] != nil {
		t.Fatal("Release kept pointers to woken waiters")
	}
	f.Allocate(2, x, 1)
	if &f.waiters[0][:1][0] != &ws[:1][0] {
		t.Fatal("the next primary miss did not reuse the released list")
	}
	f.Release(nil) // a Take of an unknown key hands back nil
	if len(f.free) != 0 {
		t.Fatalf("Release(nil) stored a list: %d free", len(f.free))
	}
}

// Reset drops every register and waiter unwoken, clears the waiter
// pointers, and keeps each list for reuse.
func TestResetKeepsListStorage(t *testing.T) {
	var f File[int, *int]
	x := new(int)
	for k := range 3 {
		f.Allocate(k, x, 3)
		f.Allocate(k, x, 3)
	}
	lists := [][]*int{f.waiters[0], f.waiters[1], f.waiters[2]}
	f.Reset()
	if f.Len() != 0 {
		t.Fatalf("Len %d after Reset", f.Len())
	}
	for k := range 3 {
		if f.Waiters(k) != 0 || f.Take(k) != nil {
			t.Fatalf("key %d still has a register after Reset", k)
		}
	}
	for i, ws := range lists {
		if ws[0] != nil || ws[1] != nil {
			t.Fatalf("list %d still points at a waiter after Reset", i)
		}
	}
	if len(f.free) != 3 {
		t.Fatalf("%d lists kept for reuse, want 3", len(f.free))
	}
	for _, v := range f.waiters[:cap(f.waiters)] {
		if v != nil {
			t.Fatal("the register array still references a list after Reset")
		}
	}
	// The lists serve the next misses without allocating.
	allocs := testing.AllocsPerRun(1, func() {
		for k := range 3 {
			f.Allocate(k, x, 3)
		}
	})
	if allocs != 0 {
		t.Fatalf("refilling a reset file allocated %.0f times", allocs)
	}
}

// Once warmed, a miss, merge, take and release cycle allocates nothing.
func TestNoAllocsAfterWarmUp(t *testing.T) {
	var f File[uint64, *int]
	x := new(int)
	cycle := func() {
		for k := range uint64(4) {
			f.Allocate(k, x, 4)
			f.Allocate(k, x, 4)
		}
		for k := range uint64(4) {
			f.Release(f.Take(k))
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warm file allocated %.1f times per cycle", allocs)
	}
}

// A merge that fills its register's list moves the waiters into a roomier
// free list, in order, instead of growing the full one.
func TestMergeTakesRoomierFreeList(t *testing.T) {
	var f File[int, int]
	for w := range 8 {
		f.Allocate(1, w, 2)
	}
	roomy := f.Take(1)
	f.Release(roomy) // a free list with room for 8
	f.Allocate(2, 0, 2)
	f.Allocate(2, 1, 2) // the primary took the roomy list
	f.Allocate(3, 0, 2) // a new, full list of one
	if p, ok := f.Allocate(3, 1, 2); p || !ok {
		t.Fatalf("merge: primary=%v ok=%v", p, ok)
	}
	f.Release(f.Take(2)) // the roomy list is free again
	if p, ok := f.Allocate(3, 2, 2); p || !ok {
		t.Fatalf("merge: primary=%v ok=%v", p, ok)
	}
	got := f.Take(3)
	if !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("waiters %v after the swap, want [0 1 2]", got)
	}
	if &got[:1][0] != &roomy[:1][0] {
		t.Fatal("the merge grew its full list while a roomier one was free")
	}
}
