package tlb

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"hdpat/internal/vm"
)

// refTLB is the move-to-front TLB the flat, stamp-based TLB replaced, kept
// as the reference model: each set is a slice in recency order (index 0 =
// MRU), a hit moves its entry to the front, and a fill evicts the last
// entry once the set holds Ways entries.
type refTLB struct {
	ways    int
	sets    [][]refEntry
	stats   Stats
	onEvict func(vm.PTE)
	setOf   func(Key) int
}

type refEntry struct {
	key Key
	pte vm.PTE
}

func newRefTLB(sets, ways int, setOf func(Key) int) *refTLB {
	return &refTLB{ways: ways, sets: make([][]refEntry, sets), setOf: setOf}
}

func (t *refTLB) Lookup(k Key) (vm.PTE, bool) {
	set := t.sets[t.setOf(k)]
	for i, e := range set {
		if e.key == k {
			copy(set[1:i+1], set[:i])
			set[0] = e
			t.stats.Hits++
			return e.pte, true
		}
	}
	t.stats.Misses++
	return vm.PTE{}, false
}

func (t *refTLB) Peek(k Key) (vm.PTE, bool) {
	for _, e := range t.sets[t.setOf(k)] {
		if e.key == k {
			return e.pte, true
		}
	}
	return vm.PTE{}, false
}

func (t *refTLB) Insert(pte vm.PTE) {
	k := Key{PID: pte.PID, VPN: pte.VPN}
	si := t.setOf(k)
	set := t.sets[si]
	for i, e := range set {
		if e.key == k {
			copy(set[1:i+1], set[:i])
			set[0] = refEntry{key: k, pte: pte}
			return
		}
	}
	t.stats.Fills++
	if len(set) < t.ways {
		set = append(set, refEntry{})
	} else {
		t.stats.Evictions++
		if t.onEvict != nil {
			t.onEvict(set[len(set)-1].pte)
		}
	}
	copy(set[1:], set)
	set[0] = refEntry{key: k, pte: pte}
	t.sets[si] = set
}

func (t *refTLB) Invalidate(k Key) bool {
	si := t.setOf(k)
	set := t.sets[si]
	for i, e := range set {
		if e.key == k {
			t.sets[si] = append(set[:i], set[i+1:]...)
			return true
		}
	}
	return false
}

func (t *refTLB) Flush() {
	for i := range t.sets {
		t.sets[i] = t.sets[i][:0]
	}
}

func (t *refTLB) Len() int {
	n := 0
	for _, s := range t.sets {
		n += len(s)
	}
	return n
}

// refMSHR is the map-backed MSHR file the register arrays replaced.
type refMSHR struct {
	cap                        int
	pending                    map[Key][]Filler
	Allocated, Merged, Stalled uint64
	PeakUsed                   int
}

func (m *refMSHR) Allocate(k Key, w Filler) (primary, ok bool) {
	if ws, exists := m.pending[k]; exists {
		m.pending[k] = append(ws, w)
		m.Merged++
		return false, true
	}
	if len(m.pending) >= m.cap {
		m.Stalled++
		return false, false
	}
	m.pending[k] = []Filler{w}
	m.Allocated++
	m.PeakUsed = max(m.PeakUsed, len(m.pending))
	return true, true
}

func (m *refMSHR) Complete(k Key, pte vm.PTE, found bool) {
	ws := m.pending[k]
	delete(m.pending, k)
	for _, w := range ws {
		w.Fill(pte, found)
	}
}

// recency returns set s's resident keys, most recently used first.
func recency(t *TLB, s int) []Key {
	base := s * t.cfg.Ways
	var slots []int
	for i := base; i < base+t.cfg.Ways; i++ {
		if t.stamp[i] != 0 {
			slots = append(slots, i)
		}
	}
	slices.SortFunc(slots, func(a, b int) int { return cmp.Compare(t.stamp[b], t.stamp[a]) })
	keys := make([]Key, len(slots))
	for j, i := range slots {
		keys[j] = Key{PID: t.pte[i].PID, VPN: t.vpn[i]}
	}
	return keys
}

// logFiller records MSHR completions in order. A filler whose id is a
// multiple of 5 re-allocates its key from inside the completion, so the
// fuzz exercises re-entry into a register file that is mid-wake.
type logFiller struct {
	id  int
	k   Key
	log *[]string
	reg func(Key, Filler) (bool, bool)
}

func (f logFiller) Fill(pte vm.PTE, found bool) {
	entry := fmt.Sprintf("%d:%v:%v:%v", f.id, f.k, pte.PFN, found)
	if f.id%5 == 0 {
		p, ok := f.reg(f.k, logFiller{id: f.id + 1, k: f.k, log: f.log, reg: f.reg})
		entry += fmt.Sprintf(":re=%v,%v", p, ok)
	}
	*f.log = append(*f.log, entry)
}

// FuzzTLBMatchesReference drives the flat TLB and its MSHR file, and the
// move-to-front and map-backed models they replaced, with the same op
// sequence on a small geometry (1-4 sets, 1-8 ways, 16 keys over 2 PIDs, so
// conflicts are dense). Every return value, Stats, Len, the OnEvict
// sequence, each set's recency order, and the MSHR wake order must match.
func FuzzTLBMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 2, 0, 3, 1, 1, 0, 4})
	f.Add([]byte{3, 7, 5, 0, 5, 1, 5, 2, 6, 0, 6, 1, 7, 0, 7, 1, 5, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		sets, ways, mshrs := 1+int(data[0]%4), 1+int(data[1]%8), 1+int(data[0]>>4%4)
		got := New(Config{Sets: sets, Ways: ways})
		want := newRefTLB(sets, ways, got.setOf)
		var gotEv, wantEv []vm.PTE
		got.OnEvict = func(p vm.PTE) { gotEv = append(gotEv, p) }
		want.onEvict = func(p vm.PTE) { wantEv = append(wantEv, p) }
		gotM, wantM := NewMSHR(mshrs), &refMSHR{cap: mshrs, pending: map[Key][]Filler{}}
		var gotLog, wantLog []string
		for op, i := 0, 2; i+1 < len(data); op, i = op+1, i+2 {
			k := Key{PID: vm.PID(data[i+1] >> 7), VPN: vm.VPN(data[i+1] % 16)}
			p := vm.PTE{VPN: k.VPN, PID: k.PID, PFN: vm.PFN(op), Owner: op % 3, Valid: true}
			var g, w any
			switch data[i] % 8 {
			case 0, 1:
				gp, gok := got.Lookup(k)
				wp, wok := want.Lookup(k)
				g, w = [2]any{gp, gok}, [2]any{wp, wok}
			case 2:
				gp, gok := got.Peek(k)
				wp, wok := want.Peek(k)
				g, w = [2]any{gp, gok}, [2]any{wp, wok}
			case 3, 4:
				got.Insert(p)
				want.Insert(p)
			case 5:
				g, w = got.Invalidate(k), want.Invalidate(k)
			case 6:
				gp, gok := gotM.Allocate(k, logFiller{id: op, k: k, log: &gotLog, reg: gotM.Allocate})
				wp, wok := wantM.Allocate(k, logFiller{id: op, k: k, log: &wantLog, reg: wantM.Allocate})
				g, w = [2]bool{gp, gok}, [2]bool{wp, wok}
			case 7:
				if data[i+1]&0x40 != 0 {
					got.Flush()
					want.Flush()
					break
				}
				gotM.Complete(k, p, op%2 == 0)
				wantM.Complete(k, p, op%2 == 0)
			}
			if g != w {
				t.Fatalf("op %d (%d on %v): got %v, reference %v", op, data[i]%8, k, g, w)
			}
			if got.Stats != want.stats || got.Len() != want.Len() {
				t.Fatalf("op %d: stats %+v len %d, reference %+v len %d", op, got.Stats, got.Len(), want.stats, want.Len())
			}
			for s := range want.sets {
				wk := make([]Key, len(want.sets[s]))
				for j, e := range want.sets[s] {
					wk[j] = e.key
				}
				if gk := recency(got, s); !slices.Equal(gk, wk) {
					t.Fatalf("op %d: set %d recency %v, reference %v", op, s, gk, wk)
				}
			}
			if !slices.Equal(gotEv, wantEv) {
				t.Fatalf("op %d: evicted %v, reference %v", op, gotEv, wantEv)
			}
			gs := [4]uint64{gotM.Allocated, gotM.Merged, gotM.Stalled, uint64(gotM.PeakUsed)}
			ws := [4]uint64{wantM.Allocated, wantM.Merged, wantM.Stalled, uint64(wantM.PeakUsed)}
			if gs != ws || gotM.Used() != len(wantM.pending) || gotM.Waiters(k) != len(wantM.pending[k]) {
				t.Fatalf("op %d: mshr %v used %d, reference %v used %d", op, gs, gotM.Used(), ws, len(wantM.pending))
			}
			if !slices.Equal(gotLog, wantLog) {
				t.Fatalf("op %d: wake order %v, reference %v", op, gotLog, wantLog)
			}
		}
	})
}
