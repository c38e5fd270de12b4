package vm

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// Free after Migrate must unmap the migrated page from its new owner's
// local table and drop the ownership overlay, so OwnerOf reports it
// unmapped.
func TestPlacementFreeAfterMigrate(t *testing.T) {
	p := NewPlacement(4, Page4K)
	r := p.Alloc("buf", 16, 0)
	v := r.Start + 1
	if _, _, ok := p.Migrate(v, 3); !ok {
		t.Fatal("migrate failed")
	}
	if got := len(p.Free(r)); got != 16 {
		t.Fatalf("freed %d pages, want 16", got)
	}
	if p.Local(3).Contains(v) {
		t.Error("migration target's local table still maps the freed page")
	}
	if o, ok := p.OwnerOf(v); ok {
		t.Errorf("OwnerOf(freed page) = %d, true; want ok=false", o)
	}
	if p.Migrated() != 0 {
		t.Errorf("Migrated = %d after freeing the only migrated page", p.Migrated())
	}
	for i := 0; i < 4; i++ {
		if n := p.Local(i).Len(); n != 0 {
			t.Errorf("GPM %d local table holds %d pages after Free", i, n)
		}
	}
}

// A placement holds one page table, so a 30x30 wafer's placement costs
// its leaves, not one table per GPM.
func TestPlacementBytesAtScale(t *testing.T) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	p := NewPlacement(899, Page4K)
	p.Alloc("buf", 3596, 0)
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(p)
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<20 {
		t.Errorf("30x30 placement allocated %d bytes, want < 1 MB", got)
	}
}

// pageModel is the map-backed reference FuzzPageTableMatchesModel checks
// the placement against: the page table as a map, the ownership overlay,
// the live regions, and the per-GPM frame counters.
type pageModel struct {
	n       int
	table   map[VPN]PTE
	moved   map[VPN]int
	live    []Region
	all     []Region
	nextVPN VPN
	nextPFN []PFN
}

func newPageModel(n int) *pageModel {
	m := &pageModel{n: n, table: map[VPN]PTE{}, moved: map[VPN]int{}, nextVPN: 1, nextPFN: make([]PFN, n)}
	for i := range m.nextPFN {
		m.nextPFN[i] = PFN(uint64(i) << frameSpaceBits)
	}
	return m
}

func (m *pageModel) frame(o int) PFN {
	f := m.nextPFN[o]
	m.nextPFN[o]++
	return f
}

func (m *pageModel) alloc(pages int) Region {
	r := Region{Name: "r", Start: m.nextVPN, Pages: pages, ChunkPages: (pages + m.n - 1) / m.n}
	for g := 0; g < m.n; g++ {
		lo, hi := r.OwnerSlice(g, m.n)
		for i := lo; i < hi; i++ {
			v := r.Start + VPN(i)
			m.table[v] = PTE{VPN: v, PFN: m.frame(g), Owner: g, Valid: true}
		}
	}
	m.nextVPN += VPN(pages)
	m.live = append(m.live, r)
	m.all = append(m.all, r)
	return r
}

func (m *pageModel) migrate(v VPN, to int) (old, new PTE, ok bool) {
	old, ok = m.table[v]
	if !ok || old.Owner == to {
		return old, old, false
	}
	new = old
	new.Owner, new.PFN = to, m.frame(to)
	m.table[v] = new
	m.moved[v] = to
	return old, new, true
}

func (m *pageModel) free(r Region) []VPN {
	var vpns []VPN
	for i := 0; i < r.Pages; i++ {
		v := r.Start + VPN(i)
		if _, ok := m.table[v]; ok {
			vpns = append(vpns, v)
			delete(m.table, v)
		}
		delete(m.moved, v)
	}
	if i := slices.Index(m.live, r); i >= 0 {
		m.live = slices.Delete(m.live, i, i+1)
	}
	return vpns
}

func (m *pageModel) ownerOf(v VPN) (int, bool) {
	if o, ok := m.moved[v]; ok {
		return o, true
	}
	for _, r := range m.live {
		for g := 0; g < m.n; g++ {
			if lo, hi := r.OwnerSlice(g, m.n); v >= r.Start+VPN(lo) && v < r.Start+VPN(hi) {
				return g, true
			}
		}
	}
	return 0, false
}

// FuzzPageTableMatchesModel decodes the input into Alloc, Migrate, Free,
// raw global-table Insert and Remove, and Reset operations on a placement
// of 2-8 GPMs and checks the global table, every GPM's local view, OwnerOf
// and Migrated against the map-backed model after each one. A Reset, to a
// GPM count of its own, must leave a placement that matches a fresh model
// however the table was filled before, and that keeps matching it as it
// is refilled. VPNs come from the allocated range and from two far leaves
// (1<<36 and 1<<40), so sparse leaves are exercised away from the
// bump-allocated range.
func FuzzPageTableMatchesModel(f *testing.F) {
	f.Add([]byte{2, 0, 15, 0, 1, 2, 3, 2, 0, 0})
	f.Add([]byte{5, 0, 30, 0, 3, 0xf3, 4, 4, 0xf3, 0, 1, 7, 2, 2, 0, 0, 3, 0xfa, 6})
	f.Add([]byte{3, 0, 20, 0, 1, 3, 2, 3, 0xf9, 1, 5, 4, 0, 0, 20, 0, 1, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := 2 + int(data[0]%7)
		p, m := NewPlacement(n, Page4K), newPageModel(n)
		probes := map[VPN]bool{}
		pick := func(x byte) VPN {
			var v VPN
			switch {
			case x >= 0xf8:
				v = 1<<40 + VPN(x&7)
			case x >= 0xf0:
				v = 1<<36 + VPN(x&7)
			default:
				v = VPN(x) % (m.nextVPN + 2)
			}
			probes[v] = true
			return v
		}
		check := func(op int, v VPN) {
			t.Helper()
			want, wok := m.table[v]
			if got, ok := p.Global().Lookup(v); ok != wok || got != want || p.Global().Contains(v) != wok {
				t.Fatalf("op %d: Global().Lookup(%#x) = %v, %v; want %v, %v", op, uint64(v), got, ok, want, wok)
			}
			for i := 0; i < n; i++ {
				lwant, lok := want, wok && want.Owner == i
				if !lok {
					lwant = PTE{}
				}
				if got, ok := p.Local(i).Lookup(v); ok != lok || got != lwant || p.Local(i).Contains(v) != lok {
					t.Fatalf("op %d: Local(%d).Lookup(%#x) = %v, %v; want %v, %v", op, i, uint64(v), got, ok, lwant, lok)
				}
			}
			gotO, gok := p.OwnerOf(v)
			wo, wok := m.ownerOf(v)
			if gok != wok || (wok && gotO != wo) {
				t.Fatalf("op %d: OwnerOf(%#x) = %d, %v; want %d, %v", op, uint64(v), gotO, gok, wo, wok)
			}
		}
		checkLens := func(op int) {
			t.Helper()
			if got := p.Global().Len(); got != len(m.table) {
				t.Fatalf("op %d: Global().Len() = %d, want %d", op, got, len(m.table))
			}
			if got := p.Migrated(); got != len(m.moved) {
				t.Fatalf("op %d: Migrated() = %d, want %d", op, got, len(m.moved))
			}
			counts := make([]int, n)
			for _, e := range m.table {
				counts[e.Owner]++
			}
			for i, want := range counts {
				if got := p.Local(i).Len(); got != want {
					t.Fatalf("op %d: Local(%d).Len() = %d, want %d", op, i, got, want)
				}
			}
		}
		for op, i := 0, 1; i+2 < len(data) && op < 64; op, i = op+1, i+3 {
			a, b := data[i+1], data[i+2]
			var touched []VPN
			switch data[i] % 6 {
			case 0:
				pages := 1 + int(a%40)
				got, want := p.Alloc("r", pages, 0), m.alloc(pages)
				if got != want {
					t.Fatalf("op %d: Alloc = %+v, want %+v", op, got, want)
				}
				for j := 0; j < pages; j++ {
					touched = append(touched, want.Start+VPN(j))
				}
			case 1:
				v, to := pick(a), int(b)%n
				gold, gnew, gok := p.Migrate(v, to)
				wold, wnew, wok := m.migrate(v, to)
				if gok != wok || gold != wold || gnew != wnew {
					t.Fatalf("op %d: Migrate(%#x, %d) = %v %v %v; want %v %v %v", op, uint64(v), to, gold, gnew, gok, wold, wnew, wok)
				}
				touched = append(touched, v)
			case 2:
				if len(m.all) == 0 {
					continue
				}
				r := m.all[int(a)%len(m.all)]
				if got, want := p.Free(r), m.free(r); !slices.Equal(got, want) {
					t.Fatalf("op %d: Free(%+v) = %v, want %v", op, r, got, want)
				}
				for j := 0; j < r.Pages; j++ {
					touched = append(touched, r.Start+VPN(j))
				}
			case 3:
				v := pick(a)
				pte := PTE{VPN: v, PFN: PFN(a)<<8 | PFN(b), PID: PID(b >> 7), Owner: int(b) % n, Valid: true}
				p.Global().Insert(pte)
				m.table[v] = pte
				touched = append(touched, v)
			case 4:
				v := pick(a)
				_, want := m.table[v]
				delete(m.table, v)
				if got := p.Global().Remove(v); got != want {
					t.Fatalf("op %d: Remove(%#x) = %v, want %v", op, uint64(v), got, want)
				}
				touched = append(touched, v)
			case 5:
				// Everything probed or mapped so far must now be unmapped.
				for v := VPN(0); v < m.nextVPN+2; v++ {
					touched = append(touched, v)
				}
				for v := range probes {
					touched = append(touched, v)
				}
				n = 2 + int(a%7)
				p.Reset(n, Page4K)
				m = newPageModel(n)
			}
			for _, v := range touched {
				check(op, v)
			}
			checkLens(op)
		}
		for v := VPN(0); v < m.nextVPN+2; v++ {
			check(-1, v)
		}
		for v := range probes {
			check(-1, v)
		}
	})
}

// BenchmarkPageTable measures the one page table over a Table I-sized
// placement (48 GPMs, 3 x 20,000 pages): random-probe hits and misses on
// the global table and on owner views, and the placement build itself.
func BenchmarkPageTable(b *testing.B) {
	const gpms, regions, pages = 48, 3, 20000
	build := func() *Placement {
		p := NewPlacement(gpms, Page4K)
		for i := 0; i < regions; i++ {
			p.Alloc("buf", pages, 0)
		}
		return p
	}
	p := build()
	mapped := VPN(regions * pages)
	rng := rand.New(rand.NewSource(1))
	const probes = 1 << 16
	hit, miss := make([]VPN, probes), make([]VPN, probes)
	owner := make([]int, probes)
	for i := range hit {
		hit[i] = 1 + VPN(rng.Int63n(int64(mapped)))
		miss[i] = 1 + mapped + VPN(rng.Int63n(int64(mapped)))
		owner[i], _ = p.OwnerOf(hit[i])
	}
	b.Run("global-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, sinkOK = p.Global().Lookup(hit[i&(probes-1)])
		}
	})
	b.Run("global-miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, sinkOK = p.Global().Lookup(miss[i&(probes-1)])
		}
	})
	b.Run("view-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := i & (probes - 1)
			_, sinkOK = p.Local(owner[j]).Lookup(hit[j])
		}
	})
	b.Run("view-miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := i & (probes - 1)
			_, sinkOK = p.Local((owner[j] + 1) % gpms).Lookup(hit[j])
		}
	})
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p = build()
		}
	})
}

// sinkOK keeps the benchmarked lookups from being optimised away.
var sinkOK bool
