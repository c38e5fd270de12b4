package gpm

import (
	"runtime"
	"testing"

	"hdpat/internal/config"
	"hdpat/internal/geom"
	"hdpat/internal/sim"
	"hdpat/internal/tlb"
	"hdpat/internal/vm"
)

// buildGPMs constructs n Table I GPMs, materializing each when eager is
// set, and returns the bytes allocated per GPM (runtime.MemStats.TotalAlloc
// delta — allocation totals are deterministic enough to compare layouts).
func buildGPMs(t *testing.T, n int, eager bool) float64 {
	t.Helper()
	eng := sim.NewEngine()
	cfg := config.Default().GPM
	pt := vm.NewPageTable()
	gpms := make([]*GPM, n)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := range gpms {
		gpms[i] = New(eng, i, geom.XY(i, 0), cfg, vm.Page4K, pt)
		if eager {
			gpms[i].ensure()
		}
	}
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(gpms)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
}

// Lazy instantiation is the giant-wafer memory story: a constructed but
// untouched GPM must cost a small header, not the full TLB/cache/walker
// hierarchy. The eager (materialized) layout — what every GPM paid before
// laziness — must be at least 5x more expensive per GPM, the bound the
// scale acceptance criteria pin.
func TestLazyGPMsAtLeast5xCheaper(t *testing.T) {
	const n = 899 // a 30x30 wafer's GPM count
	lazy := buildGPMs(t, n, false)
	eager := buildGPMs(t, n, true)
	t.Logf("bytes/GPM: lazy=%.0f eager=%.0f ratio=%.1fx", lazy, eager, eager/lazy)
	if lazy <= 0 || eager <= 0 {
		t.Fatalf("degenerate measurement: lazy=%.0f eager=%.0f", lazy, eager)
	}
	if eager < 5*lazy {
		t.Errorf("eager layout only %.1fx the lazy cost per GPM, want >= 5x (lazy=%.0f eager=%.0f)",
			eager/lazy, lazy, eager)
	}
}

// Stat readers on an unmaterialized GPM must not trip materialization —
// result assembly walks every GPM, and doing so must stay free for the
// idle ones.
func TestStatReadersDoNotMaterialize(t *testing.T) {
	eng := sim.NewEngine()
	g := New(eng, 0, geom.XY(0, 0), config.Default().GPM, vm.Page4K, vm.NewPageTable())
	for i, s := range g.TLBStats() {
		if s != (tlb.Stats{}) {
			t.Errorf("TLBStats %s = %+v on unmaterialized GPM", TLBLevels[i], s)
		}
	}
	if g.AuxLen() != 0 {
		t.Errorf("AuxLen = %d on unmaterialized GPM", g.AuxLen())
	}
	if s := g.AuxStats(); s.Hits != 0 || s.Misses != 0 {
		t.Errorf("AuxStats = %+v on unmaterialized GPM", s)
	}
	if g.Stats != (Stats{}) {
		t.Errorf("Stats = %+v on unmaterialized GPM", g.Stats)
	}
	g.VisitEntries(func(level string, pte vm.PTE) {
		t.Errorf("VisitEntries saw %s %v on unmaterialized GPM", level, pte)
	})
	if g.mat {
		t.Fatal("stat readers materialized the GPM")
	}
	// Traffic does materialize, exactly once.
	g.ensure()
	if !g.mat {
		t.Fatal("ensure did not materialize")
	}
}

// Headers hands a run of the last run's shape that run's headers, GPM i
// its own with its local page table, each materialized one with its
// hierarchy and CU array and the others with neither; a run of another
// shape gets new headers, header i taking what the last run's GPM i kept if
// built for the same configuration, and the headers keep no more
// hierarchies than the last run materialized.
func TestHeadersComeBackToTheirGPMs(t *testing.T) {
	cfg := config.Default().GPM
	pt := vm.NewPageTable()
	local := func(int) LocalTable { return pt }
	// kept counts the hierarchies headers hold.
	kept := func(gpms []*GPM) int {
		n := 0
		for _, g := range gpms {
			if g.l2TLB != nil {
				n++
			}
		}
		return n
	}
	var last []*GPM
	run := func(coords []geom.Coord, active ...int) []*GPM {
		t.Helper()
		gpms := Headers(last, sim.NewEngine(), coords, cfg, vm.Page4K, local)
		for _, i := range active {
			gpms[i].LoadTrace(0, []vm.VAddr{addr(1)})
			gpms[i].ensure()
		}
		Reclaim(gpms)
		last = gpms
		return gpms
	}
	small := geom.NewMesh(3, 3).GPMs()
	first := run(small, 0, 3)
	l2 := first[3].l2TLB
	second := run(small, 3, 5)
	for i, g := range second {
		if g != first[i] || g.ID != i || g.Coord != small[i] || g.localPT != pt {
			t.Fatalf("GPM %d did not get its own header back", i)
		}
	}
	if second[3].l2TLB != l2 {
		t.Fatal("GPM 3 did not get its own hierarchy back")
	}
	if second[0].l2TLB != nil || second[0].cus != nil {
		t.Fatal("a header idle in the last run kept its hierarchy or CU array")
	}
	if n := kept(last); n != 2 {
		t.Fatalf("headers hold %d hierarchies after a run that materialized 2", n)
	}
	wide := geom.NewMesh(3, 4).GPMs()
	gpms := Headers(last, sim.NewEngine(), wide, cfg, vm.Page4K, local)
	if gpms[0] == second[0] || len(gpms) != len(wide) {
		t.Fatal("a run of another shape got the last run's headers")
	}
	if gpms[3].l2TLB != l2 || gpms[3].cus == nil || gpms[5].l2TLB != second[5].l2TLB || gpms[0].l2TLB != nil {
		t.Fatal("new headers did not take the hierarchies and CU arrays the old ones at their index kept")
	}
	gpms[3].ensure()
	gpms[7].ensure()
	if gpms[3].l2TLB != l2 || gpms[7].l2TLB == nil {
		t.Fatal("materializing dropped a handed-over hierarchy or built none")
	}
	Reclaim(gpms)
	if n := kept(gpms); n != 2 {
		t.Fatalf("headers hold %d hierarchies after a run that materialized 2", n)
	}
	other := cfg
	other.NumCUs++
	for i, g := range Headers(gpms, sim.NewEngine(), wide, other, vm.Page4K, local) {
		if g.l2TLB != nil || g.cus != nil {
			t.Fatalf("GPM %d took a hierarchy built for another configuration", i)
		}
	}
}
