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
	if g.mat {
		t.Fatal("stat readers materialized the GPM")
	}
	// Traffic does materialize, exactly once.
	g.ensure()
	if !g.mat {
		t.Fatal("ensure did not materialize")
	}
}
