package core

import (
	"testing"

	"hdpat/internal/config"
	"hdpat/internal/geom"
	"hdpat/internal/gpm"
	"hdpat/internal/iommu"
	"hdpat/internal/noc"
	"hdpat/internal/sim"
	"hdpat/internal/vm"
	"hdpat/internal/xlat"
)

// testFabric builds a minimal 5x5 wafer with 64 globally mapped pages
// (VPNs 1..64) owned by GPM (id % 24) and empty local page tables, so every
// translation is remote.
func testFabric(t *testing.T, ioCfg config.IOMMU) (*Fabric, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	mesh := geom.NewMesh(5, 5)
	layout := geom.NewLayout(mesh)
	network := noc.New(eng, mesh, noc.DefaultConfig())

	global := vm.NewPageTable()
	for v := vm.VPN(1); v <= 64; v++ {
		global.Insert(vm.PTE{VPN: v, PFN: vm.PFN(v + 7000), Owner: int(v) % 24, Valid: true})
	}

	gcfg := config.MI100GPM()
	gcfg.NumCUs = 1
	var gpms []*gpm.GPM
	reqPool := xlat.NewRequestPool()
	for i, c := range mesh.GPMs() {
		g := gpm.New(eng, i, c, gcfg, vm.Page4K, vm.NewPageTable())
		g.ReqPool = reqPool
		id := uint64(0)
		g.NextReqID = func() uint64 { id++; return id }
		gpms = append(gpms, g)
	}

	io := iommu.New(eng, ioCfg, mesh.CPU, network, global)
	io.GPMCoord = func(id int) geom.Coord { return gpms[id].Coord }

	f := &Fabric{Eng: eng, Mesh: network, Layout: layout, GPMs: gpms, IOMMU: io}
	f.Finish()
	return f, eng
}

func request(f *Fabric, id uint64, vpn vm.VPN, requester int, done func(xlat.Result)) *xlat.Request {
	return xlat.NewRequest(id, 0, vpn, requester, f.Eng.Now(), done)
}

func TestHDPATFallsThroughToIOMMU(t *testing.T) {
	f, eng := testFabric(t, config.HDPATIOMMU())
	s := NewHDPAT(f, config.DefaultHDPAT())
	var got xlat.Result
	s.Translate(request(f, 1, 10, 0, func(r xlat.Result) { got = r }))
	eng.Run()
	if got.PTE.PFN != 7010 {
		t.Fatalf("PFN = %d, want 7010", got.PTE.PFN)
	}
	if got.Source != xlat.SourceIOMMU {
		t.Errorf("cold miss source = %v, want iommu", got.Source)
	}
	if s.ToIOMMU == 0 || s.Probes == 0 {
		t.Errorf("probes=%d toIOMMU=%d", s.Probes, s.ToIOMMU)
	}
	if f.IOMMU.Stats.Walks != 1 {
		t.Errorf("walks = %d", f.IOMMU.Stats.Walks)
	}
}

func TestHDPATPeerHitAfterPush(t *testing.T) {
	f, eng := testFabric(t, config.HDPATIOMMU())
	s := NewHDPAT(f, config.DefaultHDPAT())
	// Two walks cross the push threshold and install aux copies + RT entry.
	for i := uint64(0); i < 2; i++ {
		s.Translate(request(f, i+1, 20, 0, func(xlat.Result) {}))
		eng.Run()
	}
	if f.IOMMU.Stats.PushesDemand == 0 {
		t.Fatal("no demand push after threshold")
	}
	// The next request must be served without a new walk: either by a
	// direct peer probe hit or via redirection.
	walks := f.IOMMU.Stats.Walks
	var got xlat.Result
	s.Translate(request(f, 3, 20, 5, func(r xlat.Result) { got = r }))
	eng.Run()
	if got.PTE.PFN != 7020 {
		t.Fatalf("PFN = %d", got.PTE.PFN)
	}
	if got.Source == xlat.SourceIOMMU {
		t.Errorf("request after push still served by a walk")
	}
	if f.IOMMU.Stats.Walks != walks {
		t.Errorf("extra walk performed: %d -> %d", walks, f.IOMMU.Stats.Walks)
	}
}

func TestHDPATPrefetchInstallsNeighbours(t *testing.T) {
	f, eng := testFabric(t, config.HDPATIOMMU())
	s := NewHDPAT(f, config.DefaultHDPAT())
	s.Translate(request(f, 1, 30, 0, func(xlat.Result) {}))
	eng.Run()
	if f.IOMMU.Stats.PushesPref != 3 {
		t.Fatalf("prefetch pushes = %d, want 3", f.IOMMU.Stats.PushesPref)
	}
	// A first-ever request for VPN 31 must be servable without a walk.
	walks := f.IOMMU.Stats.Walks
	var got xlat.Result
	s.Translate(request(f, 2, 31, 7, func(r xlat.Result) { got = r }))
	eng.Run()
	if got.Source == xlat.SourceIOMMU || f.IOMMU.Stats.Walks != walks {
		t.Errorf("prefetched page walked anyway: source=%v walks %d->%d",
			got.Source, walks, f.IOMMU.Stats.Walks)
	}
	if got.Source != xlat.SourceProactive && got.Source != xlat.SourceRedirect {
		t.Errorf("source = %v, want proactive or redirect", got.Source)
	}
}

func TestHDPATSequentialLayers(t *testing.T) {
	cfg := config.DefaultHDPAT()
	cfg.SequentialLayers = true
	f, eng := testFabric(t, config.HDPATIOMMU())
	s := NewHDPAT(f, cfg)
	done := false
	s.Translate(request(f, 1, 11, 0, func(xlat.Result) { done = true }))
	eng.Run()
	if !done {
		t.Fatal("sequential mode never completed")
	}
	if s.Probes != uint64(s.Layers().NumLayers()) {
		t.Errorf("sequential probes = %d, want %d", s.Probes, s.Layers().NumLayers())
	}
}

func TestHDPATZeroLayersGoesStraightToIOMMU(t *testing.T) {
	cfg := config.DefaultHDPAT()
	cfg.Layers = 0
	f, eng := testFabric(t, config.HDPATIOMMU())
	s := NewHDPAT(f, cfg)
	done := false
	s.Translate(request(f, 1, 12, 3, func(xlat.Result) { done = true }))
	eng.Run()
	if !done || s.Probes != 0 {
		t.Fatalf("done=%v probes=%d", done, s.Probes)
	}
}

func TestHDPATRedirectStaleEntryBouncesToWalk(t *testing.T) {
	f, eng := testFabric(t, config.HDPATIOMMU())
	s := NewHDPAT(f, config.DefaultHDPAT())
	// Plant a stale RT entry pointing at a GPM with an empty aux cache.
	f.IOMMU.RT().Insert(keyOf(request(f, 0, 40, 0, func(xlat.Result) {})), 3)
	var got xlat.Result
	s.Translate(request(f, 1, 40, 0, func(r xlat.Result) { got = r }))
	eng.Run()
	if got.PTE.PFN != 7040 {
		t.Fatalf("stale redirect lost the request: %+v", got)
	}
	if s.RedirectNo == 0 {
		t.Error("stale redirect not recorded")
	}
	if f.IOMMU.Stats.Walks != 1 {
		t.Errorf("walks = %d, want 1 after bounce", f.IOMMU.Stats.Walks)
	}
}

func TestRouteCachesAlongPath(t *testing.T) {
	f, eng := testFabric(t, config.DefaultIOMMU())
	// Route needs placement for return-path fills.
	p := vm.NewPlacement(24, vm.Page4K)
	p.Alloc("all", 64, 0)
	f.Placement = p
	// Rebuild global table from placement so PFNs match fills.
	s := NewRoute(f, config.DefaultHDPAT())
	done := 0
	s.Translate(request(f, 1, 10, 0, func(xlat.Result) { done++ }))
	eng.Run()
	if done != 1 {
		t.Fatal("route request not completed")
	}
	if s.Attempts == 0 {
		t.Error("no intermediate attempts recorded")
	}
	// After the fill, a second request from the same corner should hit an
	// intermediate cache.
	s.Translate(request(f, 2, 10, 0, func(xlat.Result) { done++ }))
	eng.Run()
	if done != 2 {
		t.Fatal("second route request not completed")
	}
	if s.Hits == 0 {
		t.Error("return-path caching never produced a hit")
	}
}

func TestConcentricForwardsInward(t *testing.T) {
	f, eng := testFabric(t, config.DefaultIOMMU())
	p := vm.NewPlacement(24, vm.Page4K)
	p.Alloc("all", 64, 0)
	f.Placement = p
	s := NewConcentric(f, config.DefaultHDPAT())
	done := false
	s.Translate(request(f, 1, 10, 0, func(xlat.Result) { done = true }))
	eng.Run()
	if !done {
		t.Fatal("concentric request not completed")
	}
	if s.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (one per layer)", s.Attempts)
	}
}

func TestDistributedProbesGroupPeer(t *testing.T) {
	f, eng := testFabric(t, config.DefaultIOMMU())
	p := vm.NewPlacement(24, vm.Page4K)
	p.Alloc("all", 64, 0)
	f.Placement = p
	s := NewDistributed(f, config.DefaultHDPAT())
	done := false
	s.Translate(request(f, 1, 10, 0, func(xlat.Result) { done = true }))
	eng.Run()
	if !done || s.Probes != 1 {
		t.Fatalf("done=%v probes=%d", done, s.Probes)
	}
	// Peers stay within the requester's side of the wafer.
	for _, g := range f.GPMs {
		peer := f.GPMs[s.groupPeer[g.ID]]
		cpu := f.Layout.CPU
		if g.Coord.X <= cpu.X && peer.Coord.X > cpu.X {
			t.Errorf("west GPM %v assigned east peer %v", g.Coord, peer.Coord)
		}
	}
}

func TestFabricHelpers(t *testing.T) {
	f, eng := testFabric(t, config.DefaultIOMMU())
	if f.GPMAt(f.Layout.CPU) != nil {
		t.Error("CPU tile should have no GPM")
	}
	for _, g := range f.GPMs {
		if f.GPMAt(g.Coord) != g {
			t.Fatalf("GPMAt(%v) mismatched", g.Coord)
		}
		if f.CoordOf(g.ID) != g.Coord {
			t.Fatalf("CoordOf(%d) mismatched", g.ID)
		}
	}
	delivered := false
	f.Respond(geom.XY(0, 0), request(f, 1, 5, 10, func(xlat.Result) { delivered = true }),
		xlat.Result{})
	eng.Run()
	if !delivered {
		t.Error("Respond did not deliver")
	}
}

func TestFabricShootdown(t *testing.T) {
	f, eng := testFabric(t, config.HDPATIOMMU())
	s := NewHDPAT(f, config.DefaultHDPAT())
	// Resolve VPN 20 twice so pushes install aux copies and an RT entry.
	for i := uint64(0); i < 2; i++ {
		s.Translate(request(f, i+1, 20, 0, func(xlat.Result) {}))
		eng.Run()
	}
	if f.IOMMU.RT().Len() == 0 {
		t.Fatal("no RT entries to shoot down")
	}
	var dropped int
	doneAt := sim.VTime(0)
	f.Shootdown(0, []vm.VPN{20, 21, 22, 23}, func(n int) {
		dropped = n
		doneAt = eng.Now()
	})
	start := eng.Now()
	eng.Run()
	if dropped == 0 {
		t.Error("shootdown dropped nothing despite warm caches")
	}
	if doneAt <= start {
		t.Error("shootdown completed instantaneously")
	}
	// RT no longer redirects for the shot-down page.
	if _, ok := f.IOMMU.RT().Lookup(keyOf(request(f, 9, 20, 0, func(xlat.Result) {}))); ok {
		t.Error("RT entry survived shootdown")
	}
	// The next translation must be a cold walk again.
	walks := f.IOMMU.Stats.Walks
	s.Translate(request(f, 10, 20, 3, func(xlat.Result) {}))
	eng.Run()
	if f.IOMMU.Stats.Walks != walks+1 {
		t.Errorf("post-shootdown request did not walk (walks %d -> %d)", walks, f.IOMMU.Stats.Walks)
	}
}
