package schemes

import (
	"testing"

	"hdpat/internal/config"
	"hdpat/internal/core"
	"hdpat/internal/geom"
	"hdpat/internal/gpm"
	"hdpat/internal/iommu"
	"hdpat/internal/noc"
	"hdpat/internal/sim"
	"hdpat/internal/vm"
	"hdpat/internal/xlat"
)

// buildFabric assembles a 5x5 wafer whose global table maps VPNs 1..96 via
// a placement, with per-GPM local tables populated, so owner forwarding has
// real targets.
func buildFabric(t *testing.T, ioCfg config.IOMMU) (*core.Fabric, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	mesh := geom.NewMesh(5, 5)
	layout := geom.NewLayout(mesh)
	network := noc.New(eng, mesh, noc.DefaultConfig())

	placement := vm.NewPlacement(mesh.NumGPMs(), vm.Page4K)
	placement.Alloc("data", 96, 0)

	gcfg := config.MI100GPM()
	gcfg.NumCUs = 1
	var gpms []*gpm.GPM
	reqPool := xlat.NewRequestPool()
	for i, c := range mesh.GPMs() {
		g := gpm.New(eng, i, c, gcfg, vm.Page4K, placement.Local(i))
		g.ReqPool = reqPool
		id := uint64(0)
		g.NextReqID = func() uint64 { id++; return id }
		gpms = append(gpms, g)
	}

	io := iommu.New(eng, ioCfg, mesh.CPU, network, placement.Global())
	io.GPMCoord = func(id int) geom.Coord { return gpms[id].Coord }

	f := &core.Fabric{Eng: eng, Mesh: network, Layout: layout, GPMs: gpms, IOMMU: io, Placement: placement}
	f.Finish()
	return f, eng
}

func req(f *core.Fabric, id uint64, vpn vm.VPN, requester int, done func(xlat.Result)) *xlat.Request {
	return xlat.NewRequest(id, 0, vpn, requester, f.Eng.Now(), done)
}

func TestNaiveRoutesToIOMMU(t *testing.T) {
	f, eng := buildFabric(t, config.DefaultIOMMU())
	s := NewNaive(f)
	if s.Name() != "baseline" {
		t.Errorf("name = %q", s.Name())
	}
	var got xlat.Result
	s.Translate(req(f, 1, 10, 0, func(r xlat.Result) { got = r }))
	eng.Run()
	if !got.PTE.Valid || got.Source != xlat.SourceIOMMU {
		t.Fatalf("result %+v", got)
	}
	if f.IOMMU.Stats.Walks != 1 {
		t.Errorf("walks = %d", f.IOMMU.Stats.Walks)
	}
}

func TestBarreIsNaiveWithRevisitConfig(t *testing.T) {
	cfg := config.DefaultIOMMU()
	cfg.Revisit = true
	cfg.Walkers = 1 // force queueing so duplicates are in the PW-queue
	f, eng := buildFabric(t, cfg)
	s := NewBarre(f)
	if s.Name() != "barre" {
		t.Errorf("name = %q", s.Name())
	}
	done := 0
	for i := uint64(0); i < 4; i++ {
		s.Translate(req(f, i+1, 15, int(i), func(xlat.Result) { done++ }))
	}
	eng.Run()
	if done != 4 {
		t.Fatalf("completions = %d", done)
	}
	if f.IOMMU.Stats.Revisits == 0 {
		t.Error("revisit never fired for concurrent duplicates")
	}
	if f.IOMMU.Stats.Walks >= 4 {
		t.Errorf("walks = %d, expected coalescing", f.IOMMU.Stats.Walks)
	}
}

func TestTransFWRoutesToIOMMU(t *testing.T) {
	f, eng := buildFabric(t, config.DefaultIOMMU())
	s := NewTransFW(f)
	if s.Name() != "transfw" {
		t.Errorf("name = %q", s.Name())
	}
	var got xlat.Result
	s.Translate(req(f, 1, 10, 0, func(r xlat.Result) { got = r }))
	eng.Run()
	if got.Source != xlat.SourceIOMMU {
		t.Errorf("Trans-FW source = %v; per the paper it still uses the IOMMU", got.Source)
	}
}

func TestOwnerFWWalksAtOwner(t *testing.T) {
	f, eng := buildFabric(t, config.DefaultIOMMU())
	s := NewOwnerFW(f)
	// VPN 10 is owned by some GPM != requester 0 under the block split.
	owner, ok := f.Placement.OwnerOf(10)
	if !ok {
		t.Fatal("placement broken")
	}
	requester := (owner + 5) % len(f.GPMs)
	var got xlat.Result
	s.Translate(req(f, 1, 10, requester, func(r xlat.Result) { got = r }))
	eng.Run()
	if got.Source != xlat.SourceOwner {
		t.Fatalf("source = %v, want owner", got.Source)
	}
	if !got.PTE.Valid || got.PTE.Owner != owner {
		t.Fatalf("PTE %+v, want owner %d", got.PTE, owner)
	}
	if f.IOMMU.Stats.Walks != 0 {
		t.Error("owner forwarding should bypass the IOMMU")
	}
	if s.Forwarded != 1 {
		t.Errorf("forwarded = %d", s.Forwarded)
	}
}

func TestOwnerFWFallsBackForUnmapped(t *testing.T) {
	f, eng := buildFabric(t, config.DefaultIOMMU())
	s := NewOwnerFW(f)
	done := false
	s.Translate(req(f, 1, vm.VPN(5000), 0, func(xlat.Result) { done = true }))
	eng.Run()
	if !done {
		t.Fatal("unmapped request never completed")
	}
	if s.Fallback == 0 {
		t.Error("fallback not recorded")
	}
}

func TestValkyrieHitsNeighbourTLB(t *testing.T) {
	f, eng := buildFabric(t, config.DefaultIOMMU())
	s := NewValkyrie(f)
	for _, g := range f.GPMs {
		g.Remote = s
	}
	// Requester 0 sits at a corner; find a mesh neighbour and warm its
	// shared L2 TLB by driving a full translation through it (the remote
	// completion fills the L2 TLB).
	requester := f.GPMs[0]
	var neighbour *gpm.GPM
	for _, g := range f.GPMs {
		if g.Coord.Manhattan(requester.Coord) == 1 {
			neighbour = g
			break
		}
	}
	if neighbour == nil {
		t.Fatal("no neighbour found")
	}
	// VPN 90 is remote to both corner GPMs under the block split.
	warmed := false
	neighbour.Translate(0, vm.Page4K.Base(90), func(vm.PTE) { warmed = true })
	eng.Run()
	if !warmed {
		t.Fatal("warm-up translation failed")
	}
	served := false
	requester.Translate(0, vm.Page4K.Base(90), func(vm.PTE) { served = true })
	eng.Run()
	if !served {
		t.Fatal("valkyrie request lost")
	}
	if requester.Stats.RemoteBySource[xlat.SourceNeighbor] != 1 {
		t.Errorf("neighbour TLB hit not recorded: %v", requester.Stats.RemoteBySource)
	}
	if s.Hits == 0 {
		t.Error("scheme hit counter not incremented")
	}
}

func TestValkyrieAllMissGoesToIOMMU(t *testing.T) {
	f, eng := buildFabric(t, config.DefaultIOMMU())
	s := NewValkyrie(f)
	var got xlat.Result
	s.Translate(req(f, 1, 60, 0, func(r xlat.Result) { got = r }))
	eng.Run()
	if got.Source != xlat.SourceIOMMU {
		t.Errorf("all-miss source = %v", got.Source)
	}
	if f.IOMMU.Stats.Walks != 1 {
		t.Errorf("walks = %d", f.IOMMU.Stats.Walks)
	}
}
