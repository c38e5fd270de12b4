package migrate

import (
	"testing"

	"hdpat/internal/config"
	"hdpat/internal/core"
	"hdpat/internal/geom"
	"hdpat/internal/gpm"
	"hdpat/internal/iommu"
	"hdpat/internal/noc"
	"hdpat/internal/schemes"
	"hdpat/internal/sim"
	"hdpat/internal/tlb"
	"hdpat/internal/vm"
	"hdpat/internal/xlat"
)

// buildFabric assembles a 5x5 wafer with a 96-page region.
func buildFabric(t *testing.T) (*core.Fabric, *sim.Engine) {
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
	io := iommu.New(eng, config.DefaultIOMMU(), mesh.CPU, network, placement.Global())
	io.GPMCoord = func(id int) geom.Coord { return gpms[id].Coord }
	f := &core.Fabric{Eng: eng, Mesh: network, Layout: layout, GPMs: gpms, IOMMU: io, Placement: placement}
	f.Finish()
	return f, eng
}

func req(f *core.Fabric, id uint64, vpn vm.VPN, requester int, done func(xlat.Result)) *xlat.Request {
	return xlat.NewRequest(id, 0, vpn, requester, f.Eng.Now(), done)
}

func TestMigrationMovesDominantPage(t *testing.T) {
	f, eng := buildFabric(t)
	cfg := DefaultConfig()
	cfg.Threshold = 3
	m := New(f, cfg)
	s := m.Wrap(schemes.NewNaive(f))

	vpn := vm.VPN(10)
	owner, _ := f.Placement.OwnerOf(vpn)
	requester := (owner + 7) % len(f.GPMs)

	for i := uint64(0); i < 3; i++ {
		s.Translate(req(f, i+1, vpn, requester, func(xlat.Result) {}))
		eng.Run()
	}
	if m.Stats.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", m.Stats.Migrations)
	}
	newOwner, ok := f.Placement.OwnerOf(vpn)
	if !ok || newOwner != requester {
		t.Fatalf("owner = %d, want %d", newOwner, requester)
	}
	pte, ok := f.Placement.Global().Lookup(vpn)
	if !ok || pte.Owner != requester {
		t.Fatalf("global PTE owner = %d", pte.Owner)
	}
	if !f.Placement.Local(requester).Contains(vpn) {
		t.Error("target local table missing migrated page")
	}
	if f.Placement.Local(owner).Contains(vpn) {
		t.Error("old owner still maps migrated page")
	}
	if m.Stats.BytesMoved != uint64(vm.Page4K) {
		t.Errorf("bytes moved = %d", m.Stats.BytesMoved)
	}
	if f.Placement.Migrated() != 1 {
		t.Errorf("placement overlay has %d entries", f.Placement.Migrated())
	}
}

func TestMigrationSkipsSharedPages(t *testing.T) {
	f, eng := buildFabric(t)
	cfg := DefaultConfig()
	cfg.Threshold = 3
	m := New(f, cfg)
	s := m.Wrap(schemes.NewNaive(f))

	vpn := vm.VPN(20)
	owner, _ := f.Placement.OwnerOf(vpn)
	// Many GPMs share the page evenly: no single requester dominates.
	id := uint64(0)
	for round := 0; round < 4; round++ {
		for r := 0; r < 6; r++ {
			requester := (owner + 1 + r) % len(f.GPMs)
			id++
			s.Translate(req(f, id, vpn, requester, func(xlat.Result) {}))
		}
		eng.Run()
	}
	if m.Stats.Migrations != 0 {
		t.Fatalf("shared page migrated %d times", m.Stats.Migrations)
	}
	if m.Stats.SkippedShare == 0 {
		t.Error("dominance rejection never recorded")
	}
}

func TestMigrationCooldownPreventsPingPong(t *testing.T) {
	f, eng := buildFabric(t)
	cfg := DefaultConfig()
	cfg.Threshold = 2
	cfg.Cooldown = 1_000_000
	m := New(f, cfg)
	s := m.Wrap(schemes.NewNaive(f))

	vpn := vm.VPN(30)
	owner, _ := f.Placement.OwnerOf(vpn)
	a := (owner + 3) % len(f.GPMs)
	b := (owner + 9) % len(f.GPMs)
	id := uint64(0)
	send := func(r int, n int) {
		for i := 0; i < n; i++ {
			id++
			s.Translate(req(f, id, vpn, r, func(xlat.Result) {}))
			eng.Run()
		}
	}
	send(a, 3) // migrates to a
	if m.Stats.Migrations != 1 {
		t.Fatalf("migrations = %d after first burst", m.Stats.Migrations)
	}
	send(b, 6) // b now dominates, but within the cooldown
	if m.Stats.Migrations != 1 {
		t.Errorf("page ping-ponged during cooldown (migrations=%d)", m.Stats.Migrations)
	}
	if m.Stats.SkippedBusy == 0 {
		t.Error("cooldown rejection never recorded")
	}
}

func TestMigrationShootsDownStaleEntries(t *testing.T) {
	f, eng := buildFabric(t)
	cfg := DefaultConfig()
	cfg.Threshold = 2
	m := New(f, cfg)
	s := m.Wrap(schemes.NewNaive(f))

	vpn := vm.VPN(40)
	owner, _ := f.Placement.OwnerOf(vpn)
	requester := (owner + 5) % len(f.GPMs)
	// Warm another GPM's aux with the old translation.
	other := f.GPMs[(owner+11)%len(f.GPMs)]
	oldPTE, _ := f.Placement.Global().Lookup(vpn)
	other.InstallAux(oldPTE, xlat.PushDemand, eng.Now())

	id := uint64(0)
	for i := 0; i < 2; i++ {
		id++
		s.Translate(req(f, id, vpn, requester, func(xlat.Result) {}))
		eng.Run()
	}
	if m.Stats.Migrations != 1 {
		t.Fatalf("migrations = %d", m.Stats.Migrations)
	}
	if _, _, ok := other.Aux().Probe(toKey(vpn)); ok {
		t.Error("stale aux entry survived migration shootdown")
	}
	if m.Stats.Dropped == 0 {
		t.Error("shootdown dropped nothing")
	}
}

func toKey(v vm.VPN) tlb.Key { return tlb.Key{VPN: v} }
