package config

import (
	"errors"
	"strings"
	"testing"
)

func TestDefaultMatchesTable1(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if c.MeshW != 7 || c.MeshH != 7 {
		t.Errorf("mesh %dx%d, want 7x7", c.MeshW, c.MeshH)
	}
	g := c.GPM
	if g.NumCUs != 32 {
		t.Errorf("CUs = %d, want 32", g.NumCUs)
	}
	if g.L1TLB.Sets != 1 || g.L1TLB.Ways != 32 || g.L1TLB.Latency != 4 {
		t.Errorf("L1 TLB %+v does not match Table I", g.L1TLB)
	}
	if g.L2TLB.Sets != 64 || g.L2TLB.Ways != 32 || g.L2TLB.Latency != 32 || g.L2TLB.MSHRs != 32 {
		t.Errorf("L2 TLB %+v does not match Table I", g.L2TLB)
	}
	if g.GMMUCache.Sets != 64 || g.GMMUCache.Ways != 16 {
		t.Errorf("GMMU cache %+v does not match Table I", g.GMMUCache)
	}
	if g.GMMUWalkers != 8 || g.WalkCycles != 500 {
		t.Errorf("GMMU walkers=%d walk=%d", g.GMMUWalkers, g.WalkCycles)
	}
	if g.L2Cache.SizeBytes != 4<<20 || g.L2Cache.Ways != 16 || g.L2Cache.MSHRs != 64 {
		t.Errorf("L2 cache %+v does not match Table I", g.L2Cache)
	}
	i := c.IOMMU
	if i.Walkers != 16 || i.WalkCycles != 500 {
		t.Errorf("IOMMU %+v does not match Table I", i)
	}
	if c.HDPAT.Layers != 2 || c.HDPAT.Clusters != 4 {
		t.Errorf("HDPAT defaults %+v", c.HDPAT)
	}
	if c.NoC.HopLatency != 32 || c.NoC.BytesPerCycle != 768 {
		t.Errorf("NoC %+v does not match Table I", c.NoC)
	}
}

func TestHDPATIOMMU(t *testing.T) {
	i := HDPATIOMMU()
	if i.RedirectEntries != 1024 || !i.Revisit || i.PrefetchDegree != 4 {
		t.Errorf("HDPAT IOMMU %+v", i)
	}
}

func TestIdealIOMMUs(t *testing.T) {
	if IdealLatencyIOMMU().WalkCycles != 1 {
		t.Error("ideal latency IOMMU should walk in 1 cycle")
	}
	if IdealParallelIOMMU().Walkers != 4096 {
		t.Error("ideal parallel IOMMU should have 4096 walkers")
	}
}

func TestGPMVariants(t *testing.T) {
	for _, name := range GPMVariantNames() {
		g, err := GPMVariant(name)
		if err != nil {
			t.Fatalf("variant %s: %v", name, err)
		}
		if g.NumCUs != 32 {
			t.Errorf("%s CU count %d; variants vary memory system only", name, g.NumCUs)
		}
	}
	if _, err := GPMVariant("tpu"); err == nil {
		t.Error("unknown variant accepted")
	}
	h100, _ := GPMVariant("h100")
	mi100, _ := GPMVariant("mi100")
	if h100.L1VCache.SizeBytes <= mi100.L1VCache.SizeBytes {
		t.Error("H100 should have a larger L1 than MI100")
	}
	h200, _ := GPMVariant("h200")
	if h200.HBM.BytesPerCycle <= h100.HBM.BytesPerCycle {
		t.Error("H200 should have more bandwidth than H100")
	}
}

func TestWaferVariants(t *testing.T) {
	w := Wafer7x12()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.MeshW != 7 || w.MeshH != 12 {
		t.Errorf("7x12 wafer is %dx%d", w.MeshW, w.MeshH)
	}
	m := MCM4()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.MeshW*m.MeshH >= 49 {
		t.Error("MCM config should be much smaller than the wafer")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*System){
		func(s *System) { s.MeshW = 1 },
		func(s *System) { s.MeshW = 0 },
		func(s *System) { s.MeshH = -7 },
		// Hostile sizes: a dimension past the cap, and a pair whose product
		// would overflow 32-bit tile arithmetic if multiplied unchecked.
		func(s *System) { s.MeshW = MaxMeshDim + 1 },
		func(s *System) { s.MeshW, s.MeshH = 1<<20, 1<<20 },
		func(s *System) { s.MeshW, s.MeshH = 1024, 1024 }, // over the tile cap
		func(s *System) { s.GPM.NumCUs = 0 },
		func(s *System) { s.IOMMU.Walkers = 0 },
		func(s *System) { s.HDPAT.Clusters = 0 },
		func(s *System) { s.PageSize = 1000 },
		func(s *System) { s.WorkloadScale = 0 },
		func(s *System) { s.NoC.BytesPerCycle = 0 },
		func(s *System) { s.NoC.BytesPerCycle = -64 },
		func(s *System) { s.NoC.HopLatency = 0 },
		func(s *System) { s.NoC.Routing = "torus" },
	}
	for i, mutate := range bad {
		c := Default()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

// Mesh rejections carry the typed ValidationError so the service layer can
// classify them as client errors, and the largest supported mesh still
// validates.
func TestValidateMeshBounds(t *testing.T) {
	c := Default()
	c.MeshW, c.MeshH = 1<<18, 1<<18
	err := c.Validate()
	var ve *ValidationError
	if !errors.As(err, &ve) || ve.Field != "mesh" {
		t.Fatalf("overflowing mesh: got %v, want *ValidationError on mesh", err)
	}

	c = Default()
	c.MeshW, c.MeshH = 256, 256 // exactly MaxTiles
	if err := c.Validate(); err != nil {
		t.Errorf("256x256 (= MaxTiles) should validate: %v", err)
	}
	c.MeshW, c.MeshH = 30, 30 // the giant-wafer roadmap target
	if err := c.Validate(); err != nil {
		t.Errorf("30x30 should validate: %v", err)
	}
}

// NoC rejections carry the typed ValidationError (the service layer turns
// them into HTTP 400s), every routing policy the build knows validates,
// and the error for an unknown policy names the valid ones.
func TestValidateNoCRouting(t *testing.T) {
	c := Default()
	c.NoC.Routing = "torus"
	err := c.Validate()
	var ve *ValidationError
	if !errors.As(err, &ve) || ve.Field != "noc.routing" {
		t.Fatalf("unknown routing: got %v, want *ValidationError on noc.routing", err)
	}
	if !strings.Contains(err.Error(), "deflect") {
		t.Errorf("error does not list valid policies: %v", err)
	}

	c.NoC.BytesPerCycle = 0
	c.NoC.Routing = ""
	if err := c.Validate(); !errors.As(err, &ve) || ve.Field != "noc" {
		t.Fatalf("zero bandwidth: got %v, want *ValidationError on noc", err)
	}

	for _, name := range []string{"", "xy", "deflect"} {
		c := Default()
		c.NoC.Routing = name
		if err := c.Validate(); err != nil {
			t.Errorf("routing %q should validate: %v", name, err)
		}
	}
}

func TestApplyScale(t *testing.T) {
	c := Default()
	c.WorkloadScale = 4
	c.IOMMU = HDPATIOMMU()
	s := c.ApplyScale()
	if s.GPM.L2TLB.Sets != c.GPM.L2TLB.Sets/4 {
		t.Errorf("L2 TLB sets %d, want %d", s.GPM.L2TLB.Sets, c.GPM.L2TLB.Sets/4)
	}
	if s.GPM.AuxTLB.Sets != c.GPM.AuxTLB.Sets/4 {
		t.Errorf("aux sets %d", s.GPM.AuxTLB.Sets)
	}
	if s.IOMMU.RedirectEntries != 256 {
		t.Errorf("RT entries %d, want 256", s.IOMMU.RedirectEntries)
	}
	if s.GPM.L2Cache.SizeBytes != 1<<20 {
		t.Errorf("L2 cache %d, want 1 MB", s.GPM.L2Cache.SizeBytes)
	}
	// Rates are not capacities: walkers, latencies and MSHRs untouched.
	if s.IOMMU.Walkers != c.IOMMU.Walkers || s.GPM.WalkCycles != c.GPM.WalkCycles {
		t.Error("rate parameters were scaled")
	}
	if s.GPM.L2TLB.MSHRs != c.GPM.L2TLB.MSHRs {
		t.Error("MSHRs were scaled")
	}
	// Scale 1 is the identity.
	c.WorkloadScale = 1
	id := c.ApplyScale()
	if id.GPM.L2TLB.Sets != c.GPM.L2TLB.Sets {
		t.Error("scale 1 modified the config")
	}
	// Extreme scales clamp rather than zero out.
	c.WorkloadScale = 10000
	ex := c.ApplyScale()
	if ex.GPM.L2TLB.Sets < 1 || ex.IOMMU.RedirectEntries < 16 {
		t.Errorf("extreme scale produced degenerate config: %+v", ex.GPM.L2TLB)
	}
}

// TestValidateGeometry: TLB and cache shapes that used to pass Validate and
// then panic (a zero-way cache divides by zero, a zero-way TLB panics in
// tlb.New) or never finish (a stalling level with no MSHRs) are rejected
// with a typed error naming the level.
func TestValidateGeometry(t *testing.T) {
	cases := []struct {
		name  string
		set   func(*System)
		field string
	}{
		{"l1 tlb sets", func(s *System) { s.GPM.L1TLB.Sets = 0 }, "gpm.l1_tlb"},
		{"l1 tlb ways", func(s *System) { s.GPM.L1TLB.Ways = 0 }, "gpm.l1_tlb"},
		{"l2 tlb sets", func(s *System) { s.GPM.L2TLB.Sets = -1 }, "gpm.l2_tlb"},
		{"l2 tlb ways", func(s *System) { s.GPM.L2TLB.Ways = 0 }, "gpm.l2_tlb"},
		{"l2 tlb mshrs", func(s *System) { s.GPM.L2TLB.MSHRs = 0 }, "gpm.l2_tlb"},
		{"gmmu cache sets", func(s *System) { s.GPM.GMMUCache.Sets = 0 }, "gpm.gmmu_cache"},
		{"gmmu cache ways", func(s *System) { s.GPM.GMMUCache.Ways = -4 }, "gpm.gmmu_cache"},
		{"aux tlb sets", func(s *System) { s.GPM.AuxTLB.Sets = 0 }, "gpm.aux_tlb"},
		{"aux tlb ways", func(s *System) { s.GPM.AuxTLB.Ways = 0 }, "gpm.aux_tlb"},
		{"l1 vcache ways", func(s *System) { s.GPM.L1VCache.Ways = 0 }, "gpm.l1_vcache"},
		{"l1 vcache size", func(s *System) { s.GPM.L1VCache.SizeBytes = 0 }, "gpm.l1_vcache"},
		{"l2 cache ways", func(s *System) { s.GPM.L2Cache.Ways = 0 }, "gpm.l2_cache"},
		{"l2 cache size", func(s *System) { s.GPM.L2Cache.SizeBytes = -1 }, "gpm.l2_cache"},
		{"l2 cache mshrs", func(s *System) { s.GPM.L2Cache.MSHRs = 0 }, "gpm.l2_cache"},
		{"iommu tlb sets", func(s *System) { s.IOMMU.UseTLB, s.IOMMU.TLBSets = true, 0 }, "iommu.tlb"},
		{"iommu tlb ways", func(s *System) { s.IOMMU.UseTLB, s.IOMMU.TLBWays = true, 0 }, "iommu.tlb"},
		{"iommu tlb mshrs", func(s *System) { s.IOMMU.UseTLB, s.IOMMU.TLBMSHRs = true, 0 }, "iommu.tlb"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Default()
			tc.set(&c)
			var ve *ValidationError
			if err := c.Validate(); !errors.As(err, &ve) || ve.Field != tc.field {
				t.Fatalf("got %v, want *ValidationError on %s", err, tc.field)
			}
		})
	}

	// Shapes that stay valid: the auxiliary TLB has no MSHR file (zero is
	// the shipped default), and the IOMMU's TLB fields only matter when the
	// TLB variant is on.
	ok := []func(*System){
		func(s *System) { s.GPM.AuxTLB.MSHRs = 0 },
		func(s *System) { s.IOMMU.UseTLB, s.IOMMU.TLBSets, s.IOMMU.TLBMSHRs = false, 0, 0 },
		func(s *System) { s.IOMMU.UseTLB = true },
	}
	for i, set := range ok {
		c := Default()
		set(&c)
		if err := c.Validate(); err != nil {
			t.Errorf("valid shape %d rejected: %v", i, err)
		}
	}
}
