// Package config centralises every hardware parameter of the simulated
// wafer-scale GPU. Default values reproduce Table I of the paper; named
// variants cover the sensitivity studies: GPU generations (Fig 21), page
// sizes (Fig 20), wafer shapes (Fig 22) and the idealised IOMMUs of Fig 2.
package config

import (
	"fmt"
	"strings"

	"hdpat/internal/cache"
	"hdpat/internal/dram"
	"hdpat/internal/geom"
	"hdpat/internal/noc"
	"hdpat/internal/sim"
	"hdpat/internal/tlb"
	"hdpat/internal/vm"
)

// GPM describes one GPU Processing Module (Table I).
type GPM struct {
	NumCUs int

	L1VCache cache.Config // per-CU vector cache
	L2Cache  cache.Config // shared

	L1TLB     tlb.Config // per-CU L1 vector TLB
	L2TLB     tlb.Config // shared
	GMMUCache tlb.Config // last-level TLB / GMMU cache
	// AuxTLB sizes the auxiliary translation store a caching-layer GPM
	// offers its peers. It is deliberately small — a carve-out of the GMMU
	// cache space, since "GPM cannot afford remote page table replication"
	// (§IV-F) — which is what makes the IOMMU's pushes selective.
	AuxTLB tlb.Config

	CuckooLatency sim.VTime // filter check time
	GMMUWalkers   int
	WalkCycles    sim.VTime // full local page table walk (100 x 5 levels)

	HBM dram.Config

	// MLP is the number of outstanding memory operations each CU sustains.
	MLP int
}

// IOMMU describes the central translation agent (Table I + §IV-F/G).
type IOMMU struct {
	Walkers    int
	WalkCycles sim.VTime
	// PWQueueCap bounds the internal walker queue; arrivals beyond it wait
	// in the admission (pre-queue) stage, producing the Fig 3 breakdown.
	PWQueueCap int

	// Redirection table (§IV-F). Entries=0 disables it.
	RedirectEntries int
	// Revisit enables the PW-queue revisit on walk completion
	// (HDPAT §IV-F step 6; also the core of the Barre baseline).
	Revisit bool

	// PrefetchDegree is the number of PTEs resolved per demand walk
	// (1 = demand only; paper default 4, Fig 18 sweeps 1/4/8).
	PrefetchDegree int
	// PrefetchExtraCycles is the added walker service per extra PTE;
	// adjacent PTEs share the leaf page-table page, so this is one extra
	// memory access amortised across the batch, not a full walk.
	PrefetchExtraCycles sim.VTime

	// PushThreshold is the per-PTE access count at or above which a walked
	// translation is pushed to auxiliary GPMs (selective caching, §IV-F).
	PushThreshold uint32

	// UseTLB replaces the redirection table with an area-equivalent
	// conventional TLB (512 entries, 32 MSHRs) for the Fig 19 study.
	UseTLB   bool
	TLBSets  int
	TLBWays  int
	TLBMSHRs int
}

// HDPAT holds the parameters of the paper's mechanism itself.
type HDPAT struct {
	// Layers is C, the number of concentric caching layers (default 2).
	Layers int
	// Clusters is Nc, the cluster count per layer (default 4, quadrants).
	Clusters int
	// SequentialLayers forces strict inward forwarding instead of the
	// default concurrent per-layer probes (§IV-D allows both; the ablation
	// of routing-based and concentric caching uses sequential attempts).
	SequentialLayers bool
	// AuxProbeLatency is the cuckoo-check + aux-cache lookup time at a
	// caching GPM serving a peer probe.
	AuxProbeLatency sim.VTime
}

// System is the full simulation configuration.
type System struct {
	MeshW    int
	MeshH    int
	PageSize vm.PageSize

	GPM   GPM
	IOMMU IOMMU
	HDPAT HDPAT
	NoC   noc.Config

	// WorkloadScale divides Table II footprints and access counts to keep
	// simulations tractable (Fig 13 demonstrates size invariance).
	WorkloadScale int
}

// Default returns the Table I baseline: a 7x7 wafer (48 GPMs + central
// CPU) of quarter-MI100 GPMs, 4 KB pages.
func Default() System {
	return System{
		MeshW:         7,
		MeshH:         7,
		PageSize:      vm.Page4K,
		GPM:           MI100GPM(),
		IOMMU:         DefaultIOMMU(),
		HDPAT:         DefaultHDPAT(),
		NoC:           noc.DefaultConfig(),
		WorkloadScale: 4,
	}
}

// MI100GPM returns the Table I per-GPM configuration (one quarter of an
// AMD MI100).
func MI100GPM() GPM {
	return GPM{
		NumCUs:   32,
		L1VCache: cache.Config{SizeBytes: 16 << 10, Ways: 4, MSHRs: 16, Latency: 1},
		L2Cache:  cache.Config{SizeBytes: 4 << 20, Ways: 16, MSHRs: 64, Latency: 8},
		L1TLB:    tlb.Config{Sets: 1, Ways: 32, MSHRs: 4, Latency: 4},
		L2TLB:    tlb.Config{Sets: 64, Ways: 32, MSHRs: 32, Latency: 32},
		GMMUCache: tlb.Config{
			Sets: 64, Ways: 16, MSHRs: 32, Latency: 16,
		},
		AuxTLB: tlb.Config{
			Sets: 64, Ways: 16, MSHRs: 0, Latency: 16,
		},
		CuckooLatency: 2,
		GMMUWalkers:   8,
		WalkCycles:    500,
		HBM:           dram.DefaultConfig(),
		MLP:           8,
	}
}

// DefaultIOMMU returns the Table I host MMU with all HDPAT extensions
// disabled; schemes enable what they need.
func DefaultIOMMU() IOMMU {
	return IOMMU{
		Walkers:    16,
		WalkCycles: 500,
		// The internal walker queue is small; overflow waits in the
		// admission (pre-queue) stage. Its size is what bounds the
		// PW-queue revisit mechanism ("the size of the PW-queue limits the
		// performance improvement" of Barre, §V-B). Fig 4's experiment
		// raises it to 4096 to expose the backlog.
		PWQueueCap:          64,
		RedirectEntries:     0,
		Revisit:             false,
		PrefetchDegree:      1,
		PrefetchExtraCycles: 5,
		PushThreshold:       2,
		TLBSets:             16,
		TLBWays:             32, // 512 entries, area-equivalent to the 1024-entry RT
		TLBMSHRs:            32,
	}
}

// HDPATIOMMU returns the IOMMU as HDPAT configures it (§IV).
func HDPATIOMMU() IOMMU {
	c := DefaultIOMMU()
	c.RedirectEntries = 1024
	c.Revisit = true
	c.PrefetchDegree = 4
	return c
}

// DefaultHDPAT returns the paper's default mechanism parameters.
func DefaultHDPAT() HDPAT {
	return HDPAT{Layers: 2, Clusters: 4, AuxProbeLatency: 18}
}

// GPU generation variants (Fig 21). Each GPM remains one quarter of the
// named device's memory system; CU count stays at 32 so compute supply is
// comparable and memory-system differences dominate, as in the paper.

// MI200GPM doubles L2 and moves to HBM2e.
func MI200GPM() GPM {
	g := MI100GPM()
	g.L2Cache.SizeBytes = 8 << 20
	g.HBM.BytesPerCycle = 1600 // 1.6 TB/s
	return g
}

// MI300GPM models the larger MI300-class cache hierarchy with HBM3.
func MI300GPM() GPM {
	g := MI100GPM()
	g.L1VCache.SizeBytes = 32 << 10
	g.L2Cache.SizeBytes = 16 << 20
	g.HBM.BytesPerCycle = 2600 // ~2.6 TB/s per stack group
	return g
}

// H100GPM models the NVIDIA H100-class memory system the paper describes:
// 256 KB L1 per CU and 50 MB L2 (quartered), HBM2e-class bandwidth.
func H100GPM() GPM {
	g := MI100GPM()
	g.L1VCache = cache.Config{SizeBytes: 256 << 10, Ways: 8, MSHRs: 32, Latency: 1}
	g.L2Cache = cache.Config{SizeBytes: 12 << 20, Ways: 16, MSHRs: 128, Latency: 8}
	g.HBM.BytesPerCycle = 2000
	return g
}

// H200GPM is H100 with HBM3 bandwidth.
func H200GPM() GPM {
	g := H100GPM()
	g.HBM.BytesPerCycle = 4800 // 4.8 TB/s
	return g
}

// GPMVariant resolves a GPU generation by name.
func GPMVariant(name string) (GPM, error) {
	switch name {
	case "mi100", "MI100":
		return MI100GPM(), nil
	case "mi200", "MI200":
		return MI200GPM(), nil
	case "mi300", "MI300":
		return MI300GPM(), nil
	case "h100", "H100":
		return H100GPM(), nil
	case "h200", "H200":
		return H200GPM(), nil
	}
	return GPM{}, fmt.Errorf("config: unknown GPU variant %q", name)
}

// GPMVariantNames lists the Fig 21 configurations in paper order.
func GPMVariantNames() []string { return []string{"MI100", "MI200", "MI300", "H100", "H200"} }

// IdealLatencyIOMMU is the Fig 2 idealisation with 1-cycle walks.
func IdealLatencyIOMMU() IOMMU {
	c := DefaultIOMMU()
	c.WalkCycles = 1
	return c
}

// IdealParallelIOMMU is the Fig 2 idealisation with 4096 walkers.
func IdealParallelIOMMU() IOMMU {
	c := DefaultIOMMU()
	c.Walkers = 4096
	return c
}

// MCM4 returns the Multi-Chip-Module configuration of Fig 4's comparison
// point: a 3x3 mesh with the CPU in the middle. The paper's MCM has 4 GPMs;
// the 3x3 mesh, the smallest supported, has 8. Fig 4's point is the
// queue-depth contrast, which survives the difference.
func MCM4() System {
	c := Default()
	c.MeshW, c.MeshH = 3, 3
	c.HDPAT.Layers = 1
	return c
}

// Wafer7x12 returns the enlarged wafer of Fig 22.
func Wafer7x12() System {
	c := Default()
	c.MeshW, c.MeshH = 7, 12
	return c
}

// ApplyScale returns a copy with capacity structures divided by
// WorkloadScale. Scaling footprints down without scaling the caches that
// filter them would distort every miss ratio the paper's observations rest
// on (O3's re-translation traffic exists because footprints exceed TLB
// reach); dividing both keeps each benchmark's footprint:capacity ratio at
// its Table II value. Latencies, parallelism (walkers, MSHRs) and the
// PW-queue bound are not scaled: they are rates, not capacities.
// wafer.Run applies this automatically before building the system.
func (s System) ApplyScale() System {
	f := s.WorkloadScale
	if f <= 1 {
		return s
	}
	div := func(v int, min int) int {
		v /= f
		if v < min {
			v = min
		}
		return v
	}
	s.GPM.L2TLB.Sets = div(s.GPM.L2TLB.Sets, 1)
	s.GPM.GMMUCache.Sets = div(s.GPM.GMMUCache.Sets, 1)
	s.GPM.AuxTLB.Sets = div(s.GPM.AuxTLB.Sets, 1)
	s.GPM.L2Cache.SizeBytes = div(s.GPM.L2Cache.SizeBytes, 64*s.GPM.L2Cache.Ways)
	if s.IOMMU.RedirectEntries > 0 {
		s.IOMMU.RedirectEntries = div(s.IOMMU.RedirectEntries, 16)
	}
	s.IOMMU.TLBSets = div(s.IOMMU.TLBSets, 1)
	return s
}

// Mesh size bounds enforced by Validate, shared with the geometry layer.
// The per-dimension cap keeps the W*H product free of integer overflow on
// any build (1024^2 fits easily in int32); the tile cap bounds what a
// simulation is allowed to allocate for topology — 65536 tiles is two
// orders of magnitude past the giant-wafer roadmap target (30x30 = 900)
// while refusing specs that would OOM the process before any simulation
// ran.
const (
	MaxMeshDim = geom.MaxDim
	MaxTiles   = geom.MaxTiles
)

// ValidationError is the typed error Validate reports: Field names the
// offending parameter and Reason says why it was rejected, so callers (the
// hdpatd spec gate in particular) can distinguish a bad configuration from
// an internal failure.
type ValidationError struct {
	Field  string
	Reason string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("config: invalid %s: %s", e.Field, e.Reason)
}

// Validate sanity-checks a configuration.
func (s System) Validate() error {
	if s.MeshW < 3 || s.MeshH < 3 {
		return &ValidationError{Field: "mesh", Reason: fmt.Sprintf("%dx%d too small (minimum 3x3)", s.MeshW, s.MeshH)}
	}
	if s.MeshW > MaxMeshDim || s.MeshH > MaxMeshDim {
		return &ValidationError{Field: "mesh", Reason: fmt.Sprintf("%dx%d exceeds the %d per-dimension cap", s.MeshW, s.MeshH, MaxMeshDim)}
	}
	// Both dimensions are in [3, MaxMeshDim], so the product cannot
	// overflow; cap the tile count a spec may ask the simulator to build.
	if s.MeshW*s.MeshH > MaxTiles {
		return &ValidationError{Field: "mesh", Reason: fmt.Sprintf("%dx%d = %d tiles exceeds the %d-tile cap", s.MeshW, s.MeshH, s.MeshW*s.MeshH, MaxTiles)}
	}
	if s.GPM.NumCUs <= 0 || s.GPM.GMMUWalkers <= 0 {
		return &ValidationError{Field: "gpm", Reason: "must have CUs and walkers"}
	}
	// A CU issues only while fewer than MLP of its ops are in flight, so
	// with none allowed it never issues and its GPM never finishes.
	if s.GPM.MLP < 1 {
		return &ValidationError{Field: "gpm.mlp", Reason: fmt.Sprintf("%d outstanding ops per CU: at least 1 is needed to issue", s.GPM.MLP)}
	}
	if err := s.validateGeometry(); err != nil {
		return err
	}
	if s.IOMMU.Walkers <= 0 || s.IOMMU.PWQueueCap <= 0 {
		return &ValidationError{Field: "iommu", Reason: "must have walkers and queue capacity"}
	}
	if s.HDPAT.Layers < 0 || s.HDPAT.Clusters < 1 {
		return &ValidationError{Field: "hdpat", Reason: "invalid layers/clusters"}
	}
	if s.PageSize < 1<<12 || uint64(s.PageSize)&(uint64(s.PageSize)-1) != 0 {
		return &ValidationError{Field: "page_size", Reason: fmt.Sprintf("%d not a power-of-two >= 4K", s.PageSize)}
	}
	if s.WorkloadScale < 1 {
		return &ValidationError{Field: "workload_scale", Reason: "must be >= 1"}
	}
	if s.NoC.BytesPerCycle <= 0 {
		return &ValidationError{Field: "noc", Reason: fmt.Sprintf("bytes_per_cycle %v must be positive", s.NoC.BytesPerCycle)}
	}
	// HopLatency is an unsigned cycle count, so "negative" cannot be
	// represented; zero is rejected too because every hop must advance
	// simulated time, or a message could cross the wafer (and a deflected
	// one circle it) within the cycle it was sent.
	if s.NoC.HopLatency < 1 {
		return &ValidationError{Field: "noc", Reason: "hop_latency must be >= 1 cycle"}
	}
	if !noc.ValidRouting(s.NoC.Routing) {
		return &ValidationError{Field: "noc.routing", Reason: fmt.Sprintf("unknown routing %q (valid: %s)", s.NoC.Routing, strings.Join(noc.RoutingNames(), ", "))}
	}
	return nil
}

// validateGeometry rejects TLB and cache shapes the simulator cannot build
// or run: every TLB needs sets and ways, every cache ways and a size, and
// the levels that stall a miss while their MSHR file is full (the L2 TLB,
// the L2 cache and the IOMMU's TLB variant) need at least one register, or
// the first miss waits forever. The auxiliary TLB has no MSHR file, so its
// zero MSHRs are valid.
func (s System) validateGeometry() error {
	type tlbLevel struct {
		field string
		c     tlb.Config
		stall bool // a miss waits while the MSHR file is full
	}
	tlbs := []tlbLevel{
		{"gpm.l1_tlb", s.GPM.L1TLB, false},
		{"gpm.l2_tlb", s.GPM.L2TLB, true},
		{"gpm.gmmu_cache", s.GPM.GMMUCache, false},
		{"gpm.aux_tlb", s.GPM.AuxTLB, false},
	}
	if s.IOMMU.UseTLB {
		tlbs = append(tlbs, tlbLevel{"iommu.tlb", tlb.Config{Sets: s.IOMMU.TLBSets, Ways: s.IOMMU.TLBWays, MSHRs: s.IOMMU.TLBMSHRs}, true})
	}
	for _, l := range tlbs {
		if l.c.Sets <= 0 || l.c.Ways <= 0 {
			return &ValidationError{Field: l.field, Reason: fmt.Sprintf("%d sets x %d ways: both must be positive", l.c.Sets, l.c.Ways)}
		}
		if l.stall && l.c.MSHRs <= 0 {
			return &ValidationError{Field: l.field, Reason: fmt.Sprintf("%d MSHRs: a miss stalls until one frees, so at least 1 is needed", l.c.MSHRs)}
		}
	}
	caches := []struct {
		field string
		c     cache.Config
		stall bool
	}{
		{"gpm.l1_vcache", s.GPM.L1VCache, false},
		{"gpm.l2_cache", s.GPM.L2Cache, true},
	}
	for _, l := range caches {
		if l.c.Ways <= 0 || l.c.SizeBytes <= 0 {
			return &ValidationError{Field: l.field, Reason: fmt.Sprintf("%d bytes, %d ways: both must be positive", l.c.SizeBytes, l.c.Ways)}
		}
		if l.stall && l.c.MSHRs <= 0 {
			return &ValidationError{Field: l.field, Reason: fmt.Sprintf("%d MSHRs: a miss stalls until one frees, so at least 1 is needed", l.c.MSHRs)}
		}
	}
	return nil
}
