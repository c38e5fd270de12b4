package wafer

import (
	"context"
	"testing"

	"hdpat/internal/attr"
	"hdpat/internal/cache"
	"hdpat/internal/config"
	"hdpat/internal/noc"
	"hdpat/internal/tlb"
	"hdpat/internal/vm"
	"hdpat/internal/workload"
)

// fuzzConfig decodes a small system and the options of one run on it from
// data, one byte a field, missing bytes reading as zero: the scheme, a mesh
// of 2-4 by 2-4 tiles, 1-4 CUs, the MLP, every TLB's sets, ways and MSHRs,
// both caches' size, ways and MSHRs, the IOMMU's TLB geometry, the routing
// (one name unknown), the benchmark, 1-4 ops per CU and the seed. Fields
// range from zero up, so Validate sees shapes it must reject as well as
// ones it must accept. Four fields follow the seed, where a zero keeps
// smallConfig's value: 1-15 IOMMU walkers, a PW-queue cap of 1-32, a
// WorkloadScale of 4-8 and a 16K or 64K page. They put the IOMMU's
// admission stage and full PW-queue, larger footprints and larger pages
// under the checker, and inputs that end at the seed decode as before.
func fuzzConfig(data []byte) (config.System, Options) {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	schemes := SchemeNames()
	scheme := schemes[next(len(schemes))]
	cfg, err := ConfigFor(scheme, smallConfig())
	if err != nil {
		panic(err)
	}
	cfg.MeshW, cfg.MeshH = 2+next(3), 2+next(3)
	cfg.GPM.NumCUs = 1 + next(4)
	cfg.GPM.MLP = next(5)
	for _, c := range []*tlb.Config{&cfg.GPM.L1TLB, &cfg.GPM.L2TLB, &cfg.GPM.GMMUCache, &cfg.GPM.AuxTLB} {
		c.Sets, c.Ways, c.MSHRs = next(5), next(5), next(5)
	}
	for _, c := range []*cache.Config{&cfg.GPM.L1VCache, &cfg.GPM.L2Cache} {
		c.SizeBytes, c.Ways, c.MSHRs = cache.LineSize*next(9), next(5), next(5)
	}
	cfg.IOMMU.TLBSets, cfg.IOMMU.TLBWays, cfg.IOMMU.TLBMSHRs = next(5), next(5), next(5)
	cfg.NoC.Routing = []string{noc.RoutingXY, noc.RoutingDeflect, "zigzag"}[next(3)]
	bench, err := workload.ByAbbr([]string{"FIR", "SPMV", "PR"}[next(3)])
	if err != nil {
		panic(err)
	}
	opts := Options{Scheme: scheme, Benchmark: bench, OpsBudget: 1 + next(4), Seed: int64(next(256)),
		Invariants: true, Attribution: &attr.Config{}, MaxCycles: 1_000_000}
	if v := next(16); v != 0 {
		cfg.IOMMU.Walkers = v
	}
	if v := next(33); v != 0 {
		cfg.IOMMU.PWQueueCap = v
	}
	if v := next(6); v != 0 {
		cfg.WorkloadScale = 3 + v
	}
	if v := next(3); v != 0 {
		cfg.PageSize = []vm.PageSize{vm.Page16K, vm.Page64K}[v-1]
	}
	return cfg, opts
}

// FuzzValidatedConfigRuns runs every small configuration config.Validate
// accepts: first on a fresh wafer, then twice through RunContext after a
// run of the same configuration on a wafer one tile wider, so the first
// recycled run builds new headers and the second takes back everything the
// first built. Every run carries the invariant checker and the attribution
// ledger and must complete without a violation, and both recycled runs
// must reproduce the fresh one. A panic anywhere means Validate accepted a
// configuration the simulator cannot build or run.
func FuzzValidatedConfigRuns(f *testing.F) {
	// Every field at the first valid value: 3x3, hdpat, XY, one-entry
	// structures with one MSHR.
	f.Add([]byte{7, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 3, 3})
	// 4x4 deflection routing, four CUs, conflict-dense TLBs, PR.
	f.Add([]byte{7, 2, 2, 3, 4, 2, 1, 1, 4, 2, 2, 1, 1, 0, 2, 2, 0, 4, 1, 0, 8, 2, 2, 0, 0, 0, 1, 2, 3, 9})
	// The IOMMU-TLB variant on a 3x4 wafer.
	f.Add([]byte{11, 1, 2, 1, 2, 2, 2, 1, 1, 1, 1, 2, 2, 1, 1, 1, 0, 2, 1, 1, 4, 2, 1, 2, 2, 1, 0, 1, 2, 5})
	// Rejected: a 2-tile-wide mesh, an L2 TLB without MSHRs, zero MLP.
	f.Add([]byte{7, 0, 1})
	f.Add([]byte{7, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0})
	f.Add([]byte{7, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, opts := fuzzConfig(data)
		if cfg.Validate() != nil {
			return
		}
		fresh, err := freshRun(context.Background(), cfg, opts)
		if err != nil {
			t.Fatalf("fresh run of a validated configuration: %v", err)
		}
		want := digestOf(fresh)
		other := cfg
		other.MeshW++
		if _, err := RunContext(context.Background(), other, opts); err != nil {
			t.Fatalf("run on a wafer one tile wider: %v", err)
		}
		for i := range 2 {
			res, err := RunContext(context.Background(), cfg, opts)
			if err != nil {
				t.Fatalf("recycled run %d: %v", i+1, err)
			}
			if got := digestOf(res); got != want {
				t.Fatalf("recycled run %d: digest %s, fresh %s", i+1, got, want)
			}
		}
	})
}
