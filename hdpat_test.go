package hdpat_test

import (
	"fmt"
	"reflect"
	"testing"

	"hdpat"
)

func TestSimulateDefault(t *testing.T) {
	cfg := hdpat.DefaultConfig()
	cfg.MeshW, cfg.MeshH = 5, 5
	cfg.GPM.NumCUs = 8
	res, err := hdpat.Simulate(cfg, hdpat.RunSpec{Scheme: "hdpat", Benchmark: "PR", OpsBudget: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.TotalOps == 0 {
		t.Fatalf("empty result %+v", res)
	}
	if res.Scheme != "hdpat" || res.Benchmark != "PR" {
		t.Errorf("labels %s/%s", res.Scheme, res.Benchmark)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := hdpat.Simulate(hdpat.DefaultConfig(), hdpat.RunSpec{Scheme: "hdpat"}); err == nil {
		t.Error("missing benchmark accepted")
	}
	if _, err := hdpat.Simulate(hdpat.DefaultConfig(), hdpat.RunSpec{Scheme: "nope", Benchmark: "PR"}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := hdpat.Simulate(hdpat.DefaultConfig(), hdpat.RunSpec{Benchmark: "NOPE"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestCompare(t *testing.T) {
	cfg := hdpat.DefaultConfig()
	cfg.MeshW, cfg.MeshH = 5, 5
	cfg.GPM.NumCUs = 8
	cmp, err := hdpat.Compare(cfg, "hdpat", "KM", hdpat.WithOpsBudget(32), hdpat.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Baseline.Scheme != "baseline" || cmp.Result.Scheme != "hdpat" {
		t.Errorf("schemes %s/%s", cmp.Baseline.Scheme, cmp.Result.Scheme)
	}
	if cmp.Scheme != "hdpat" || cmp.Benchmark != "KM" {
		t.Errorf("labels %s/%s", cmp.Scheme, cmp.Benchmark)
	}
	if cmp.Speedup <= 0 {
		t.Errorf("speedup = %f", cmp.Speedup)
	}
}

func TestSimulateWithIOMMU(t *testing.T) {
	cfg := hdpat.DefaultConfig()
	cfg.MeshW, cfg.MeshH = 5, 5
	cfg.GPM.NumCUs = 8
	applied := false
	res, err := hdpat.Simulate(cfg,
		hdpat.RunSpec{Scheme: "hdpat", Benchmark: "FIR", OpsBudget: 32, Seed: 1},
		hdpat.WithIOMMU(func(io *hdpat.IOMMUConfig) {
			applied = true
			io.PrefetchDegree = 8
		}))
	if err != nil {
		t.Fatal(err)
	}
	if !applied {
		t.Error("tweak not invoked")
	}
	if res.IOMMU.Prefetches == 0 {
		t.Error("prefetch override had no effect")
	}
}

// WithDomains is deprecated and ignored: any domain count yields a Result
// identical to the run without the option.
func TestWithDomainsIgnored(t *testing.T) {
	cfg := hdpat.DefaultConfig()
	cfg.MeshW, cfg.MeshH = 5, 5
	cfg.GPM.NumCUs = 8
	spec := hdpat.RunSpec{Scheme: "hdpat", Benchmark: "PR", OpsBudget: 16, Seed: 3}
	want, err := hdpat.Simulate(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 2, 8} {
		got, err := hdpat.Simulate(cfg, spec, hdpat.WithDomains(n))
		if err != nil {
			t.Fatalf("WithDomains(%d): %v", n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("WithDomains(%d) result differs from the run without it", n)
		}
	}
}

func TestInventories(t *testing.T) {
	if len(hdpat.Benchmarks()) != 14 {
		t.Errorf("benchmarks = %d", len(hdpat.Benchmarks()))
	}
	if len(hdpat.Schemes()) < 12 {
		t.Errorf("schemes = %d", len(hdpat.Schemes()))
	}
	if hdpat.Wafer7x12Config().MeshH != 12 {
		t.Error("7x12 config wrong")
	}
}

func ExampleBenchmarks() {
	fmt.Println(len(hdpat.Benchmarks()), hdpat.Benchmarks()[0], hdpat.Benchmarks()[13])
	// Output: 14 AES SPMV
}

func ExampleSimulate() {
	cfg := hdpat.DefaultConfig()
	cfg.MeshW, cfg.MeshH = 5, 5 // small wafer for a fast example
	cfg.GPM.NumCUs = 4
	res, err := hdpat.Simulate(cfg, hdpat.RunSpec{
		Scheme: "hdpat", Benchmark: "KM", OpsBudget: 24, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Scheme, res.Benchmark, res.Cycles > 0, res.TotalOps > 0)
	// Output: hdpat KM true true
}
