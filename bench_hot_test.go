// Hot-path benchmarks: allocation and event-throughput measurements of the
// Compare path the experiments harness leans on. Unlike the paper-artifact
// benchmarks in bench_test.go these report allocs/op and events/sec, the
// two regression signals the bench-gate compares against results/bench.json
// (see docs/performance.md for the profiling workflow).
package hdpat_test

import (
	"context"
	"strings"
	"testing"

	"hdpat"
	"hdpat/internal/wafer"
)

// runCompareHot executes one baseline-vs-scheme comparison per iteration on
// the given wafer and reports kernel throughput alongside the standard
// allocation metrics.
func runCompareHot(b *testing.B, cfg hdpat.Config, scheme, bench string, extra ...hdpat.Option) {
	b.Helper()
	opts := append([]hdpat.Option{
		hdpat.WithOpsBudget(32), hdpat.WithSeed(3), hdpat.WithWorkers(1),
	}, extra...)
	b.ReportAllocs()
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := hdpat.Compare(cfg, scheme, bench, opts...)
		if err != nil {
			b.Fatal(err)
		}
		events += cmp.Baseline.Events + cmp.Result.Events
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
	}
}

// BenchmarkCompareHDPAT is the canonical hot path: the full scheme against
// the baseline, exercising GPM translation, the IOMMU walk/redirect/revisit
// machinery, concentric probes and every NoC hop in between.
func BenchmarkCompareHDPAT(b *testing.B) {
	runCompareHot(b, hdpat.DefaultConfig(), "hdpat", "PR")
}

// BenchmarkCompareHDPATMetrics is BenchmarkCompareHDPAT with every run
// publishing into a metrics registry: against BenchmarkCompareHDPAT it
// prices leaving metrics on.
func BenchmarkCompareHDPATMetrics(b *testing.B) {
	runCompareHot(b, hdpat.DefaultConfig(), "hdpat", "PR", hdpat.WithMetrics(hdpat.NewMetricsRegistry()))
}

// BenchmarkCompareBaseline isolates the naive path: every remote
// translation walks at the IOMMU, so the kernel and request pooling
// dominate; scheme-side probe traffic is absent.
func BenchmarkCompareBaseline(b *testing.B) {
	runCompareHot(b, hdpat.DefaultConfig(), "baseline", "SPMV")
}

// BenchmarkCompareHDPATDeflect is the canonical comparison under the
// bufferless deflection router: every hop pays the policy's route call and
// contended hops pay the misroute probe, so against BenchmarkCompareHDPAT
// it prices the routing seam. Informational in the bench gate so router
// tuning does not flake CI.
func BenchmarkCompareHDPATDeflect(b *testing.B) {
	runCompareHot(b, hdpat.DefaultConfig(), "hdpat", "PR", hdpat.WithRouting("deflect"))
}

// BenchmarkCompareHDPAT7x12 repeats the comparison on the enlarged Fig 22
// wafer.
func BenchmarkCompareHDPAT7x12(b *testing.B) {
	runCompareHot(b, hdpat.Wafer7x12Config(), "hdpat", "PR")
}

// BenchmarkBuildTableI prices the fixed per-run cost every Compare leg pays
// before its first event: building the Table I wafer (GPM caches, TLBs,
// cuckoo filters, per-CU traces) for hdpat/PR. The one-cycle limit stops
// each run right after the build, so ns/op and allocs/op are the build.
func BenchmarkBuildTableI(b *testing.B) {
	runBuild(b, context.Background())
}

// BenchmarkBuildTableIRecycled is BenchmarkBuildTableI as a batch worker
// pays it from its second run on: every build takes the GPM hierarchies
// the previous run handed back to the worker's store instead of
// allocating them.
func BenchmarkBuildTableIRecycled(b *testing.B) {
	runBuild(b, wafer.WithRecycling(context.Background()))
}

// runBuild times build-only Table I hdpat/PR runs under ctx, after one
// untimed run that warms any recycling store ctx carries.
func runBuild(b *testing.B, ctx context.Context) {
	cfg := hdpat.DefaultConfig()
	spec := hdpat.RunSpec{Scheme: "hdpat", Benchmark: "PR", OpsBudget: 32, Seed: 3}
	build := func() {
		_, err := hdpat.SimulateContext(ctx, cfg, spec, hdpat.WithMaxCycles(1))
		if err == nil || !strings.Contains(err.Error(), "cycle limit") {
			b.Fatalf("want a cycle-limit error, got %v", err)
		}
	}
	build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build()
	}
}
