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
// Every build after an untimed first one takes the GPM hierarchies, engine
// and freelists the previous run handed back to the process-wide store
// list, as every run does from its process's second on.
func BenchmarkBuildTableI(b *testing.B) {
	cfg := hdpat.DefaultConfig()
	spec := hdpat.RunSpec{Scheme: "hdpat", Benchmark: "PR", OpsBudget: 32, Seed: 3}
	build := func() {
		_, err := hdpat.Simulate(cfg, spec, hdpat.WithMaxCycles(1))
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

// BenchmarkBatchSetupTableI is the set-up cost of the t1-sweep batch in a
// long-lived process: each op runs the Table I cross-product (baseline,
// transfw and hdpat on PR, SPMV and FIR, 32 ops per CU) build-only twice,
// as two consecutive RunBatch calls. Every run draws its benchmark's
// traces from the process-wide trace table, which kept each set in the
// first op, and starts on a recycling store an earlier run handed back.
func BenchmarkBatchSetupTableI(b *testing.B) {
	cfg := hdpat.DefaultConfig()
	var specs []hdpat.RunSpec
	for _, bench := range []string{"PR", "SPMV", "FIR"} {
		for _, scheme := range []string{"baseline", "transfw", "hdpat"} {
			specs = append(specs, hdpat.RunSpec{Scheme: scheme, Benchmark: bench})
		}
	}
	pass := func() {
		runs, err := hdpat.RunBatch(context.Background(), cfg, specs,
			hdpat.WithOpsBudget(32), hdpat.WithSeed(3), hdpat.WithMaxCycles(1))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range runs {
			if r.Err == nil || !strings.Contains(r.Err.Error(), "cycle limit") {
				b.Fatalf("%s/%s: want a cycle-limit error, got %v", r.Spec.Scheme, r.Spec.Benchmark, r.Err)
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pass()
		pass()
	}
}
