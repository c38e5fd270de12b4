// Public-API tests for the invariant checker, and the repository's one
// conformance harness: the cross-scheme matrix (WithInvariants runs clean
// on every scheme × benchmark pair, on the small batch wafer and at Table
// I, under both routings), the determinism guarantees (results
// byte-identical with invariants on or off, serial identical to parallel)
// and the 30x30 wafer. Randomized small configurations are internal/wafer's
// FuzzValidatedConfigRuns.
package hdpat_test

import (
	"context"
	"reflect"
	"testing"

	"hdpat"
	"hdpat/internal/noc"
	"hdpat/internal/wafer"
	"hdpat/internal/workload"
)

// routings are the NoC routing policies every conformance leg runs under.
var routings = []string{noc.RoutingXY, noc.RoutingDeflect}

// invariantSpecs is the full scheme × benchmark cross-product.
func invariantSpecs(ops int) []hdpat.RunSpec {
	var specs []hdpat.RunSpec
	for _, s := range hdpat.Schemes() {
		for _, b := range hdpat.Benchmarks() {
			specs = append(specs, hdpat.RunSpec{Scheme: s, Benchmark: b, OpsBudget: ops, Seed: 1})
		}
	}
	return specs
}

// TestInvariantsCleanAcrossAllSchemes runs the full scheme × benchmark
// cross-product under invariants and attribution, on the small batch wafer
// at 8 ops and at the Table I configuration at 2 ops, each under XY and
// deflection routing: every pair must settle without a violation. Under
// -race the Table I legs skip; CI's conformance job runs them without it.
func TestInvariantsCleanAcrossAllSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("full conformance matrix in -short mode")
	}
	for _, c := range []struct {
		name string
		cfg  hdpat.Config
		ops  int
	}{
		{"5x5", batchCfg(), 8},
		{"TableI", hdpat.DefaultConfig(), 2},
	} {
		for _, routing := range routings {
			t.Run(c.name+"/"+routing, func(t *testing.T) {
				if raceEnabled && c.name == "TableI" {
					t.Skip("Table I matrix skipped under -race")
				}
				results, err := hdpat.RunBatch(context.Background(), c.cfg, invariantSpecs(c.ops),
					hdpat.WithRouting(routing), hdpat.WithInvariants(), hdpat.WithAttribution())
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range results {
					if r.Err != nil {
						t.Errorf("%s/%s: %v", r.Spec.Scheme, r.Spec.Benchmark, r.Err)
					}
				}
			})
		}
	}
}

// Invariant checking only observes: simulation outcomes are byte-identical
// with the checker on and off.
func TestInvariantsDeterminism(t *testing.T) {
	spec := hdpat.RunSpec{Scheme: "hdpat", Benchmark: "KM"}
	plain, err := hdpat.Simulate(obsConfig(), spec, hdpat.WithOpsBudget(16), hdpat.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	checked, err := hdpat.Simulate(obsConfig(), spec, hdpat.WithOpsBudget(16), hdpat.WithSeed(7),
		hdpat.WithInvariants(), hdpat.WithAttribution())
	if err != nil {
		t.Fatal(err)
	}
	checked.Breakdown = nil
	if !reflect.DeepEqual(plain, checked) {
		t.Error("invariant checking changed public-API results")
	}
}

// Same-seed serial and parallel batches under invariants are
// byte-identical, under either routing.
func TestInvariantsSerialVsParallel(t *testing.T) {
	specs := []hdpat.RunSpec{
		{Scheme: "baseline", Benchmark: "SPMV", OpsBudget: 24, Seed: 1},
		{Scheme: "hdpat", Benchmark: "SPMV", OpsBudget: 24, Seed: 1},
		{Scheme: "iommutlb", Benchmark: "KM", OpsBudget: 24, Seed: 1},
		{Scheme: "redirect", Benchmark: "AES", OpsBudget: 24, Seed: 1},
	}
	for _, routing := range routings {
		t.Run(routing, func(t *testing.T) {
			serial, err := hdpat.RunBatch(context.Background(), batchCfg(), specs,
				hdpat.WithRouting(routing), hdpat.WithInvariants(), hdpat.WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := hdpat.RunBatch(context.Background(), batchCfg(), specs,
				hdpat.WithRouting(routing), hdpat.WithInvariants(), hdpat.WithWorkers(4))
			if err != nil {
				t.Fatal(err)
			}
			for i := range serial {
				serial[i].Wall, parallel[i].Wall = 0, 0
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Error("parallel batch under invariants differs from serial")
			}
			for _, r := range serial {
				if r.Err != nil {
					t.Errorf("%s/%s: %v", r.Spec.Scheme, r.Spec.Benchmark, r.Err)
				}
			}
		})
	}
}

// TestInvariants30x30 runs the invariant checker on the giant 30x30 wafer,
// under both routings, with two workloads: the concentrated scale workload
// (see bench_scale_test.go), where most of the wafer stays unmaterialized
// and link state is sparse, and SPMV's full-wafer traffic. The
// conservation and accounting invariants must hold — a broken VisitLinks
// sweep, or a GPM the checker's probes materialize, would first show up
// here — and the checked run must equal a plain one, so checking only
// observes at scale too. The full-traffic legs run only with the
// conformance build tag, which CI's conformance job sets.
func TestInvariants30x30(t *testing.T) {
	if testing.Short() {
		t.Skip("30x30 run is not short")
	}
	spmv, err := workload.ByAbbr("SPMV")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		bench workload.Benchmark
		ops   int
	}{
		{"concentrated", scaleWorkload(), 8},
		{"full", spmv, 2},
	} {
		for _, routing := range routings {
			t.Run(c.name+"/"+routing, func(t *testing.T) {
				if !conformance && c.name == "full" {
					t.Skip("full-traffic 30x30 runs with -tags conformance")
				}
				cfg := scaleConfig(t)
				cfg.NoC.Routing = routing
				opts := wafer.Options{Scheme: "hdpat", Benchmark: c.bench, OpsBudget: c.ops, Seed: 1}
				plain, err := wafer.Run(cfg, opts)
				if err != nil {
					t.Fatalf("plain: %v", err)
				}
				opts.Invariants = true
				checked, err := wafer.Run(cfg, opts)
				if err != nil {
					t.Fatalf("invariants: %v", err)
				}
				if checked.Events == 0 || checked.Cycles == 0 {
					t.Errorf("degenerate run: events=%d cycles=%d", checked.Events, checked.Cycles)
				}
				if !reflect.DeepEqual(plain, checked) {
					t.Error("invariant checking changed the 30x30 result")
				}
			})
		}
	}
}
