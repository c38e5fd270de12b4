// Command verifyinv is the invariant conformance harness: it drives every
// translation scheme × benchmark pair under the simulation invariant checker
// (hdpat.WithInvariants) — first at the paper's Table I configuration, then
// across randomized small wafer configurations — and cross-checks that
// same-seed serial and parallel batches are byte-identical. Any invariant
// violation or determinism divergence is reported and the process exits
// nonzero, so `make verify-invariants` can gate CI on it.
//
// Usage:
//
//	verifyinv [-ops N] [-seed N] [-rand N] [-workers N] [-routing xy|deflect] [-skip-default] [-v]
//
// -ops bounds the per-CU operation budget (the knob CI uses to bound run
// time); -rand sets how many randomized configurations to sweep; -routing
// reruns the whole harness under a different NoC routing policy (CI gates
// both xy and deflect).
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"time"

	"hdpat"
)

func main() {
	ops := flag.Int("ops", 4, "per-CU operation budget")
	seed := flag.Int64("seed", 1, "base simulation seed")
	randConfigs := flag.Int("rand", 3, "number of randomized small configurations to sweep")
	workers := flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
	skipDefault := flag.Bool("skip-default", false, "skip the Table I default-configuration matrix")
	scale := flag.Bool("scale", true, "run the giant-wafer (30x30) invariant case")
	routing := flag.String("routing", "", "NoC routing policy for every run (\"\" = xy, or \"deflect\")")
	verbose := flag.Bool("v", false, "log every run")
	flag.Parse()

	h := &harness{ops: *ops, seed: *seed, workers: *workers, routing: *routing, verbose: *verbose}

	if !*skipDefault {
		h.matrix("default (Table I)", hdpat.DefaultConfig(), hdpat.Benchmarks())
	}
	rng := rand.New(rand.NewSource(*seed))
	for i := 0; i < *randConfigs; i++ {
		cfg, desc := randomConfig(rng)
		// Three random benchmarks per configuration keep the sweep bounded;
		// the default matrix already covers every benchmark.
		benches := hdpat.Benchmarks()
		rng.Shuffle(len(benches), func(a, b int) { benches[a], benches[b] = benches[b], benches[a] })
		h.matrix(desc, cfg, benches[:3])
	}
	h.determinism()
	if *scale {
		h.scale30()
	}

	if h.failures > 0 {
		fmt.Fprintf(os.Stderr, "verifyinv: %d failure(s) across %d runs\n", h.failures, h.runs)
		os.Exit(1)
	}
	fmt.Printf("verifyinv: %d runs clean in %s\n", h.runs, h.elapsed().Round(time.Millisecond))
}

type harness struct {
	ops      int
	seed     int64
	workers  int
	routing  string
	verbose  bool
	runs     int
	failures int
	start    time.Time
}

// opts prefixes every run's option list with the harness-wide routing
// override.
func (h *harness) opts(extra ...hdpat.Option) []hdpat.Option {
	var o []hdpat.Option
	if h.routing != "" {
		o = append(o, hdpat.WithRouting(h.routing))
	}
	return append(o, extra...)
}

func (h *harness) elapsed() time.Duration {
	if h.start.IsZero() {
		return 0
	}
	return time.Since(h.start)
}

// matrix runs every scheme against the given benchmarks under invariants.
func (h *harness) matrix(desc string, cfg hdpat.Config, benches []string) {
	if h.start.IsZero() {
		h.start = time.Now()
	}
	var specs []hdpat.RunSpec
	for _, s := range hdpat.Schemes() {
		for _, b := range benches {
			specs = append(specs, hdpat.RunSpec{Scheme: s, Benchmark: b, OpsBudget: h.ops, Seed: h.seed})
		}
	}
	results, err := hdpat.RunBatch(context.Background(), cfg, specs,
		h.opts(hdpat.WithInvariants(), hdpat.WithAttribution(), hdpat.WithWorkers(h.workers))...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "FAIL %s: batch: %v\n", desc, err)
		h.failures++
		return
	}
	for _, r := range results {
		h.runs++
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %s %s/%s: %v\n", desc, r.Spec.Scheme, r.Spec.Benchmark, r.Err)
			h.failures++
		} else if h.verbose {
			fmt.Printf("ok   %s %s/%s (%d cycles)\n", desc, r.Spec.Scheme, r.Spec.Benchmark, r.Result.Cycles)
		}
	}
}

// determinism verifies same-seed serial and parallel batches are
// byte-identical under invariants.
func (h *harness) determinism() {
	specs := []hdpat.RunSpec{
		{Scheme: "baseline", Benchmark: "SPMV", OpsBudget: h.ops, Seed: h.seed},
		{Scheme: "hdpat", Benchmark: "SPMV", OpsBudget: h.ops, Seed: h.seed},
		{Scheme: "iommutlb", Benchmark: "KM", OpsBudget: h.ops, Seed: h.seed},
		{Scheme: "redirect", Benchmark: "AES", OpsBudget: h.ops, Seed: h.seed},
	}
	cfg := hdpat.DefaultConfig()
	cfg.MeshW, cfg.MeshH = 5, 5
	cfg.GPM.NumCUs = 8
	serial, err1 := hdpat.RunBatch(context.Background(), cfg, specs,
		h.opts(hdpat.WithInvariants(), hdpat.WithWorkers(1))...)
	parallel, err2 := hdpat.RunBatch(context.Background(), cfg, specs,
		h.opts(hdpat.WithInvariants(), hdpat.WithWorkers(4))...)
	if err1 != nil || err2 != nil {
		fmt.Fprintf(os.Stderr, "FAIL determinism: %v / %v\n", err1, err2)
		h.failures++
		return
	}
	for i := range serial {
		h.runs += 2
		serial[i].Wall, parallel[i].Wall = 0, 0
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			fmt.Fprintf(os.Stderr, "FAIL determinism: %s/%s differs between serial and parallel\n",
				serial[i].Spec.Scheme, serial[i].Spec.Benchmark)
			h.failures++
		}
	}
}

// scale30 runs one scheme/benchmark pair on the giant 30x30 wafer (899
// GPMs): once plain and once under the invariant checker, asserting the
// checker stays green and the two Results byte-identical (checking only
// observes). This is where the sparse link accounting and lazy GPM
// instantiation would first break conservation — a link the sweep skips,
// or a GPM the checker's probes materialize, shows up here. Disable with
// -scale=false.
func (h *harness) scale30() {
	if h.start.IsZero() {
		h.start = time.Now()
	}
	cfg := hdpat.DefaultConfig()
	cfg.MeshW, cfg.MeshH = 30, 30
	spec := hdpat.RunSpec{Scheme: "hdpat", Benchmark: "SPMV", OpsBudget: h.ops, Seed: h.seed}
	h.runs += 2
	serial, err := hdpat.Simulate(cfg, spec, h.opts()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "FAIL scale 30x30: serial: %v\n", err)
		h.failures++
		return
	}
	checked, err := hdpat.Simulate(cfg, spec, h.opts(hdpat.WithInvariants())...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "FAIL scale 30x30: invariants: %v\n", err)
		h.failures++
		return
	}
	if !reflect.DeepEqual(serial, checked) {
		fmt.Fprintf(os.Stderr, "FAIL scale 30x30: result differs with the invariant checker attached\n")
		h.failures++
	} else if h.verbose {
		fmt.Printf("ok   scale 30x30 hdpat/SPMV (%d cycles)\n", serial.Cycles)
	}
}

// randomConfig derives a small but valid wafer configuration from rng:
// mesh geometry, CU count and IOMMU pressure parameters all vary so the
// invariants see queue-full, MSHR-full and admission-stage corner cases the
// default configuration never reaches.
func randomConfig(rng *rand.Rand) (hdpat.Config, string) {
	cfg := hdpat.DefaultConfig()
	cfg.MeshW = 3 + rng.Intn(4) // 3..6
	cfg.MeshH = 3 + rng.Intn(4)
	cfg.GPM.NumCUs = 4 << rng.Intn(3) // 4, 8, 16
	cfg.IOMMU.Walkers = 1 << rng.Intn(4)
	cfg.IOMMU.PWQueueCap = 2 << rng.Intn(5) // 2..32
	// WorkloadScale divides footprints; stay at or above the default so the
	// randomized runs are never slower than the Table I matrix.
	cfg.WorkloadScale = 4 + rng.Intn(5)
	desc := fmt.Sprintf("rand %dx%d cus=%d walkers=%d pwq=%d scale=%d",
		cfg.MeshW, cfg.MeshH, cfg.GPM.NumCUs, cfg.IOMMU.Walkers,
		cfg.IOMMU.PWQueueCap, cfg.WorkloadScale)
	return cfg, desc
}
