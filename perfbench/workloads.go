package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"hdpat"
	"hdpat/internal/sim"
	"hdpat/internal/vm"
	"hdpat/internal/wafer"
	"hdpat/internal/workload"
)

// workloadRunner runs one named workload. Every iteration builds fresh
// wafers, so the modelled caches start cold; the loop is closed — a batch
// submits all its specs at once and the daemon client sends its next
// request only after the previous one is served.
type workloadRunner interface {
	// workers is the simulation concurrency; connections the HTTP clients.
	workers(b *bench) int
	connections() int
	// exactHops reports whether routing is minimal (XY), so HopsTotal must
	// equal the Manhattan total.
	exactHops() bool
	// prepare runs once before timing: the reference check at recordedSeed,
	// plus any warm-up the set-up pass needs.
	prepare(b *bench) error
	// setup times one set-up pass.
	setup(b *bench) (setupStats, error)
	// iterate performs one timed iteration, bracketing the measured
	// interval with it.begin and it.end.
	iterate(b *bench, it *iteration) error
}

// setupStats is one set-up pass.
type setupStats struct {
	wall time.Duration
	// buildMs is each build-only run's wall time; bytesPerGPM the pass's
	// allocation per GPM built. Both stay zero for the daemon.
	buildMs     []float64
	bytesPerGPM float64
}

var runners = map[string]workloadRunner{
	// Table I 7x7, XY routing: the paper-figure cross-product users run.
	"t1-sweep": &batchWorkload{name: "t1-sweep", cfg: hdpat.DefaultConfig(),
		schemes: []string{"transfw", "hdpat"}, benchmarks: []string{"PR", "SPMV", "FIR"}},
	// The Fig 22 7x12 wafer under bufferless deflection routing.
	"w7x12-deflect": &batchWorkload{name: "w7x12-deflect", cfg: hdpat.Wafer7x12Config(),
		schemes: []string{"hdpat"}, benchmarks: []string{"PR", "SPMV"}, routing: "deflect"},
	// A 30x30 wafer with a concentrated footprint.
	"w30-scale": scaleWorkload{},
	// hdpatd serving one client over loopback HTTP.
	"daemon-sweep": &daemonWorkload{},
}

func workloadNames() []string {
	var out []string
	for n := range runners {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// batchOps is the per-CU ops budget of the batch workloads.
const batchOps = 32

// batchWorkload runs a CompareAll cross-product — each benchmark's baseline
// followed by every scheme — as one RunBatch on nproc workers. RunBatch is
// what CompareAll calls; driving it directly exposes RunResult.Wall.
type batchWorkload struct {
	name       string
	cfg        hdpat.Config
	schemes    []string
	benchmarks []string
	routing    string
}

func (d *batchWorkload) workers(b *bench) int { return b.workers }
func (d *batchWorkload) connections() int     { return 0 }
func (d *batchWorkload) exactHops() bool      { return d.routing == "" }

// specs lays the cross-product out the way CompareAll does.
func (d *batchWorkload) specs() []hdpat.RunSpec {
	var out []hdpat.RunSpec
	for _, bm := range d.benchmarks {
		out = append(out, hdpat.RunSpec{Scheme: "baseline", Benchmark: bm})
		for _, s := range d.schemes {
			out = append(out, hdpat.RunSpec{Scheme: s, Benchmark: bm})
		}
	}
	return out
}

func (d *batchWorkload) run(seed int64, workers int, extra ...hdpat.Option) ([]hdpat.RunResult, error) {
	opts := []hdpat.Option{hdpat.WithOpsBudget(batchOps), hdpat.WithSeed(seed), hdpat.WithWorkers(workers)}
	if d.routing != "" {
		opts = append(opts, hdpat.WithRouting(d.routing))
	}
	return hdpat.RunBatch(context.Background(), d.cfg, d.specs(), append(opts, extra...)...)
}

func (d *batchWorkload) prepare(b *bench) error {
	runs, err := d.run(recordedSeed, b.workers)
	if err != nil {
		return err
	}
	got := map[string]string{}
	for _, r := range runs {
		b.attempted++
		key := r.Spec.Scheme + "/" + r.Spec.Benchmark
		if r.Err != nil {
			b.fail("%s at seed %d: %v", key, recordedSeed, r.Err)
			continue
		}
		if err := checkResult(r.Result, d.exactHops()); err != nil {
			b.fail("%s at seed %d: %v", key, recordedSeed, err)
			continue
		}
		got[key] = digestResult(r.Result)
	}
	return b.checkReference(d.name, got)
}

func (d *batchWorkload) setup(b *bench) (setupStats, error) {
	before := allocated()
	start := time.Now()
	runs, err := d.run(b.seed, b.workers, hdpat.WithMaxCycles(1))
	s := setupStats{wall: time.Since(start)}
	if err != nil {
		return s, err
	}
	if err := buildOnly(runs); err != nil {
		return s, err
	}
	for _, r := range runs {
		s.buildMs = append(s.buildMs, float64(r.Wall.Nanoseconds())/1e6)
	}
	gpms := d.cfg.MeshW*d.cfg.MeshH - 1
	s.bytesPerGPM = float64(allocated()-before) / float64(len(runs)*gpms)
	return s, nil
}

// buildOnly confirms every run of a build-only pass stopped at its cycle
// limit, the one error that pass expects.
func buildOnly(runs []hdpat.RunResult) error {
	for _, r := range runs {
		if r.Err == nil || !strings.Contains(r.Err.Error(), "cycle limit") {
			return fmt.Errorf("build-only %s/%s: want a cycle-limit error, got %v",
				r.Spec.Scheme, r.Spec.Benchmark, r.Err)
		}
	}
	return nil
}

func (d *batchWorkload) iterate(b *bench, it *iteration) error {
	it.workers = b.workers
	it.begin()
	runs, err := d.run(b.seed, b.workers)
	it.end()
	if err != nil {
		return err
	}
	for _, r := range runs {
		it.runWalls = append(it.runWalls, r.Wall)
		if r.Err != nil {
			it.runErrs = append(it.runErrs, fmt.Errorf("%s/%s: %w", r.Spec.Scheme, r.Spec.Benchmark, r.Err))
			continue
		}
		it.results = append(it.results, r.Result)
	}
	return nil
}

// allocated returns the bytes allocated by the process so far.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// The scale workload: a 30x30 wafer (899 GPMs) where only every tenth GPM
// issues traffic, striding its own chunk of one shared region and sampling
// the next active GPM's chunk — remote traffic that never wakes an idle
// GPM. Wafer construction, lazy GPM materialization and GC dominate.
const (
	scaleDim         = 30
	scaleGPMs        = scaleDim*scaleDim - 1
	scaleActiveEvery = 10
	scaleOps         = 16
)

type scaleWorkload struct{}

func (scaleWorkload) workers(*bench) int { return 1 }
func (scaleWorkload) connections() int   { return 0 }
func (scaleWorkload) exactHops() bool    { return true }

// scaleBenchmark builds the concentrated trace. The seed picks which tenth
// of the wafer is active and offsets every stride, so seeds give different
// inputs of the same shape.
func scaleBenchmark(seed int64) workload.Benchmark {
	phase := int(((seed % scaleActiveEvery) + scaleActiveEvery) % scaleActiveEvery)
	shift := int(seed & 0xffff)
	regions := []workload.RegionSpec{{Name: "main", Pages: scaleGPMs * 4}}
	trace := func(ctx workload.Context) []vm.VAddr {
		if (ctx.GPM+phase)%scaleActiveEvery != 0 {
			return nil
		}
		r := ctx.Regions["main"]
		lo, hi := r.OwnerSlice(ctx.GPM, ctx.NumGPMs)
		peer := (ctx.GPM + scaleActiveEvery) % ctx.NumGPMs
		plo, phi := r.OwnerSlice(peer, ctx.NumGPMs)
		out := make([]vm.VAddr, 0, ctx.OpsBudget)
		for i := 0; i < ctx.OpsBudget; i++ {
			var p int
			switch {
			case i%4 == 3 && phi > plo:
				p = plo + (i*7+ctx.CU+shift)%(phi-plo)
			case hi > lo:
				p = lo + (i*3+ctx.CU+shift)%(hi-lo)
			}
			out = append(out, ctx.PageSize.Base(r.Start+vm.VPN(p))+vm.VAddr((i%64)*64))
		}
		return out
	}
	return workload.Custom("SC30", "scale-30x30-concentrated", 64, regions, trace)
}

func scaleRun(seed int64, maxCycles uint64) (hdpat.Result, error) {
	cfg := hdpat.DefaultConfig()
	cfg.MeshW, cfg.MeshH = scaleDim, scaleDim
	cfg, err := wafer.ConfigFor("hdpat", cfg)
	if err != nil {
		return hdpat.Result{}, err
	}
	return wafer.Run(cfg, wafer.Options{
		Scheme: "hdpat", Benchmark: scaleBenchmark(seed),
		OpsBudget: scaleOps, Seed: seed, MaxCycles: sim.VTime(maxCycles),
	})
}

func (scaleWorkload) prepare(b *bench) error {
	b.attempted++
	res, err := scaleRun(recordedSeed, 0)
	if err == nil {
		err = checkResult(res, true)
	}
	if err != nil {
		b.fail("hdpat/SC30 at seed %d: %v", recordedSeed, err)
		return b.checkReference("w30-scale", map[string]string{})
	}
	return b.checkReference("w30-scale", map[string]string{"hdpat/SC30": digestResult(res)})
}

func (scaleWorkload) setup(b *bench) (setupStats, error) {
	before := allocated()
	start := time.Now()
	_, err := scaleRun(b.seed, 1)
	s := setupStats{wall: time.Since(start)}
	if err == nil || !strings.Contains(err.Error(), "cycle limit") {
		return s, fmt.Errorf("build-only hdpat/SC30: want a cycle-limit error, got %v", err)
	}
	s.buildMs = []float64{float64(s.wall.Nanoseconds()) / 1e6}
	s.bytesPerGPM = float64(allocated()-before) / scaleGPMs
	return s, nil
}

func (scaleWorkload) iterate(b *bench, it *iteration) error {
	it.workers = 1
	it.begin()
	res, err := scaleRun(b.seed, 0)
	it.end()
	it.runWalls = []time.Duration{it.wall}
	if err != nil {
		it.runErrs = append(it.runErrs, fmt.Errorf("hdpat/SC30: %w", err))
		return nil
	}
	it.results = append(it.results, res)
	return nil
}
