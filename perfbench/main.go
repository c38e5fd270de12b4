// Command perfbench is the repository benchmark. It drives the simulator's
// public entry points through one named workload, checks every result, and
// prints one JSON line: end-to-end host metrics, or with -trace 1 the
// per-layer ledger (counts, layer probes and a CPU profile folded by
// package). run.py builds it inside the checkout and runs it; NOTES.md
// describes the workloads and every metric.
//
//	python3 perfbench/run.py --workload t1-sweep --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// recordedSeed is the seed of the committed reference digests
// (reference.json). Every invocation re-runs its workload once at this seed
// before timing, whatever -seed says, so the digest check always applies.
const recordedSeed = 3

// A run times set-up passes until it has at least setupPasses of them and
// they took setupSpan; setup_s is their median.
const (
	setupPasses = 7
	setupSpan   = time.Second
)

// minIterations bounds a measurement window from below, so even a slow
// iteration yields a median of several samples.
const minIterations = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation's configuration and correctness tally.
type bench struct {
	seed    int64
	workers int
	work    string // scratch directory inside the checkout
	refPath string
	update  bool // rewrite reference.json instead of checking it

	attempted, failed int
	failures          []string
}

// fail records one failed run or check.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the measurement window in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	work := flag.String("work", "", "scratch directory for daemon state and profiles (required)")
	results := flag.String("results", "", "directory for the result set with its provenance (required)")
	refPath := flag.String("reference", "reference.json", "committed reference digests")
	update := flag.Bool("update-reference", false, "rewrite this workload's reference digests instead of checking them")
	commit := flag.String("commit", "unknown", "source revision recorded in the provenance")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced, *work, *results, *refPath, *update, *commit); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced int, work, results, refPath string, update bool, commit string) error {
	w, ok := runners[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if seconds <= 0 || work == "" || results == "" {
		return fmt.Errorf("-seconds must be positive, and -work and -results set")
	}
	for _, d := range []string{work, results} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	b := &bench{seed: seed, workers: runtime.NumCPU(), work: work, refPath: refPath, update: update}
	// One process, at most nproc workers and one HTTP connection: refuse a
	// configuration that would oversubscribe the host.
	if w.workers(b) > runtime.NumCPU() || w.connections() > runtime.NumCPU() {
		return fmt.Errorf("%s asks for %d workers and %d connections on %d CPUs",
			name, w.workers(b), w.connections(), runtime.NumCPU())
	}
	window := time.Duration(seconds * float64(time.Second))

	if err := w.prepare(b); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	if update {
		fmt.Printf("updated %s for %s\n", refPath, name)
		return nil
	}
	var setups []setupStats
	for start := time.Now(); len(setups) < setupPasses || time.Since(start) < setupSpan; {
		runtime.GC()
		s, err := w.setup(b)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s)
	}
	plain, err := measure(b, w, window)
	if err != nil {
		return err
	}
	var m map[string]metric
	if traced == 0 {
		m = endToEnd(plain, setups)
	} else {
		profile := filepath.Join(work, "cpu.pprof")
		withProfile, err := measureProfiled(b, w, window/4, profile)
		if err != nil {
			return err
		}
		shares, err := foldProfile(profile)
		if err != nil {
			return err
		}
		probes, err := runProbes(b)
		if err != nil {
			return err
		}
		m = perLayer(plain, withProfile, setups, shares, probes)
	}
	rep := report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
	return emit(name, seed, traced, commit, results, plain, b, rep)
}

// measure runs timed iterations for at least d (and at least minIterations),
// checking every iteration's results.
func measure(b *bench, w workloadRunner, d time.Duration) ([]*iteration, error) {
	var its []*iteration
	start := time.Now()
	for len(its) < minIterations || time.Since(start) < d {
		runtime.GC()
		it := &iteration{}
		if err := w.iterate(b, it); err != nil {
			return nil, err
		}
		if it.wall == 0 {
			return nil, fmt.Errorf("iteration never closed its measured interval")
		}
		b.checkIteration(w, it)
		its = append(its, it)
	}
	return its, nil
}

// measureProfiled is measure under a CPU profile written to path.
func measureProfiled(b *bench, w workloadRunner, d time.Duration, path string) ([]*iteration, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	its, err := measure(b, w, d)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return its, err
}

// checkIteration applies the correctness checks to every run of it.
func (b *bench) checkIteration(w workloadRunner, it *iteration) {
	b.attempted += len(it.results) + len(it.runErrs)
	for _, err := range it.runErrs {
		b.fail("run: %v", err)
	}
	for _, res := range it.results {
		if err := checkResult(res, w.exactHops()); err != nil {
			b.fail("%s/%s: %v", res.Scheme, res.Benchmark, err)
		}
	}
	b.attempted += it.checks
	for _, msg := range it.checkErrs {
		b.fail("%s", msg)
	}
}

// endToEnd reduces the untraced window and the set-up passes to the
// end-to-end metrics.
func endToEnd(its []*iteration, setups []setupStats) map[string]metric {
	var walls, cpus, allocs, p50s, p90s []float64
	for _, it := range its {
		walls = append(walls, it.wall.Seconds())
		cpus = append(cpus, it.cpu.Seconds())
		allocs = append(allocs, float64(it.alloc)/(1<<20))
		var runs []float64
		for _, r := range it.runWalls {
			runs = append(runs, r.Seconds())
		}
		// Per-iteration quantiles, then the median over iterations: pooled
		// quantiles of a sweep whose cells split into short and long runs
		// land on the extremes of a mode and swing with them.
		p50s = append(p50s, quantile(runs, 0.50))
		p90s = append(p90s, quantile(runs, 0.90))
	}
	var setup []float64
	for _, s := range setups {
		setup = append(setup, s.wall.Seconds())
	}
	return map[string]metric{
		"wall_s":         {median(walls), "s"},
		"cpu_s":          {median(cpus), "s"},
		"run_wall_p50_s": {median(p50s), "s"},
		"run_wall_p90_s": {median(p90s), "s"},
		"setup_s":        {median(setup), "s"},
		"alloc_mb":       {median(allocs), "MB"},
	}
}

// emit writes the result set with its provenance into dir and prints the
// provenance line and the result line.
func emit(name string, seed int64, traced int, commit, dir string, its []*iteration, b *bench, rep report) error {
	var runs int
	var walls []float64
	for _, it := range its {
		runs += len(it.runWalls)
		walls = append(walls, it.wall.Seconds())
	}
	prov := map[string]any{
		"workload":    name,
		"seed":        seed,
		"trace":       traced,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"workers":     b.workers,
		"go":          runtime.Version(),
		"cpu":         cpuModel(),
		"commit":      commit,
		"iterations":  len(its),
		"iteration_s": walls,
		"run_samples": runs,
		"error_rate":  float64(b.failed) / float64(max(b.attempted, 1)),
		"failures":    b.failures,
	}
	line, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return err
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	set, err := json.MarshalIndent(map[string]any{"provenance": prov, "result": rep}, "", " ")
	if err != nil {
		return err
	}
	file := filepath.Join(dir, fmt.Sprintf("result-%s-seed%d-trace%d.json", name, seed, traced))
	if err := os.WriteFile(file, set, 0o644); err != nil {
		return err
	}
	for _, f := range b.failures {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
	}
	fmt.Println(string(line))
	fmt.Println(string(out))
	return nil
}

// cpuModel reads the host CPU model for the provenance record.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// median returns the middle value of v (0 for an empty slice).
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
