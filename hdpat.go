// Package hdpat is the public entry point of the HDPAT reproduction: a
// discrete-event simulator of wafer-scale GPU address translation
// implementing the paper's hierarchical distributed translation scheme
// (concentric auxiliary caching with clustering and rotation, IOMMU
// redirection, PW-queue revisit, and proactive page-entry delivery) together
// with the baseline and comparator schemes its evaluation uses.
//
// Typical use:
//
//	cfg := hdpat.DefaultConfig()                    // Table I system
//	res, err := hdpat.Simulate(cfg, hdpat.RunSpec{
//	    Scheme:    "hdpat",
//	    Benchmark: "SPMV",
//	}, hdpat.WithSeed(1))
//	fmt.Println(res.Cycles, res.OffloadFraction())
//
// Behaviour is adjusted with functional options (WithIOMMU, WithConfig,
// WithOpsBudget, WithSeed, ...), and every entry point has a
// context-carrying form (SimulateContext) that honours cancellation
// mid-simulation.
//
// Independent runs parallelise at the batch level: RunBatch fans a slice of
// RunSpecs across GOMAXPROCS workers with deterministic, submission-ordered
// results, and CompareAll evaluates a schemes x benchmarks cross-product
// against a shared per-benchmark baseline:
//
//	cmp, _ := hdpat.CompareAll(ctx, cfg,
//	    []string{"transfw", "hdpat"}, []string{"SPMV", "PR"},
//	    hdpat.WithSeed(1))
//	for _, c := range cmp {
//	    fmt.Println(c.Scheme, c.Benchmark, c.Speedup)
//	}
//
// Simulations are deterministic: a parallel batch returns results identical
// to the same specs run serially. Unknown names surface as wrapped sentinel
// errors (ErrUnknownScheme, ErrUnknownBenchmark) matchable with errors.Is.
//
// The cmd/experiments tool regenerates every table and figure of the
// paper's evaluation on top of this API.
package hdpat

import (
	"context"
	"fmt"

	"hdpat/internal/attr"
	"hdpat/internal/check"
	"hdpat/internal/config"
	"hdpat/internal/metrics"
	"hdpat/internal/runner"
	"hdpat/internal/sim"
	"hdpat/internal/trace"
	"hdpat/internal/wafer"
	"hdpat/internal/workload"
)

// Config is the full system configuration (Table I defaults via
// DefaultConfig). It re-exports config.System.
type Config = config.System

// IOMMUConfig re-exports the IOMMU parameters for sensitivity sweeps.
type IOMMUConfig = config.IOMMU

// Result is the outcome of one simulation run.
type Result = wafer.Result

// Breakdown is the per-request latency attribution of one run (see
// WithAttribution): per-stage cycle distributions with exact critical-path
// accounting, the serving-source mix, TLB hierarchy hit rates, the per-link
// NoC heatmap and sampled time series. It re-exports attr.Breakdown;
// renderers are Breakdown.WriteMarkdown and Breakdown.HeatmapCSV (used by
// cmd/report).
type Breakdown = attr.Breakdown

// MetricsRegistry collects named counters, gauges and log2 histograms from
// every component of a run (see WithMetrics). It re-exports
// metrics.Registry; create one with NewMetricsRegistry.
type MetricsRegistry = metrics.Registry

// MetricsSnapshot is an immutable point-in-time view of a registry; each
// run's final snapshot is available on Result.Metrics when WithMetrics is
// in effect.
type MetricsSnapshot = metrics.Snapshot

// MetricsProgress is the payload the /progress endpoint of ServeMetrics
// reports.
type MetricsProgress = metrics.Progress

// NewMetricsRegistry returns an empty registry for WithMetrics.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// ServeOption adjusts which endpoints ServeMetrics exposes; see WithPprof.
type ServeOption = metrics.ServeOption

// WithPprof has ServeMetrics additionally mount the net/http/pprof
// profiling endpoints under /debug/pprof/, so a live simulation can be
// CPU- or heap-profiled over the metrics listener (see
// docs/observability.md for the profiling workflow). Off by default: the
// profiles expose process internals — enable it only on listeners that
// are not publicly reachable.
func WithPprof() ServeOption { return metrics.WithPprof() }

// ServeMetrics serves reg over HTTP on addr: Prometheus text exposition on
// /metrics, a JSON snapshot on /metrics.json, and — when progress is
// non-nil — a JSON progress report on /progress. ServeOptions add more
// endpoints (WithPprof). It blocks like http.ListenAndServe; run it in a
// goroutine alongside a live simulation or batch sharing reg.
func ServeMetrics(addr string, reg *MetricsRegistry, progress func() MetricsProgress, opts ...ServeOption) error {
	return metrics.ListenAndServe(addr, reg, progress, opts...)
}

// PanicError is the error type wrapping a panic recovered from one run of a
// batch (see RunBatch); inspect it with errors.As.
type PanicError = runner.PanicError

// Sentinel errors for name resolution, wrapped with the offending name;
// match them with errors.Is.
var (
	// ErrUnknownScheme reports a scheme not listed by Schemes().
	ErrUnknownScheme = wafer.ErrUnknownScheme
	// ErrUnknownBenchmark reports a benchmark not listed by Benchmarks().
	ErrUnknownBenchmark = workload.ErrUnknownBenchmark
	// ErrInvariant matches every invariant violation reported under
	// WithInvariants, including through joined errors.
	ErrInvariant = check.ErrInvariant
)

// InvariantViolation is one invariant breach found under WithInvariants,
// naming the invariant, the request involved (0 when not per-request), and
// the detection cycle. It re-exports check.Violation; violations arrive
// joined into the run error and unwrap with errors.As.
type InvariantViolation = check.Violation

// DefaultConfig returns the paper's Table I system: a 7x7 wafer of
// quarter-MI100 GPMs with a central CPU/IOMMU, 4 KB pages.
func DefaultConfig() Config { return config.Default() }

// Wafer7x12Config returns the enlarged wafer of Fig 22.
func Wafer7x12Config() Config { return config.Wafer7x12() }

// Schemes lists every available translation scheme, from "baseline" to
// "hdpat" and the comparators ("transfw", "valkyrie", "barre", ...).
func Schemes() []string { return wafer.SchemeNames() }

// Benchmarks lists the Table II benchmark abbreviations.
func Benchmarks() []string { return workload.Names() }

// RunSpec names what to simulate.
type RunSpec struct {
	// Scheme is one of Schemes() (default "baseline").
	Scheme string
	// Benchmark is one of Benchmarks().
	Benchmark string
	// OpsBudget is the approximate per-CU operation count (0 = default).
	OpsBudget int
	// Seed makes runs reproducible; equal seeds give identical results.
	Seed int64
}

// Simulate configures the IOMMU for the chosen scheme, runs the benchmark
// on the configured wafer, and returns the measured result.
func Simulate(cfg Config, spec RunSpec, opts ...Option) (Result, error) {
	return SimulateContext(context.Background(), cfg, spec, opts...)
}

// SimulateContext is Simulate with cancellation: the engine checks ctx
// between slices of the event loop and returns ctx.Err() (and a zero
// Result) when it fires.
func SimulateContext(ctx context.Context, cfg Config, spec RunSpec, opts ...Option) (Result, error) {
	return simulate(ctx, cfg, spec, newRunConfig(opts))
}

// simulate executes one run under a resolved option set.
func simulate(ctx context.Context, cfg Config, spec RunSpec, rc *runConfig) (Result, error) {
	if spec.Scheme == "" {
		spec.Scheme = "baseline"
	}
	if spec.Benchmark == "" {
		return Result{}, fmt.Errorf("hdpat: RunSpec.Benchmark is required")
	}
	if rc.opsBudget != nil {
		spec.OpsBudget = *rc.opsBudget
	}
	if rc.seed != nil {
		spec.Seed = *rc.seed
	}
	b, err := workload.ByAbbr(spec.Benchmark)
	if err != nil {
		return Result{}, err
	}
	cfg, err = wafer.ConfigFor(spec.Scheme, cfg)
	if err != nil {
		return Result{}, err
	}
	for _, f := range rc.tweakCfg {
		f(&cfg)
	}
	for _, f := range rc.tweakIOMMU {
		f(&cfg.IOMMU)
	}
	if rc.routing != "" {
		cfg.NoC.Routing = rc.routing
	}
	wopts := wafer.Options{
		Scheme:     spec.Scheme,
		Benchmark:  b,
		OpsBudget:  spec.OpsBudget,
		Seed:       spec.Seed,
		MaxCycles:  sim.VTime(rc.maxCycles),
		Metrics:    rc.metrics,
		Invariants: rc.invariants,
	}
	if rc.attribution {
		wopts.Attribution = &attr.Config{}
	}
	var owned *trace.Tracer
	if rc.tracer != nil {
		wopts.Trace = rc.tracer // batch child: the batch owns the stream
	} else if rc.traceW != nil {
		owned = trace.New(rc.traceW, rc.traceFormat)
		wopts.Trace = owned
	}
	res, err := wafer.RunContext(ctx, cfg, wopts)
	if cerr := owned.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("hdpat: trace: %w", cerr)
	}
	return res, err
}
