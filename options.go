package hdpat

import (
	"io"
	"sync/atomic"

	"hdpat/internal/metrics"
	"hdpat/internal/runner"
	"hdpat/internal/trace"
)

// Option adjusts how Simulate, SimulateContext, RunBatch, Compare and
// CompareAll execute. Options compose left to right: later options override
// earlier ones where they conflict (WithSeed, WithOpsBudget) and accumulate
// where they don't (WithConfig, WithIOMMU).
type Option func(*runConfig)

// runConfig is the resolved option set for one call.
type runConfig struct {
	tweakCfg   []func(*Config)
	tweakIOMMU []func(*IOMMUConfig)
	opsBudget  *int
	seed       *int64
	maxCycles  uint64
	workers    int
	routing    string
	progress   func(done, total int)
	monitor    *BatchMonitor
	perRun     func(i int) []Option

	metrics     *metrics.Registry
	attribution bool
	invariants  bool
	traceW      io.Writer
	traceFormat trace.Format
	// tracer, when set, overrides traceW with a pre-built (batch child)
	// tracer; internal — batch entry points install it per run.
	tracer *trace.Tracer
}

func newRunConfig(opts []Option) *runConfig {
	rc := &runConfig{}
	rc.apply(opts)
	return rc
}

func (rc *runConfig) apply(opts []Option) {
	for _, o := range opts {
		o(rc)
	}
}

// forRun resolves the option set for the i'th spec of a batch, folding in
// WithPerRun options. The clone deep-copies the hook slices so concurrent
// workers never share appendable backing arrays.
func (rc *runConfig) forRun(i int) *runConfig {
	if rc.perRun == nil {
		return rc
	}
	c := *rc
	c.tweakCfg = append([]func(*Config){}, rc.tweakCfg...)
	c.tweakIOMMU = append([]func(*IOMMUConfig){}, rc.tweakIOMMU...)
	c.perRun = nil // per-run options must not recurse
	c.apply(rc.perRun(i))
	return &c
}

// WithConfig registers a hook that adjusts the full system configuration
// after the scheme's defaults are applied — the general entry point for
// sensitivity sweeps (mesh size, HDPAT layers, cache geometry).
func WithConfig(f func(*Config)) Option {
	return func(rc *runConfig) {
		if f != nil {
			rc.tweakCfg = append(rc.tweakCfg, f)
		}
	}
}

// WithIOMMU registers a hook that adjusts the IOMMU parameters after the
// scheme's defaults (and any WithConfig hooks) are applied — prefetch
// degree, redirection table size, walker count.
func WithIOMMU(f func(*IOMMUConfig)) Option {
	return func(rc *runConfig) {
		if f != nil {
			rc.tweakIOMMU = append(rc.tweakIOMMU, f)
		}
	}
}

// WithOpsBudget overrides RunSpec.OpsBudget for every run of the call
// (0 restores the simulator default).
func WithOpsBudget(n int) Option {
	return func(rc *runConfig) { rc.opsBudget = &n }
}

// WithSeed overrides RunSpec.Seed for every run of the call.
func WithSeed(seed int64) Option {
	return func(rc *runConfig) { rc.seed = &seed }
}

// WithMaxCycles overrides the runaway-simulation cycle limit
// (0 = the 200M-cycle default).
func WithMaxCycles(cycles uint64) Option {
	return func(rc *runConfig) { rc.maxCycles = cycles }
}

// WithWorkers bounds the number of simulations RunBatch and CompareAll run
// concurrently (<= 0 means GOMAXPROCS; 1 forces serial execution).
// Single-run calls ignore it.
func WithWorkers(n int) Option {
	return func(rc *runConfig) { rc.workers = n }
}

// WithDomains is a no-op kept for source compatibility: every run executes
// on one serial event kernel, and n is ignored. Batch parallelism comes from
// WithWorkers.
//
// Deprecated: runs are never sharded; drop the option (use WithWorkers to
// spread a batch across cores).
func WithDomains(n int) Option {
	return func(*runConfig) {}
}

// WithRouting selects the NoC routing policy by name: "xy" (dimension-
// ordered, minimal — the default) or "deflect" (bufferless deflection: a
// contended productive output misroutes the loser onto a free port, with
// age-based priority as the livelock guard). Unknown names are rejected
// with a typed config validation error before the run starts.
func WithRouting(name string) Option {
	return func(rc *runConfig) { rc.routing = name }
}

// WithProgress registers a callback invoked after each run of a batch
// settles, with the number settled so far and the batch size. Calls are
// serialised and arrive from worker goroutines. Single-run calls ignore it.
func WithProgress(f func(done, total int)) Option {
	return func(rc *runConfig) { rc.progress = f }
}

// BatchSnapshot is a point-in-time view of a batch's task accounting: how
// many runs are waiting for a worker, executing right now, and settled.
// Counts are cumulative across every batch the monitored call executes.
type BatchSnapshot = runner.Snapshot

// BatchMonitor observes a batch from outside its goroutines: attach one
// with WithMonitor and poll Snapshot from any goroutine — a progress
// endpoint, a TUI ticker — while RunBatch or CompareAll executes. Unlike
// WithProgress, which pushes one callback per settled run, a monitor is
// pull-based and also distinguishes queued from in-flight runs. The zero
// value is ready to use; before the batch starts (and after a call that
// never attached it) Snapshot returns the zero BatchSnapshot.
type BatchMonitor struct {
	pool atomic.Pointer[runner.Pool]
}

// Snapshot reports the monitored batch's current task accounting. Safe to
// call concurrently with the batch; see BatchSnapshot for field semantics.
func (m *BatchMonitor) Snapshot() BatchSnapshot {
	if p := m.pool.Load(); p != nil {
		return p.Snapshot()
	}
	return BatchSnapshot{}
}

// WithMonitor attaches m to the call's batch engine so its Snapshot
// reflects the live queued/inflight/done counts. Batch entry points
// (RunBatch, CompareAll) install it when the batch starts; single-run calls
// ignore it. Reusing one monitor across sequential calls re-points it at
// each new batch; passing nil disables monitoring.
func WithMonitor(m *BatchMonitor) Option {
	return func(rc *runConfig) { rc.monitor = m }
}

// WithMetrics has every component of the simulated system report into reg:
// counters, gauges and log2 histograms under the sim.*, noc.*, tlb.*,
// iommu.*, gpm.*, migrate.* and run.* series documented in
// docs/observability.md. Single runs write into reg live (scrape it while
// the simulation executes via ServeMetrics); batch entry points give every
// run a fresh private registry — so concurrent runs never share series —
// and fold each run's final snapshot into reg as it settles, alongside the
// batch's own runner.* throughput series. Each run's snapshot also lands on
// its Result.Metrics. Passing nil disables metrics; so does omitting the
// option, at a cost of one branch per instrumented hot-path site.
func WithMetrics(reg *metrics.Registry) Option {
	return func(rc *runConfig) { rc.metrics = reg }
}

// WithAttribution attaches the per-request latency attribution ledger to
// every run of the call: trace spans are stitched into complete translation
// lifecycles at simulation time and reduced into per-stage cycle breakdowns
// (admission / pwq / walk / wire, with exact critical-path accounting and
// p50/p95/p99), a per-link NoC heatmap and sampled queue-depth series. The
// finished attribution lands on Result.Breakdown; comparisons expose the
// per-stage delta via ComparisonResult.BreakdownDiff. Attribution only
// observes — results are byte-identical with it on or off — and composes
// freely with WithMetrics and WithTrace.
func WithAttribution() Option {
	return func(rc *runConfig) { rc.attribution = true }
}

// WithInvariants attaches the simulation invariant checker to every run of
// the call. The checker rides the existing observation seams (request hook,
// trace sink, periodic sampler, link visitor) and audits the simulator's
// conservation laws: every issued request completes exactly once and is
// never double-completed, queues and walkers are quiescent at settle, every
// IOMMU submission terminates in exactly one outcome counter, NoC byte-hops
// match the traffic observed on links, link occupancy never exceeds elapsed
// time, per-request latency sums match the GPM counters, every remote
// translation returns the globally mapped frame, and no sampler window is
// lost. Violations come back as errors naming the invariant, request ID and
// cycle (match with errors.Is(err, ErrInvariant)); the Result is still
// returned alongside them. Checking only observes — results are
// byte-identical with it on or off — and composes freely with WithMetrics,
// WithAttribution and WithTrace. See docs/invariants.md for the catalogue.
func WithInvariants() Option {
	return func(rc *runConfig) { rc.invariants = true }
}

// WithTrace streams cycle-domain spans (IOMMU walks and queueing, NoC link
// hops, page migrations) to w as Chrome trace_event JSON, loadable in
// chrome://tracing or Perfetto. In a batch every run shares w, with events
// tagged by the run's submission index. Tracing only observes — a traced
// simulation is cycle-for-cycle identical to an untraced one — but emits
// one event per hop/walk, so expect large outputs on long runs. The stream
// is flushed and terminated when the call returns. Passing nil disables
// tracing.
func WithTrace(w io.Writer) Option {
	return func(rc *runConfig) { rc.traceW = w; rc.traceFormat = trace.Chrome }
}

// WithTraceJSONL is WithTrace emitting one compact self-contained JSON
// object per line instead of a Chrome trace array — the format to pick for
// programmatic consumption (grep, jq, stream processing).
func WithTraceJSONL(w io.Writer) Option {
	return func(rc *runConfig) { rc.traceW = w; rc.traceFormat = trace.JSONL }
}

// WithPerRun supplies extra options for individual runs of a batch: f is
// called with each spec's submission index and its returned options are
// applied on top of the batch-wide ones. This is how a sweep gives every
// grid cell its own configuration while still executing as one parallel
// batch. Only RunBatch honours it; CompareAll and single-run calls ignore
// it, and nested WithPerRun options are ignored.
func WithPerRun(f func(i int) []Option) Option {
	return func(rc *runConfig) { rc.perRun = f }
}
