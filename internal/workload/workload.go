// Package workload implements the 14 Table II benchmarks as synthetic
// memory-access generators. Real GCN3 kernels are unavailable, so each
// generator reproduces the access pattern the paper attributes to its
// benchmark (random, partitioned, adjacent, scatter-gather, butterfly,
// sliding-window, shared-hot-page): the characterisation harnesses for
// Figs 6-8 verify the streams land in the regimes the paper reports.
//
// A benchmark declares the memory regions it needs (scaled-down Table II
// footprints) and produces, per CU, a deterministic finite trace of virtual
// addresses. The driver model (§II-A) partitions both data and threads
// evenly across GPMs, so generators receive their GPM/CU position and the
// region ownership arithmetic.
package workload

import (
	"errors"
	"fmt"
	"math/rand"

	"hdpat/internal/vm"
	"hdpat/internal/xrand"
)

// ErrUnknownBenchmark is returned (wrapped with the offending abbreviation)
// when a benchmark is not in the Table II suite; match it with errors.Is.
var ErrUnknownBenchmark = errors.New("unknown benchmark")

// RegionSpec names a memory region and its size in pages (already scaled).
type RegionSpec struct {
	Name  string
	Pages int
}

// Context gives a generator everything it needs to produce one CU's trace.
type Context struct {
	Regions  map[string]vm.Region
	PageSize vm.PageSize
	GPM      int
	NumGPMs  int
	CU       int
	NumCUs   int
	// OpsBudget is the approximate number of operations this CU should
	// issue; generators size their patterns to land near it.
	OpsBudget int
	Seed      int64

	// shared, when set by Traces, is generator state reused across a
	// run's CUs.
	shared *shared
}

// shared is what Traces lets every CU of a wafer reuse: one random source,
// reseeded per CU, and the last Zipf sampler built on it.
type shared struct {
	src *rand.Rand
	// zipf samples with exponent zipfAlpha over [0, zipfMax]. A rand.Zipf
	// holds only constants and its source, so it serves every CU.
	zipf      *rand.Zipf
	zipfAlpha float64
	zipfMax   uint64
}

// rng returns this CU's trace generator, seeded from the run seed and the
// CU's position. The lazily seeded xrand source draws the math/rand stream
// of the same seed at a fraction of the seeding cost; a trace draws only a
// few dozen values. Under Traces every CU reseeds one shared source, whose
// Seed restarts the stream exactly, so a generator calls rng once per trace
// and must not keep it past its return.
func (c Context) rng() *rand.Rand {
	seed := c.Seed ^ int64(c.GPM)<<20 ^ int64(c.CU)<<8
	if c.shared == nil {
		return rand.New(xrand.NewSource(seed))
	}
	c.shared.src.Seed(seed)
	return c.shared.src
}

// zipf returns a sampler of exponent alpha over [0, imax] drawing from rng,
// which must be what rng() returned. Under Traces it is built once per
// (alpha, imax) and reused by every CU: its constants cost far more to
// compute than a trace's few dozen draws.
func (c Context) zipf(rng *rand.Rand, alpha float64, imax uint64) *rand.Zipf {
	s := c.shared
	if s == nil {
		return rand.NewZipf(rng, alpha, 1, imax)
	}
	if s.zipf == nil || s.zipfAlpha != alpha || s.zipfMax != imax {
		s.zipf, s.zipfAlpha, s.zipfMax = rand.NewZipf(s.src, alpha, 1, imax), alpha, imax
	}
	return s.zipf
}

// globalCU returns this CU's index across the whole wafer.
func (c Context) globalCU() int { return c.GPM*c.NumCUs + c.CU }

// totalCUs returns the wafer-wide CU count.
func (c Context) totalCUs() int { return c.NumGPMs * c.NumCUs }

// Benchmark is one Table II workload.
type Benchmark struct {
	Abbr string
	Name string
	// Workgroups and FootprintMB record the unscaled Table II values.
	Workgroups  int
	FootprintMB int
	// Gap is the average cycle count between issue slots per CU: low for
	// memory-bound kernels, high for compute-iterative ones (AES).
	Gap int
	// Pattern is the qualitative label used in docs and tests.
	Pattern string

	regions func(pages int, ctx sizing) []RegionSpec
	trace   func(ctx Context) []vm.VAddr
	id      Identity
}

// Identity names the generator behind a benchmark, for caches of its
// traces: benchmarks with equal identities given equal Context inputs
// produce equal traces. A Table II benchmark's identity is its
// abbreviation, fixed when All builds it, so renaming Abbr cannot alias
// two generators. Each Custom call allocates a fresh token instead, so two
// replays that share an abbreviation never share traces. Identities are
// comparable; the zero Identity belongs to no benchmark.
type Identity struct {
	builtin string
	custom  *byte
}

// Identity returns b's identity.
func (b Benchmark) Identity() Identity { return b.id }

type sizing struct {
	numGPMs int
}

// Regions returns the scaled region list. scale divides the Table II
// footprint; the result is clamped so each GPM owns at least one page of
// the main region.
func (b Benchmark) Regions(scale, numGPMs int, ps vm.PageSize) []RegionSpec {
	total := int(int64(b.FootprintMB) * (1 << 20) / int64(ps) / int64(scale))
	if total < numGPMs {
		total = numGPMs
	}
	return b.regions(total, sizing{numGPMs: numGPMs})
}

// Trace produces the address trace for one CU.
func (b Benchmark) Trace(ctx Context) []vm.VAddr { return b.trace(ctx) }

// Traces produces every CU's trace for a whole wafer, GPM-major, passing
// each to fn with its GPM and CU; ctx's GPM and CU fields are ignored. The
// traces equal what Trace returns per CU, but one random source serves
// them all instead of one per CU (each is 4.9 KB, and a Table I run has
// 1,536 CUs), and so does one Zipf sampler.
func (b Benchmark) Traces(ctx Context, fn func(gpm, cu int, trace []vm.VAddr)) {
	ctx.shared = &shared{src: rand.New(xrand.NewSource(ctx.Seed))}
	for g := range ctx.NumGPMs {
		for cu := range ctx.NumCUs {
			ctx.GPM, ctx.CU = g, cu
			fn(g, cu, b.trace(ctx))
		}
	}
}

// ByAbbr resolves a benchmark by its Table II abbreviation.
func ByAbbr(abbr string) (Benchmark, error) {
	for _, b := range All() {
		if b.Abbr == abbr {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: %w %q", ErrUnknownBenchmark, abbr)
}

// Names lists all benchmark abbreviations in Table II order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, b := range all {
		out[i] = b.Abbr
	}
	return out
}

// Custom builds a user-defined benchmark from a region list and a per-CU
// trace generator — the entry point for workloads outside the Table II
// suite. Footprint accounting uses the region pages directly (FootprintMB
// is informational). trace must depend only on its Context, since runs
// of one benchmark share what it returns through the simulator's trace
// table; every call returns a benchmark of its own Identity.
func Custom(abbr, name string, gap int, regions []RegionSpec, trace func(ctx Context) []vm.VAddr) Benchmark {
	pages := 0
	for _, r := range regions {
		pages += r.Pages
	}
	return Benchmark{
		Abbr: abbr, Name: name, Gap: gap, Pattern: "custom",
		FootprintMB: pages * 4096 >> 20,
		regions: func(_ int, _ sizing) []RegionSpec {
			out := make([]RegionSpec, len(regions))
			copy(out, regions)
			return out
		},
		trace: trace,
		id:    Identity{custom: new(byte)},
	}
}
