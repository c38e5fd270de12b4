package workload

import (
	"math/rand"
	"slices"

	"hdpat/internal/vm"
)

// Pattern helpers. All work in units of pages within a region and convert
// to byte addresses at the end; within each visited page a small burst of
// consecutive cacheline addresses is emitted so the data caches see
// realistic line-level locality.

// linesPerVisit is how many consecutive 64 B lines a page visit touches.
const linesPerVisit = 4

// addrOf converts (region, pageIndex, line) to a virtual address.
func addrOf(r vm.Region, ps vm.PageSize, page int, line int) vm.VAddr {
	p := page % r.Pages
	if p < 0 {
		p += r.Pages
	}
	linesPerPage := int(uint64(ps) / 64)
	return ps.Base(r.Start+vm.VPN(p)) + vm.VAddr((line%linesPerPage)*64)
}

// newTrace returns an empty trace with room for the ops budget, the length
// nearly every generator reaches: appends then rarely regrow it, and
// repeatToBudget extends it in place.
func newTrace(ctx Context) []vm.VAddr { return make([]vm.VAddr, 0, max(ctx.OpsBudget, 0)) }

// emit appends a burst of lines within one page.
func emit(tr []vm.VAddr, r vm.Region, ps vm.PageSize, page, line, burst int) []vm.VAddr {
	for i := 0; i < burst; i++ {
		tr = append(tr, addrOf(r, ps, page, line+i))
	}
	return tr
}

// chunkOf returns the page range [lo,hi) of region r owned by GPM g under
// the balanced block partition (same arithmetic as vm.Region.OwnerSlice,
// so "local" work really is local).
func chunkOf(r vm.Region, g, numGPMs int) (lo, hi int) {
	return r.OwnerSlice(g, numGPMs)
}

// cuSlice splits [lo,hi) among the GPM's CUs; returns this CU's [s,e).
// With fewer pages than CUs, CUs share pages round-robin so no CU idles.
func cuSlice(lo, hi, cu, numCUs int) (s, e int) {
	n := hi - lo
	if n <= 0 {
		return lo, lo
	}
	if n < numCUs {
		s = lo + cu%n
		return s, s + 1
	}
	s = lo + cu*n/numCUs
	e = lo + (cu+1)*n/numCUs
	return s, e
}

// streamPages walks pages [s,e) in order, visiting each `visits` times with
// a page stride of `step`, repeated for `passes` passes.
func streamPages(ctx Context, r vm.Region, s, e, step, passes int) []vm.VAddr {
	if step < 1 {
		step = 1
	}
	if passes < 1 {
		passes = 1
	}
	if s >= e {
		return nil
	}
	tr := newTrace(ctx)
	for p := 0; p < passes; p++ {
		for pg := s; pg < e; pg += step {
			tr = emit(tr, r, ctx.PageSize, pg, p*linesPerVisit, linesPerVisit)
		}
	}
	return tr
}

// fitStep chooses a page stride so that walking [s,e) for `passes` passes
// lands near the ops budget (each visit costs linesPerVisit ops).
func fitStep(s, e, passes, budget int) int {
	if budget <= 0 {
		budget = 1
	}
	visits := budget / (linesPerVisit * passes)
	if visits < 1 {
		visits = 1
	}
	span := e - s
	step := span / visits
	if step < 1 {
		step = 1
	}
	return step
}

// hotMix interleaves a base trace with accesses to a small hot region
// (shared read-only structures: AES S-boxes, KMeans centroids, FIR taps):
// every `every` base ops, one access to a rng-chosen hot page.
func hotMix(base []vm.VAddr, hot vm.Region, ps vm.PageSize, every int, rng *rand.Rand) []vm.VAddr {
	if every < 1 {
		every = 1
	}
	out := make([]vm.VAddr, 0, len(base)+len(base)/every+1)
	for i, a := range base {
		out = append(out, a)
		if i%every == every-1 {
			pg := rng.Intn(hot.Pages)
			out = append(out, addrOf(hot, ps, pg, rng.Intn(8)))
		}
	}
	return out
}

// butterfly produces the XOR-partner exchanges of bitonic sort / FWT / FFT:
// for each stage with partner distance d (in pages), each element page i is
// read together with page i^d. Stages sweep d from span/2 down to 1 (or up,
// per `ascending`), giving both cross-wafer and neighbour traffic, and each
// page is re-touched once per stage — the repeated re-translation behaviour
// O3 reports for BT and FWT.
func butterfly(ctx Context, r vm.Region, ascending bool) []vm.VAddr {
	lo, hi := chunkOf(r, ctx.GPM, ctx.NumGPMs)
	s, e := cuSlice(lo, hi, ctx.CU, ctx.NumCUs)
	if s >= e {
		return nil
	}
	// Stage distances: powers of two up to the region size.
	var dists []int
	for d := 1; d < r.Pages; d <<= 1 {
		dists = append(dists, d)
	}
	if !ascending {
		for i, j := 0, len(dists)-1; i < j; i, j = i+1, j-1 {
			dists[i], dists[j] = dists[j], dists[i]
		}
	}
	// Budget: each stage touches each page in [s,e) plus its partner.
	perStage := (e - s) * 2 * linesPerVisit
	stages := len(dists)
	if perStage*stages > ctx.OpsBudget && perStage > 0 {
		stages = ctx.OpsBudget / perStage
		if stages < 1 {
			stages = 1
		}
	}
	// Keep the largest distances (cross-wafer phases) and the smallest
	// (local phases) when trimming, alternating from both ends.
	sel := selectEnds(dists, stages)
	tr := newTrace(ctx)
	for si, d := range sel {
		for pg := s; pg < e; pg++ {
			tr = emit(tr, r, ctx.PageSize, pg, si, linesPerVisit)
			tr = emit(tr, r, ctx.PageSize, pg^d, si, linesPerVisit)
		}
	}
	return tr
}

// selectEnds picks n elements from xs alternating first/last/second/... so a
// trimmed butterfly keeps both its global and local phases.
func selectEnds(xs []int, n int) []int {
	if n >= len(xs) {
		return xs
	}
	out := make([]int, 0, n)
	i, j := 0, len(xs)-1
	for len(out) < n {
		out = append(out, xs[i])
		i++
		if len(out) < n {
			out = append(out, xs[j])
			j--
		}
	}
	return out
}

// gather produces SPMV/PR-style scatter-gather: a sequential stream over
// the CU's own slice (row data) interleaved with indexed reads into a
// shared vector; zipfAlpha > 0 skews the indices (hot vertices), 0 means
// uniform random.
func gather(ctx Context, rows, vec vm.Region, zipfAlpha float64, perRow int) []vm.VAddr {
	lo, hi := chunkOf(rows, ctx.GPM, ctx.NumGPMs)
	s, e := cuSlice(lo, hi, ctx.CU, ctx.NumCUs)
	if s >= e {
		return nil
	}
	rng := ctx.rng()
	var zipf *rand.Zipf
	if zipfAlpha > 0 && vec.Pages > 1 {
		zipf = ctx.zipf(rng, zipfAlpha, uint64(vec.Pages-1))
	}
	// Each row visit costs linesPerVisit + perRow ops.
	rowCost := linesPerVisit + perRow
	step := fitStep(s, e, 1, ctx.OpsBudget/rowCost*linesPerVisit)
	tr := newTrace(ctx)
	for pg := s; pg < e; pg += step {
		tr = emit(tr, rows, ctx.PageSize, pg, 0, linesPerVisit)
		for k := 0; k < perRow; k++ {
			var idx int
			if zipf != nil {
				idx = int(zipf.Uint64())
			} else {
				idx = rng.Intn(vec.Pages)
			}
			tr = append(tr, addrOf(vec, ctx.PageSize, idx, rng.Intn(8)))
		}
	}
	return tr
}

// slidingWindow produces FIR/convolution traffic: a forward sweep where
// each step reads a window of `window` consecutive pages starting at the
// step position — heavy overlap between consecutive steps, the small-stride
// iterative pattern O4 highlights for FIR and SC.
func slidingWindow(ctx Context, in vm.Region, window, passes int) []vm.VAddr {
	lo, hi := chunkOf(in, ctx.GPM, ctx.NumGPMs)
	s, e := cuSlice(lo, hi, ctx.CU, ctx.NumCUs)
	if s >= e {
		return nil
	}
	cost := window * linesPerVisit * passes
	step := fitStep(s, e, 1, ctx.OpsBudget/maxI(cost, 1)*linesPerVisit)
	tr := newTrace(ctx)
	for p := 0; p < passes; p++ {
		for pg := s; pg < e; pg += step {
			for w := 0; w < window; w++ {
				tr = emit(tr, in, ctx.PageSize, pg+w, p, linesPerVisit)
			}
		}
	}
	return tr
}

// transpose produces MT's traffic: read own rows sequentially, write the
// transposed positions — for an NxN page matrix, page (i,j) maps to
// (j,i) = page j*N+i, a full-matrix stride that crosses every partition.
// The kernel makes a second pass (transpose back, as the benchmark's
// verify step does), so every page is re-touched exactly once at maximal
// reuse distance — the "high-frequency and long-range memory reuse" that
// evicts MT's entries from every cache before reuse (§V-C).
func transpose(ctx Context, a, b vm.Region, n int) []vm.VAddr {
	lo, hi := chunkOf(a, ctx.GPM, ctx.NumGPMs)
	s, e := cuSlice(lo, hi, ctx.CU, ctx.NumCUs)
	if s >= e {
		return nil
	}
	// Each loop iteration emits two page visits (source + target), so the
	// per-visit budget is halved.
	step := fitStep(s, e, 2, ctx.OpsBudget/2)
	tr := newTrace(ctx)
	for pass := 0; pass < 2; pass++ {
		for pg := s; pg < e; pg += step {
			i, j := pg/n, pg%n
			if pass == 0 {
				tr = emit(tr, a, ctx.PageSize, pg, 0, linesPerVisit)
				tr = emit(tr, b, ctx.PageSize, j*n+i, 0, linesPerVisit)
			} else {
				tr = emit(tr, b, ctx.PageSize, j*n+i, 1, linesPerVisit)
				tr = emit(tr, a, ctx.PageSize, pg, 1, linesPerVisit)
			}
		}
	}
	return tr
}

// tiledMM produces matrix-multiply panel reuse: for each output tile in the
// CU's share of C, stream a panel of A (local rows) and a panel of B
// (spanning all partitions — remote with reuse across tiles).
func tiledMM(ctx Context, a, b, c vm.Region, tile int) []vm.VAddr {
	lo, hi := chunkOf(c, ctx.GPM, ctx.NumGPMs)
	s, e := cuSlice(lo, hi, ctx.CU, ctx.NumCUs)
	if s >= e {
		return nil
	}
	cost := (2*tile + 1) * linesPerVisit
	step := fitStep(s, e, 1, ctx.OpsBudget/maxI(cost, 1)*linesPerVisit)
	tr := newTrace(ctx)
	for pg := s; pg < e; pg += step {
		// A panel: local-ish rows aligned with the output tile.
		for k := 0; k < tile; k++ {
			tr = emit(tr, a, ctx.PageSize, pg+k, 0, linesPerVisit)
		}
		// B panel: column strip — same B pages re-read by every output row,
		// and distributed across the whole allocation.
		col := pg % maxI(b.Pages/maxI(tile, 1), 1)
		for k := 0; k < tile; k++ {
			tr = emit(tr, b, ctx.PageSize, col*tile+k, 0, linesPerVisit)
		}
		tr = emit(tr, c, ctx.PageSize, pg, 0, linesPerVisit)
	}
	return tr
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// repeatToBudget cycles a trace until it reaches roughly the ops budget,
// modelling iterative kernels and repeated launches (AES rounds, KMeans
// iterations, repeated SpMV products over the same matrix). Single-pass
// kernels (RELU, MT) must not use it. The trace grows in place: each pass
// appends a prefix of the original addresses, which later passes never
// overwrite.
func repeatToBudget(ctx Context, tr []vm.VAddr) []vm.VAddr {
	if len(tr) == 0 || len(tr) >= ctx.OpsBudget {
		return tr
	}
	tr = slices.Grow(tr, ctx.OpsBudget-len(tr))
	for n := len(tr); len(tr) < ctx.OpsBudget; {
		tr = append(tr, tr[:min(n, ctx.OpsBudget-len(tr))]...)
	}
	return tr
}
