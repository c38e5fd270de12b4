package workload

import "hdpat/internal/vm"

// All returns the 14 benchmarks of Table II, in table order.
func All() []Benchmark {
	all := []Benchmark{aes(), bt(), fwt(), fft(), fir(), fws(), i2c(), km(), mm(), mt(), pr(), relu(), sc(), spmv()}
	for i := range all {
		all[i].id = Identity{builtin: all[i].Abbr}
	}
	return all
}

// single region helper: the whole footprint in one allocation.
func oneRegion(name string) func(int, sizing) []RegionSpec {
	return func(pages int, _ sizing) []RegionSpec {
		return []RegionSpec{{Name: name, Pages: pages}}
	}
}

// split returns a region function dividing the footprint by the given
// fractional weights; the small shared region gets at least minPages.
func split(names []string, weights []int, minPages int) func(int, sizing) []RegionSpec {
	return func(pages int, s sizing) []RegionSpec {
		totalW := 0
		for _, w := range weights {
			totalW += w
		}
		out := make([]RegionSpec, len(names))
		for i := range names {
			p := pages * weights[i] / totalW
			if p < minPages {
				p = minPages
			}
			if p < s.numGPMs {
				p = s.numGPMs
			}
			out[i] = RegionSpec{Name: names[i], Pages: p}
		}
		return out
	}
}

// aes: compute-iterative encryption streaming over the state once. The
// workgroup-to-data mapping is misaligned with the page ownership split by
// half a chunk, so roughly half the stream reads the neighbouring GPM's
// pages — each exactly once, reproducing O3's "each virtual page triggers
// only a single IOMMU request" while the sequential sweep gives AES its
// strong Fig 8 spatial locality. S-boxes live in LDS/constant memory and
// generate no memory traffic.
func aes() Benchmark {
	return Benchmark{
		Abbr: "AES", Name: "Advanced Encryption Standard",
		Workgroups: 4096, FootprintMB: 8, Gap: 48, Pattern: "streaming-misaligned",
		regions: oneRegion("state"),
		trace: func(ctx Context) []vm.VAddr {
			state := ctx.Regions["state"]
			lo, hi := chunkOf(state, ctx.GPM, ctx.NumGPMs)
			s, e := cuSlice(lo, hi, ctx.CU, ctx.NumCUs)
			shift := (hi - lo) / 2
			return streamPages(ctx, state, s+shift, e+shift,
				fitStep(s, e, 1, ctx.OpsBudget), 1)
		},
	}
}

// bt: bitonic sort — descending-distance XOR butterflies; strong page-level
// spatial locality per stage, repeated re-translation across stages.
func bt() Benchmark {
	return Benchmark{
		Abbr: "BT", Name: "Bitonic Sort",
		Workgroups: 16384, FootprintMB: 16, Gap: 8, Pattern: "butterfly",
		regions: oneRegion("data"),
		trace: func(ctx Context) []vm.VAddr {
			return repeatToBudget(ctx, butterfly(ctx, ctx.Regions["data"], false))
		},
	}
}

// fwt: fast Walsh transform — ascending butterflies over a larger footprint.
func fwt() Benchmark {
	return Benchmark{
		Abbr: "FWT", Name: "Fast Walsh Transform",
		Workgroups: 16384, FootprintMB: 64, Gap: 8, Pattern: "butterfly",
		regions: oneRegion("data"),
		trace: func(ctx Context) []vm.VAddr {
			return repeatToBudget(ctx, butterfly(ctx, ctx.Regions["data"], true))
		},
	}
}

// fft: butterfly exchanges plus a shared twiddle-factor table.
func fft() Benchmark {
	return Benchmark{
		Abbr: "FFT", Name: "Fast Fourier Transform",
		Workgroups: 32768, FootprintMB: 256, Gap: 6, Pattern: "butterfly+hot",
		regions: split([]string{"data", "twiddle"}, []int{31, 1}, 1),
		trace: func(ctx Context) []vm.VAddr {
			base := repeatToBudget(ctx, butterfly(ctx, ctx.Regions["data"], true))
			return hotMix(base, ctx.Regions["twiddle"], ctx.PageSize, 16, ctx.rng())
		},
	}
}

// fir: sliding window with a tiny coefficient table — the iterative
// small-stride pattern that profits most from proactive delivery (§V-C).
func fir() Benchmark {
	return Benchmark{
		Abbr: "FIR", Name: "Finite Impulse Response Filter",
		Workgroups: 65536, FootprintMB: 256, Gap: 5, Pattern: "sliding-window",
		regions: split([]string{"signal", "taps"}, []int{127, 1}, 1),
		trace: func(ctx Context) []vm.VAddr {
			base := repeatToBudget(ctx, slidingWindow(ctx, ctx.Regions["signal"], 2, 1))
			return hotMix(base, ctx.Regions["taps"], ctx.PageSize, 12, ctx.rng())
		},
	}
}

// fws: Floyd-Warshall — per round, every GPM re-reads the shared pivot row
// k: hot remote pages with strong cross-GPM temporal reuse.
func fws() Benchmark {
	return Benchmark{
		Abbr: "FWS", Name: "Floyd-Warshall Shortest Paths",
		Workgroups: 65536, FootprintMB: 72, Gap: 6, Pattern: "shared-pivot",
		regions: oneRegion("dist"),
		trace: func(ctx Context) []vm.VAddr {
			dist := ctx.Regions["dist"]
			lo, hi := chunkOf(dist, ctx.GPM, ctx.NumGPMs)
			s, e := cuSlice(lo, hi, ctx.CU, ctx.NumCUs)
			if s >= e {
				return nil
			}
			rounds := 8
			perRound := maxI(ctx.OpsBudget/(rounds*3*linesPerVisit), 1)
			step := maxI((e-s)/perRound, 1)
			tr := newTrace(ctx)
			for k := 0; k < rounds; k++ {
				// Pivot row k: the same few pages for every CU on the wafer.
				pivot := k * dist.Pages / rounds
				for pg := s; pg < e; pg += step {
					tr = emit(tr, dist, ctx.PageSize, pg, k, linesPerVisit)
					tr = emit(tr, dist, ctx.PageSize, pivot, k, linesPerVisit)
					tr = emit(tr, dist, ctx.PageSize, pivot+(pg-s)%2, k, linesPerVisit)
				}
			}
			return repeatToBudget(ctx, tr)
		},
	}
}

// i2c: image-to-column — strided window reads with duplication into a local
// output buffer.
func i2c() Benchmark {
	return Benchmark{
		Abbr: "I2C", Name: "Image to Column Conversion",
		Workgroups: 16384, FootprintMB: 32, Gap: 6, Pattern: "strided-window",
		regions: split([]string{"image", "cols"}, []int{1, 3}, 1),
		trace: func(ctx Context) []vm.VAddr {
			// Windows over the shared image (remote for most GPMs),
			// sequential writes into the local column buffer.
			img := ctx.Regions["image"]
			cols := ctx.Regions["cols"]
			lo, hi := chunkOf(cols, ctx.GPM, ctx.NumGPMs)
			s, e := cuSlice(lo, hi, ctx.CU, ctx.NumCUs)
			if s >= e {
				return nil
			}
			cost := 3 * linesPerVisit
			step := fitStep(s, e, 1, ctx.OpsBudget/cost*linesPerVisit)
			tr := newTrace(ctx)
			for pg := s; pg < e; pg += step {
				w := pg * img.Pages / maxI(cols.Pages, 1)
				tr = emit(tr, img, ctx.PageSize, w, 0, linesPerVisit)
				tr = emit(tr, img, ctx.PageSize, w+1, 0, linesPerVisit)
				tr = emit(tr, cols, ctx.PageSize, pg, 0, linesPerVisit)
			}
			return repeatToBudget(ctx, tr)
		},
	}
}

// km: kmeans — iterative streams over local points with a hot shared
// centroid region re-read constantly (small stride, high reuse).
func km() Benchmark {
	return Benchmark{
		Abbr: "KM", Name: "KMeans",
		Workgroups: 32768, FootprintMB: 40, Gap: 20, Pattern: "stream+hot",
		regions: split([]string{"points", "centroids"}, []int{39, 1}, 1),
		trace: func(ctx Context) []vm.VAddr {
			points := ctx.Regions["points"]
			lo, hi := chunkOf(points, ctx.GPM, ctx.NumGPMs)
			s, e := cuSlice(lo, hi, ctx.CU, ctx.NumCUs)
			iters := 4
			base := streamPages(ctx, points, s, e, fitStep(s, e, iters, ctx.OpsBudget/2), iters)
			base = repeatToBudget(ctx, base)
			return hotMix(base, ctx.Regions["centroids"], ctx.PageSize, 3, ctx.rng())
		},
	}
}

// mm: tiled matrix multiply — B panels re-read across output tiles.
func mm() Benchmark {
	return Benchmark{
		Abbr: "MM", Name: "Matrix Multiplication",
		Workgroups: 16384, FootprintMB: 256, Gap: 10, Pattern: "tiled-panel",
		regions: split([]string{"a", "b", "c"}, []int{1, 1, 1}, 1),
		trace: func(ctx Context) []vm.VAddr {
			return repeatToBudget(ctx, tiledMM(ctx, ctx.Regions["a"], ctx.Regions["b"], ctx.Regions["c"], 4))
		},
	}
}

// mt: matrix transpose — full-matrix stride writes, enormous reuse
// distances; the paper's worst case for every caching mechanism.
func mt() Benchmark {
	return Benchmark{
		Abbr: "MT", Name: "Matrix Transpose",
		Workgroups: 524288, FootprintMB: 2048, Gap: 4, Pattern: "long-stride",
		regions: split([]string{"a", "b"}, []int{1, 1}, 1),
		trace: func(ctx Context) []vm.VAddr {
			a := ctx.Regions["a"]
			n := 1
			for n*n < a.Pages {
				n++
			}
			return transpose(ctx, a, ctx.Regions["b"], n)
		},
	}
}

// pr: PageRank — edge streams with zipf-distributed reads of the shared
// rank vector: the hot-page temporal reuse that makes PR HDPAT's best case.
func pr() Benchmark {
	return Benchmark{
		Abbr: "PR", Name: "PageRank",
		Workgroups: 524288, FootprintMB: 14, Gap: 5, Pattern: "scatter-gather-zipf",
		regions: split([]string{"edges", "ranks"}, []int{6, 1}, 1),
		trace: func(ctx Context) []vm.VAddr {
			return repeatToBudget(ctx, gather(ctx, ctx.Regions["edges"], ctx.Regions["ranks"], 1.4, 4))
		},
	}
}

// relu: single streaming pass, one touch per page, huge footprint (O3
// lists RELU with AES as single-translation workloads). Like AES, the
// thread-block mapping is offset from the ownership split, producing
// single-touch remote pages around chunk boundaries.
func relu() Benchmark {
	return Benchmark{
		Abbr: "RELU", Name: "Rectified Linear Unit",
		Workgroups: 1310720, FootprintMB: 1280, Gap: 4, Pattern: "streaming-misaligned",
		regions: oneRegion("tensor"),
		trace: func(ctx Context) []vm.VAddr {
			t := ctx.Regions["tensor"]
			lo, hi := chunkOf(t, ctx.GPM, ctx.NumGPMs)
			s, e := cuSlice(lo, hi, ctx.CU, ctx.NumCUs)
			shift := (hi - lo) / 2
			return streamPages(ctx, t, s+shift, e+shift,
				fitStep(s, e, 1, ctx.OpsBudget), 1)
		},
	}
}

// sc: simple convolution — 2-page sliding window over rows with a halo that
// reaches into the neighbouring GPM's partition, plus a small filter table.
func sc() Benchmark {
	return Benchmark{
		Abbr: "SC", Name: "Simple Convolution",
		Workgroups: 262465, FootprintMB: 256, Gap: 5, Pattern: "sliding-window",
		regions: split([]string{"image", "filter"}, []int{127, 1}, 1),
		trace: func(ctx Context) []vm.VAddr {
			base := repeatToBudget(ctx, slidingWindow(ctx, ctx.Regions["image"], 3, 1))
			return hotMix(base, ctx.Regions["filter"], ctx.PageSize, 10, ctx.rng())
		},
	}
}

// spmv: sparse matrix-vector multiply — row streams with uniform-random
// gathers into the dense vector: the irregular all-to-all pattern that
// saturates the IOMMU (Figs 3-4 use SPMV as the stress case).
func spmv() Benchmark {
	return Benchmark{
		Abbr: "SPMV", Name: "Sparse Matrix-Vector Multiplication",
		Workgroups: 81920, FootprintMB: 120, Gap: 4, Pattern: "scatter-gather",
		regions: split([]string{"matrix", "x"}, []int{5, 1}, 1),
		trace: func(ctx Context) []vm.VAddr {
			return repeatToBudget(ctx, gather(ctx, ctx.Regions["matrix"], ctx.Regions["x"], 0, 6))
		},
	}
}
