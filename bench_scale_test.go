// Giant-wafer scale gate: a 30x30 mesh (899 GPMs, ~18x the Table I wafer)
// with a concentrated workload — only every tenth GPM issues traffic —
// exercising the memory-scaling machinery this repo leans on at scale:
// sparse NoC link accounting, lazy GPM instantiation and the SoA result
// columns. BenchmarkScale30x30 reports events/sec (throughput) and
// bytes/GPM (allocation per GPM from runtime.ReadMemStats deltas), both
// gated by cmd/benchjson against results/bench.json; the tests pin the
// memory bound and the output digests at this size.
package hdpat_test

import (
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"

	"hdpat"
	"hdpat/internal/vm"
	"hdpat/internal/wafer"
	"hdpat/internal/workload"
)

var updateScaleGolden = flag.Bool("update-scale-golden", false, "rewrite testdata/golden_scale.json from current outputs")

const scaleGoldenPath = "testdata/golden_scale.json"

// scaleGPMs is a 30x30 wafer's GPM count (one tile is the CPU).
const scaleGPMs = 30*30 - 1

// scaleActiveEvery concentrates the footprint: only GPMs whose index is a
// multiple of this issue traffic, so ~10% of the wafer is active and the
// rest must stay unmaterialized — the lazy-instantiation win the bytes/GPM
// metric guards.
const scaleActiveEvery = 10

// scaleConfig is the Table I system on a 30x30 mesh.
func scaleConfig(t testing.TB) hdpat.Config {
	t.Helper()
	cfg := hdpat.DefaultConfig()
	cfg.MeshW, cfg.MeshH = 30, 30
	if err := cfg.Validate(); err != nil {
		t.Fatalf("30x30 config: %v", err)
	}
	mcfg, err := wafer.ConfigFor("hdpat", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mcfg
}

// scaleWorkload builds the concentrated benchmark: active GPMs stride their
// own chunk of one shared region and sample the next active GPM's chunk
// (remote traffic that never wakes an idle GPM). The trace is pure
// arithmetic — no RNG — so runs are deterministic by construction.
func scaleWorkload() workload.Benchmark {
	regions := []workload.RegionSpec{{Name: "main", Pages: scaleGPMs * 4}}
	trace := func(ctx workload.Context) []vm.VAddr {
		if ctx.GPM%scaleActiveEvery != 0 {
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
				p = plo + (i*7+ctx.CU)%(phi-plo)
			case hi > lo:
				p = lo + (i*3+ctx.CU)%(hi-lo)
			}
			out = append(out, ctx.PageSize.Base(r.Start+vm.VPN(p))+vm.VAddr((i%64)*64))
		}
		return out
	}
	return workload.Custom("SC30", "scale-30x30-concentrated", 64, regions, trace)
}

// runScale executes one 30x30 run.
func runScale(t testing.TB, routing string) hdpat.Result {
	t.Helper()
	res, err := wafer.Run(scaleConfig(t), wafer.Options{
		Scheme: "hdpat", Benchmark: scaleWorkload(),
		OpsBudget: 16, Seed: 7, Routing: routing,
	})
	if err != nil {
		t.Fatalf("30x30 run: %v", err)
	}
	return res
}

// scaleBytesPerGPM measures the allocation cost of one full 30x30 run,
// per GPM: the runtime.MemStats.TotalAlloc delta across the run divided by
// the GPM count. Allocation totals are near-deterministic (unlike heap
// residency, which moves with GC timing), so this is the stable number the
// bench gate diffs. The eager layouts this PR replaced paid ~1.1 MB of
// construction per GPM before the first event; the sparse/lazy layouts
// must stay far under that.
func scaleBytesPerGPM(t testing.TB) float64 {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	res := runScale(t, "")
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(res)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(scaleGPMs)
}

// BenchmarkScale30x30 is the scale leg of the bench gate: kernel throughput
// and per-GPM allocation on the giant wafer.
func BenchmarkScale30x30(b *testing.B) {
	bytesPerGPM := scaleBytesPerGPM(b)
	b.ReportAllocs()
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events += runScale(b, "").Events
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
	}
	b.ReportMetric(bytesPerGPM, "bytes/GPM")
}

// BenchmarkScale30x30Deflect is the deflection-routed twin of the scale
// leg: same wafer and workload under the bufferless router, whose per-hop
// routing decision and misroute probing are the added cost. Informational
// in the bench gate (like the D legs) so router tuning does not flake CI.
func BenchmarkScale30x30Deflect(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events += runScale(b, "deflect").Events
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
	}
}

// TestScale30x30BoundedMemory pins the absolute bound: a concentrated
// 30x30 run must cost well under the ~1.1 MB/GPM the eager per-GPM
// hierarchy alone used to allocate — the >= 5x scale-acceptance criterion
// with headroom (the companion internal/gpm test pins the lazy-vs-eager
// construction ratio itself, measured >1000x).
func TestScale30x30BoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("30x30 run is not short")
	}
	const eagerBytesPerGPM = 1.1e6
	got := scaleBytesPerGPM(t)
	t.Logf("bytes/GPM = %.0f", got)
	if got <= 0 {
		t.Fatalf("degenerate measurement: %.0f bytes/GPM", got)
	}
	if got > eagerBytesPerGPM/5 {
		t.Errorf("bytes/GPM = %.0f, want <= %.0f (5x under the eager layout)",
			got, eagerBytesPerGPM/5)
	}
}

// TestScale30x30Digests pins the 30x30 outputs byte-for-byte against
// testdata/golden_scale.json, under XY and deflection routing. Regenerate
// (only on intentional behaviour change) with -update-scale-golden.
func TestScale30x30Digests(t *testing.T) {
	if testing.Short() {
		t.Skip("30x30 run is not short")
	}
	xy := digestResult(t, runScale(t, ""))
	deflect := runScale(t, "deflect")
	if deflect.NoC.HopsTotal < deflect.NoC.ManhattanTotal {
		t.Errorf("deflect 30x30: HopsTotal %d below Manhattan bound %d",
			deflect.NoC.HopsTotal, deflect.NoC.ManhattanTotal)
	}
	got := map[string]string{
		"hdpat/SC30":         xy,
		"hdpat/SC30/deflect": digestResult(t, deflect),
	}
	if *updateScaleGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scaleGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", scaleGoldenPath)
		return
	}
	data, err := os.ReadFile(scaleGoldenPath)
	if err != nil {
		t.Fatalf("missing scale golden file (run with -update-scale-golden): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: digest %s != golden %s (output changed)", k, got[k][:12], w[:12])
		}
	}
}
