package wafer

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hdpat/internal/config"
	"hdpat/internal/core"
	"hdpat/internal/geom"
	"hdpat/internal/iommu"
	"hdpat/internal/metrics"
	"hdpat/internal/migrate"
	"hdpat/internal/noc"
	"hdpat/internal/sim"
	"hdpat/internal/trace"
	"hdpat/internal/vm"
	"hdpat/internal/workload"
	"hdpat/internal/xlat"
)

// runWith executes one small run with the given observability options.
func runWith(t *testing.T, scheme string, budget int, reg *metrics.Registry, tr *trace.Tracer) Result {
	t.Helper()
	cfg, err := ConfigFor(scheme, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.ByAbbr("SPMV")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, Options{
		Scheme: scheme, Benchmark: b, OpsBudget: budget, Seed: 1,
		Metrics: reg, Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMetricsNonZeroForEveryScheme: the acceptance criterion that with
// metrics enabled, every scheme reports non-zero TLB, IOMMU and NoC series.
func TestMetricsNonZeroForEveryScheme(t *testing.T) {
	for _, scheme := range SchemeNames() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			res := runWith(t, scheme, 8, metrics.NewRegistry(), nil)
			s := res.Metrics
			if s == nil {
				t.Fatal("Result.Metrics is nil with Options.Metrics set")
			}
			if hits, misses := s.Counter("tlb.l1.hits"), s.Counter("tlb.l1.misses"); hits+misses == 0 {
				t.Error("no L1 TLB activity recorded")
			}
			if s.Counter("noc.messages") == 0 {
				t.Error("no NoC messages recorded")
			}
			if s.Counter("sim.events_dispatched") == 0 {
				t.Error("no engine events recorded")
			}
			// Every scheme must expose IOMMU series. Request counts may be
			// zero for schemes that fully offload (transfw), so assert
			// presence via the walker-count config gauge instead.
			if s.Gauge("iommu.walkers") == 0 {
				t.Error("iommu.walkers gauge missing or zero")
			}
			if s.Gauge("run.cycles") == 0 || s.Gauge("run.total_ops") == 0 {
				t.Error("run gauges not recorded")
			}
		})
	}
}

// checkPublished asserts that the counters in s equal the sums of the Stats
// of runs, and that the per-link NoC gauges add up to their total.
func checkPublished(t *testing.T, s *metrics.Snapshot, runs ...Result) {
	t.Helper()
	var want = map[string]uint64{}
	for _, res := range runs {
		want["iommu.requests"] += res.IOMMU.Requests
		want["iommu.walks"] += res.IOMMU.Walks
		want["noc.messages"] += res.NoC.Messages
		want["noc.byte_hops"] += res.NoC.ByteHops
		want["sim.events_dispatched"] += res.Events
		for _, g := range res.GPMStats {
			want["gpm.ops.issued"] += g.OpsIssued
			want["gpm.cu.stall_cycles"] += g.CUStallCycles
			want["gpm.remote.requests"] += g.RemoteRequests
		}
	}
	for name, w := range want {
		if got := s.Counter(name); got != w {
			t.Errorf("%s = %d, stats say %d", name, got, w)
		}
	}
	var latSum, remote uint64
	for _, res := range runs {
		for _, g := range res.GPMStats {
			latSum += g.RemoteLatencySum
			remote += g.RemoteRequests
		}
	}
	if h := s.Histograms["gpm.remote.latency"]; h.Sum != latSum || h.Count != remote {
		t.Errorf("gpm.remote.latency count %d sum %d, stats say %d and %d", h.Count, h.Sum, remote, latSum)
	}
	if h, msgs := s.Histograms["noc.hops"], want["noc.messages"]; h.Count != msgs {
		t.Errorf("noc.hops count %d, stats say %d messages", h.Count, msgs)
	}
	// Per-link NoC gauges must aggregate to the busy total.
	var linkSum int64
	for name, v := range s.Gauges {
		if strings.HasPrefix(name, "noc.link.busy.") {
			linkSum += v
		}
	}
	if total := s.Gauge("noc.links.busy_total"); linkSum != total {
		t.Errorf("per-link busy sum %d != busy_total %d", linkSum, total)
	}
}

// TestPublishMatchesStats checks the published series against the Stats
// the Result carries: for one run, for two runs sharing a registry, whose
// counters must add up, and under a concurrent reader, which must never
// see a counter fall.
func TestPublishMatchesStats(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		res := runWith(t, "hdpat", 32, metrics.NewRegistry(), nil)
		checkPublished(t, res.Metrics, res)
		if uint64(res.Metrics.Gauge("run.cycles")) != uint64(res.Cycles) {
			t.Errorf("run.cycles = %d, result says %d", res.Metrics.Gauge("run.cycles"), res.Cycles)
		}
	})
	t.Run("shared", func(t *testing.T) {
		reg := metrics.NewRegistry()
		a := runWith(t, "hdpat", 32, reg, nil)
		b := runWith(t, "baseline", 24, reg, nil)
		checkPublished(t, reg.Snapshot(), a, b)
	})
	t.Run("live", func(t *testing.T) {
		// Baseline SPMV at this budget spans several engine slices.
		cfg, err := ConfigFor("baseline", smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		b, err := workload.ByAbbr("SPMV")
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		events := reg.Counter("sim.events_dispatched")
		// seen holds the published event count as each IOMMU request
		// arrives: a mid-run value proves publication between slices.
		var seen []uint64
		hook := iommu.RequestHookFunc(func(sim.VTime, *xlat.Request) { seen = append(seen, events.Value()) })
		done := make(chan struct{})
		errs := make(chan string, 1)
		go func() {
			defer close(errs)
			last := map[string]uint64{}
			for {
				select {
				case <-done:
					return
				default:
				}
				for name, v := range reg.Snapshot().Counters {
					if v < last[name] {
						errs <- fmt.Sprintf("%s fell from %d to %d", name, last[name], v)
						return
					}
					last[name] = v
				}
			}
		}()
		res, err := Run(cfg, Options{
			Scheme: "baseline", Benchmark: b, OpsBudget: 256, Seed: 1,
			Metrics: reg, Hooks: []iommu.RequestHook{hook},
		})
		close(done)
		if err != nil {
			t.Fatal(err)
		}
		for e := range errs {
			t.Error(e)
		}
		if !slices.ContainsFunc(seen, func(v uint64) bool { return v > 0 && v < res.Events }) {
			t.Errorf("no publication between engine slices in a %d-cycle run", res.Cycles)
		}
		checkPublished(t, reg.Snapshot(), res)
	})
}

// TestPublishLinkGaugesIdempotent: the link gauges are set, not added, and
// every other series publishes a delta, so publishing a settled run twice
// leaves every series where it was.
func TestPublishLinkGaugesIdempotent(t *testing.T) {
	eng := sim.NewEngine()
	mesh := noc.New(eng, geom.NewMesh(4, 4), noc.Config{HopLatency: 32, BytesPerCycle: 64})
	for _, s := range [][2]geom.Coord{
		{geom.XY(0, 0), geom.XY(3, 3)},
		{geom.XY(3, 3), geom.XY(0, 0)},
		{geom.XY(1, 0), geom.XY(1, 3)},
		{geom.XY(0, 1), geom.XY(3, 1)},
	} {
		mesh.SendH(s[0], s[1], 192, sim.HandlerFunc(func() {}), sim.EventArg{})
	}
	eng.Run()
	io := iommu.New(eng, config.Default().IOMMU, geom.XY(2, 2), mesh, vm.NewPageTable())
	reg := metrics.NewRegistry()
	pub := newPublisher(reg, &core.Fabric{Eng: eng, Mesh: mesh, IOMMU: io}, nil, 1)
	pub.publish()
	first := reg.Snapshot()
	total := first.Gauge("noc.links.busy_total")
	if total == 0 {
		t.Fatal("no busy cycles published")
	}
	if total != int64(mesh.LinkUtilization()) {
		t.Errorf("busy_total gauge %d != LinkUtilization %d", total, mesh.LinkUtilization())
	}
	pub.publish()
	if again := reg.Snapshot(); !reflect.DeepEqual(first, again) {
		t.Errorf("second publication moved series:\nfirst %+v\nagain %+v", first, again)
	}
}

// stripObservability zeroes the fields a run only has when observability is
// attached, so DeepEqual compares pure simulation outcomes.
func stripObservability(r Result) Result {
	r.Metrics = nil
	return r
}

// TestDeterminismWithObservability: byte-identical simulation results with
// metrics and tracing on vs off — observability must only observe.
func TestDeterminismWithObservability(t *testing.T) {
	plain := runWith(t, "hdpat", 24, nil, nil)

	var buf bytes.Buffer
	tr := trace.New(&buf, trace.JSONL)
	observed := runWith(t, "hdpat", 24, metrics.NewRegistry(), tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("trace produced no events")
	}
	if !reflect.DeepEqual(plain, stripObservability(observed)) {
		t.Errorf("observability changed the simulation:\nplain:    %+v\nobserved: %+v",
			plain, stripObservability(observed))
	}

	// And the trace itself is deterministic: run again, compare bytes.
	var buf2 bytes.Buffer
	tr2 := trace.New(&buf2, trace.JSONL)
	runWith(t, "hdpat", 24, metrics.NewRegistry(), tr2)
	if err := tr2.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("identical runs produced different traces")
	}
	// Every line is a self-contained JSON object.
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("trace line %d invalid: %v", i, err)
		}
		if i > 100 {
			break
		}
	}
}

// TestMigrationMetricsAndTrace exercises the migrate.* series and the
// migration span path.
func TestMigrationMetricsAndTrace(t *testing.T) {
	cfg, err := ConfigFor("hdpat", smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.ByAbbr("PR")
	if err != nil {
		t.Fatal(err)
	}
	mcfg := Options{Scheme: "hdpat", Benchmark: b, OpsBudget: 48, Seed: 1}
	mig := migrate.DefaultConfig()
	mig.Threshold = 1 // migrate eagerly so the small run produces activity
	mcfg.Migration = &mig
	reg := metrics.NewRegistry()
	var buf bytes.Buffer
	tr := trace.New(&buf, trace.JSONL)
	mcfg.Metrics = reg
	mcfg.Trace = tr
	res, err := Run(cfg, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Migration.Migrations == 0 {
		t.Skip("workload produced no migrations at this budget")
	}
	if got := res.Metrics.Counter("migrate.migrations"); got != res.Migration.Migrations {
		t.Errorf("migrate.migrations = %d, stats say %d", got, res.Migration.Migrations)
	}
	if !strings.Contains(buf.String(), `"ev":"migration"`) {
		t.Error("no migration spans in trace")
	}
}
