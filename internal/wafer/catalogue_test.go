package wafer

import (
	"sort"
	"strings"
	"testing"

	"hdpat/internal/metrics"
	"hdpat/internal/migrate"
	"hdpat/internal/workload"
)

// seriesCatalogue lists every series in s as "kind name", sorted. The
// per-link gauges, whose names depend on which links carried traffic,
// collapse to one "gauge noc.link.busy.*" entry.
func seriesCatalogue(s *metrics.Snapshot) []string {
	seen := map[string]bool{}
	for name := range s.Counters {
		seen["counter "+name] = true
	}
	for name := range s.Gauges {
		if strings.HasPrefix(name, "noc.link.busy.") {
			name = "noc.link.busy.*"
		}
		seen["gauge "+name] = true
	}
	for name := range s.Histograms {
		seen["histogram "+name] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// commonSeries are the series every metrics-on run publishes.
var commonSeries = []string{
	"counter gpm.cu.stall_cycles",
	"counter gpm.ops.completed",
	"counter gpm.ops.issued",
	"counter gpm.probes.hits",
	"counter gpm.probes.served",
	"counter gpm.remote.requests",
	"counter iommu.prefetches",
	"counter iommu.pushes.demand",
	"counter iommu.pushes.prefetch",
	"counter iommu.redirects",
	"counter iommu.requests",
	"counter iommu.revisits",
	"counter iommu.skipped_completed",
	"counter iommu.tlb.mshr_blocked",
	"counter iommu.tlb.mshr_merged",
	"counter iommu.walks",
	"counter noc.byte_hops",
	"counter noc.messages",
	"counter sim.events_dispatched",
	"counter tlb.aux.hits",
	"counter tlb.aux.misses",
	"counter tlb.l1.hits",
	"counter tlb.l1.misses",
	"counter tlb.l2.hits",
	"counter tlb.l2.misses",
	"counter tlb.ll.hits",
	"counter tlb.ll.misses",
	"gauge iommu.queue.depth",
	"gauge iommu.queue.peak",
	"gauge iommu.walkers",
	"gauge iommu.walkers.busy",
	"gauge noc.link.busy.*",
	"gauge noc.links.busy_total",
	"gauge run.cycles",
	"gauge run.total_ops",
	"gauge sim.heap_depth",
	"gauge sim.heap_peak",
	"histogram gpm.remote.latency",
	"histogram iommu.latency",
	"histogram noc.hops",
}

// TestSeriesCatalogue pins the name and kind of every simulator series a
// metrics-on run publishes: the common set, plus the IOMMU-TLB counters
// when the scheme has that TLB and the migrate.* counters when migration
// is on. Dashboards and the docs/observability.md table key on these.
func TestSeriesCatalogue(t *testing.T) {
	mig := migrate.DefaultConfig()
	cases := []struct {
		scheme    string
		migration *migrate.Config
		extra     []string
	}{
		{"hdpat", &mig, []string{
			"counter migrate.bytes_moved",
			"counter migrate.migrations",
			"counter migrate.shootdown_dropped",
			"counter migrate.skipped.busy",
			"counter migrate.skipped.shared",
		}},
		{"iommutlb", nil, []string{
			"counter iommu.tlb.hits",
			"counter iommu.tlb.misses",
		}},
		{"baseline", nil, nil},
	}
	b, err := workload.ByAbbr("PR")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.scheme, func(t *testing.T) {
			cfg, err := ConfigFor(c.scheme, smallConfig())
			if err != nil {
				t.Fatal(err)
			}
			reg := metrics.NewRegistry()
			if _, err := Run(cfg, Options{
				Scheme: c.scheme, Benchmark: b, OpsBudget: 16, Seed: 1,
				Metrics: reg, Migration: c.migration,
			}); err != nil {
				t.Fatal(err)
			}
			want := append(append([]string(nil), commonSeries...), c.extra...)
			sort.Strings(want)
			got := seriesCatalogue(reg.Snapshot())
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("series catalogue:\n got %q\nwant %q", got, want)
			}
		})
	}
}
