package wafer

import (
	"fmt"
	"slices"

	"hdpat/internal/core"
	"hdpat/internal/geom"
	"hdpat/internal/gpm"
	"hdpat/internal/metrics"
	"hdpat/internal/migrate"
	"hdpat/internal/sim"
	"hdpat/internal/stats"
	"hdpat/internal/tlb"
)

// publisher derives one run's registry series from its components' Stats
// and state; the components keep the only counters. The run publishes
// after every engine slice and once more when it ends, so a live scrape
// trails the simulation by at most one slice. Counters and histograms are
// published as deltas against the previous publication, so a registry
// shared by successive runs accumulates them. Gauges take their current
// value, except the *.peak gauges, which only rise.
type publisher struct {
	reg *metrics.Registry
	f   *core.Fabric
	mig *migrate.Manager // nil without the migration extension

	// counters and hists hold each series' value at the last publication.
	counters map[string]uint64
	hists    map[string]metrics.HistSnapshot
	// links caches the per-link busy gauges, whose names are formatted.
	links map[linkKey]*metrics.Gauge
}

type linkKey struct {
	c   geom.Coord
	dir string
}

// newPublisher returns the publisher of a run over f, or nil when the run
// has no registry.
func newPublisher(reg *metrics.Registry, f *core.Fabric, mig *migrate.Manager, walkers int) *publisher {
	if reg == nil {
		return nil
	}
	reg.Gauge("iommu.walkers").Set(int64(walkers))
	return &publisher{
		reg: reg, f: f, mig: mig,
		counters: make(map[string]uint64),
		hists:    make(map[string]metrics.HistSnapshot),
		links:    make(map[linkKey]*metrics.Gauge),
	}
}

// counter publishes the growth of a monotone count since the last
// publication.
func (p *publisher) counter(name string, v uint64) {
	p.reg.Counter(name).Add(v - p.counters[name])
	p.counters[name] = v
}

// histogram publishes the observations cur gained since the last
// publication.
func (p *publisher) histogram(name string, cur metrics.HistSnapshot) {
	last := p.hists[name]
	d := metrics.HistSnapshot{
		Count: cur.Count - last.Count, Sum: cur.Sum - last.Sum, Max: cur.Max,
		Buckets: slices.Clone(cur.Buckets),
	}
	for i, b := range last.Buckets {
		d.Buckets[i] -= b
	}
	p.reg.Histogram(name).Add(d)
	p.hists[name] = cur
}

// addHist folds h into the aggregate s.
func addHist(s *metrics.HistSnapshot, h *stats.Histogram) {
	s.Count += h.Total()
	s.Sum += h.Sum()
	s.Max = max(s.Max, h.Max())
	for i := range h.NumBuckets() {
		if i == len(s.Buckets) {
			s.Buckets = append(s.Buckets, 0)
		}
		c, _, _ := h.Bucket(i)
		s.Buckets[i] += c
	}
}

// publish brings every series up to date with the run's state. A nil
// publisher does nothing.
func (p *publisher) publish() {
	if p == nil {
		return
	}
	eng, mesh, io := p.f.Eng, p.f.Mesh, p.f.IOMMU
	p.counter("sim.events_dispatched", eng.Processed)
	p.reg.Gauge("sim.heap_depth").Set(int64(eng.Pending()))
	p.reg.Gauge("sim.heap_peak").Max(int64(eng.PeakPending()))

	p.counter("noc.messages", mesh.Stats.Messages)
	p.counter("noc.byte_hops", mesh.Stats.ByteHops)
	var hops metrics.HistSnapshot
	addHist(&hops, mesh.Hops())
	p.histogram("noc.hops", hops)
	var total sim.VTime
	mesh.VisitLinks(func(c geom.Coord, dir string, busy sim.VTime) {
		total += busy
		if busy == 0 {
			return
		}
		g := p.links[linkKey{c, dir}]
		if g == nil {
			g = p.reg.Gauge(fmt.Sprintf("noc.link.busy.x%dy%d.%s", c.X, c.Y, dir))
			p.links[linkKey{c, dir}] = g
		}
		g.Set(int64(busy))
	})
	p.reg.Gauge("noc.links.busy_total").Set(int64(total))

	s := &io.Stats
	p.counter("iommu.requests", s.Requests)
	p.counter("iommu.walks", s.Walks)
	p.counter("iommu.redirects", s.RTRedirects)
	p.counter("iommu.revisits", s.Revisits)
	p.counter("iommu.prefetches", s.Prefetches)
	p.counter("iommu.pushes.demand", s.PushesDemand)
	p.counter("iommu.pushes.prefetch", s.PushesPref)
	p.counter("iommu.tlb.mshr_blocked", s.MSHRBlocked)
	p.counter("iommu.tlb.mshr_merged", s.MSHRMerged)
	p.counter("iommu.skipped_completed", s.SkippedCompleted)
	if ts, ok := io.TLBStats(); ok {
		p.counter("iommu.tlb.hits", ts.Hits)
		p.counter("iommu.tlb.misses", ts.Misses)
	}
	p.reg.Gauge("iommu.queue.depth").Set(int64(io.QueueDepth()))
	p.reg.Gauge("iommu.queue.peak").Max(int64(s.PeakQueue))
	p.reg.Gauge("iommu.walkers.busy").Set(int64(io.WalkersBusy()))
	var lat metrics.HistSnapshot
	addHist(&lat, io.Latency())
	p.histogram("iommu.latency", lat)

	var sum gpm.Stats
	var levels [len(gpm.TLBLevels)]tlb.Stats
	var remote metrics.HistSnapshot
	for _, g := range p.f.GPMs {
		sum.OpsIssued += g.Stats.OpsIssued
		sum.OpsCompleted += g.Stats.OpsCompleted
		sum.CUStallCycles += g.Stats.CUStallCycles
		sum.RemoteRequests += g.Stats.RemoteRequests
		sum.ProbesServed += g.Stats.ProbesServed
		sum.ProbeHits += g.Stats.ProbeHits
		for i, ts := range g.TLBStats() {
			levels[i].Add(ts)
		}
		addHist(&remote, g.RemoteLatency())
	}
	p.counter("gpm.ops.issued", sum.OpsIssued)
	p.counter("gpm.ops.completed", sum.OpsCompleted)
	p.counter("gpm.cu.stall_cycles", sum.CUStallCycles)
	p.counter("gpm.remote.requests", sum.RemoteRequests)
	p.counter("gpm.probes.served", sum.ProbesServed)
	p.counter("gpm.probes.hits", sum.ProbeHits)
	p.histogram("gpm.remote.latency", remote)
	for i, level := range gpm.TLBLevels {
		p.counter("tlb."+level+".hits", levels[i].Hits)
		p.counter("tlb."+level+".misses", levels[i].Misses)
	}

	if p.mig != nil {
		ms := &p.mig.Stats
		p.counter("migrate.migrations", ms.Migrations)
		p.counter("migrate.bytes_moved", ms.BytesMoved)
		p.counter("migrate.shootdown_dropped", ms.Dropped)
		p.counter("migrate.skipped.shared", ms.SkippedShare)
		p.counter("migrate.skipped.busy", ms.SkippedBusy)
	}
}
