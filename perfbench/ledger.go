package main

import (
	"strings"

	"hdpat"
	"hdpat/internal/xlat"
)

// shareModules are the packages whose CPU share the traced run reports.
var shareModules = []string{
	"sim", "noc", "iommu", "gpm", "tlb", "cuckoo", "cache", "xlat", "core",
	"workload", "wafer", "schemes", "attr", "service",
}

// perLayer assembles the per-layer ledger: counts and simulated figures
// from the untraced window's results (they repeat exactly for a seed), host
// rates over that window, set-up figures, the traced window's CPU shares
// and the layer probes.
func perLayer(plain, traced []*iteration, setups []setupStats, shares, probes map[string]float64) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}

	var c counts
	for _, res := range plain[0].results {
		c.add(res)
	}
	put("sim.events", float64(c.events), "count")
	put("noc.messages", float64(c.messages), "count")
	put("noc.hops", float64(c.hops), "count")
	put("noc.deflections", float64(c.deflections), "count")
	put("noc.hop_efficiency", ratio(c.manhattan, c.hops), "ratio")
	put("iommu.requests", float64(c.ioRequests), "count")
	put("iommu.walk_ratio", ratio(c.walks, c.ioRequests), "ratio")
	put("iommu.peak_queue", float64(c.peakQueue), "count")
	put("gpm.ops", float64(c.ops), "count")
	put("gpm.l1tlb_hit_ratio", ratio(c.l1Hits, c.ops), "ratio")
	put("gpm.l2tlb_hit_ratio", ratio(c.l2Hits, c.l2Lookups), "ratio")
	put("gpm.filter_false_positive_ratio", ratio(c.falsePositives, c.filterPositive), "ratio")
	put("gpm.mshr_retries", float64(c.mshrRetries), "count")
	put("gpm.remote_latency_cycles", ratio(c.remoteLatency, c.remote), "cycles")
	put("core.offload_ratio", ratio(c.offloaded, c.remote), "ratio")
	put("service.runs_executed", float64(plain[0].executed), "count")

	var perCPU, eff, gcCycles, walls, tracedWalls, submit, fetch []float64
	var gcCPU, userCPU float64
	for _, it := range plain {
		var ev uint64
		var runs float64
		for _, res := range it.results {
			ev += res.Events
		}
		for _, r := range it.runWalls {
			runs += r.Seconds()
		}
		perCPU = append(perCPU, float64(ev)/it.cpu.Seconds())
		eff = append(eff, runs/(float64(it.workers)*it.wall.Seconds()))
		gcCycles = append(gcCycles, float64(it.gcCycles))
		walls = append(walls, it.wall.Seconds())
		gcCPU += it.gcCPU
		userCPU += it.userCPU
		submit = append(submit, it.submitMs...)
		fetch = append(fetch, it.artifactMs...)
	}
	for _, it := range traced {
		tracedWalls = append(tracedWalls, it.wall.Seconds())
	}
	put("sim.events_per_cpu_s", median(perCPU), "1/s")
	put("runner.parallel_efficiency", median(eff), "ratio")
	put("runtime.gc_cycles", median(gcCycles), "count")
	put("runtime.gc_cpu_share", gcCPU/max(gcCPU+userCPU, 1e-9), "ratio")
	put("trace.overhead_ratio", median(tracedWalls)/median(walls), "ratio")
	put("service.submit_ms", median(submit), "ms")
	put("service.artifact_get_ms", median(fetch), "ms")
	overhead := 0.0
	if len(submit) > 0 {
		// The daemon's worker-time not spent inside a simulation run.
		overhead = 1 - median(eff)
	}
	put("service.overhead_share", overhead, "ratio")

	var build, perGPM []float64
	for _, s := range setups {
		build = append(build, s.buildMs...)
		if s.bytesPerGPM > 0 {
			perGPM = append(perGPM, s.bytesPerGPM)
		}
	}
	put("wafer.build_ms", median(build), "ms")
	put("wafer.alloc_bytes_per_gpm", median(perGPM), "bytes")

	for _, mod := range shareModules {
		put(mod+".cpu_share", shares[mod], "ratio")
	}
	for name, v := range probes {
		put(name, v, probeUnit(name))
	}
	return m
}

// probeUnit derives a probe's unit from its name.
func probeUnit(name string) string {
	switch {
	case name == "sim.shard_speedup":
		return "ratio"
	case strings.HasSuffix(name, "_us"):
		return "us"
	}
	return "ns"
}

// counts sums the simulated counters of one iteration's runs.
type counts struct {
	events, messages, hops, manhattan, deflections uint64
	ioRequests, walks                              uint64
	peakQueue                                      int
	ops, l1Hits, l2Hits, l2Lookups                 uint64
	filterPositive, falsePositives, mshrRetries    uint64
	remote, remoteLatency, offloaded               uint64
}

func (c *counts) add(res hdpat.Result) {
	c.events += res.Events
	c.messages += res.NoC.Messages
	c.hops += res.NoC.HopsTotal
	c.manhattan += res.NoC.ManhattanTotal
	c.deflections += res.NoC.Deflections
	c.ioRequests += res.IOMMU.Requests
	c.walks += res.IOMMU.Walks
	c.peakQueue = max(c.peakQueue, res.IOMMU.PeakQueue)
	for _, g := range res.GPMStats {
		c.ops += g.OpsIssued
		c.l1Hits += g.L1TLBHits
		c.l2Hits += g.L2TLBHits
		// Every L2 TLB lookup either hits or consults the cuckoo filter.
		c.l2Lookups += g.L2TLBHits + g.FilterNegative + g.FilterPositive
		c.filterPositive += g.FilterPositive
		c.falsePositives += g.FalsePositives
		c.mshrRetries += g.MSHRRetries
		c.remote += g.RemoteRequests
		c.remoteLatency += g.RemoteLatencySum
		for s := 0; s < xlat.NumSources; s++ {
			if xlat.Source(s).Offloaded() {
				c.offloaded += g.RemoteBySource[s]
			}
		}
	}
}
