// Command hdpatsim runs one wafer-scale GPU simulation and prints a
// detailed report: execution time, translation breakdown, IOMMU and NoC
// statistics.
//
// Usage:
//
//	hdpatsim -bench SPMV -scheme hdpat [-budget 96] [-seed 1]
//	         [-mesh 7x7] [-pagesize 4096] [-gpu MI100] [-compare]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hdpat/internal/config"
	"hdpat/internal/vm"
	"hdpat/internal/wafer"
	"hdpat/internal/workload"
	"hdpat/internal/xlat"
)

func main() {
	bench := flag.String("bench", "SPMV", "benchmark abbreviation (see -list)")
	scheme := flag.String("scheme", "hdpat", "translation scheme (see -list)")
	budget := flag.Int("budget", 96, "approximate ops per CU")
	seed := flag.Int64("seed", 1, "workload seed")
	mesh := flag.String("mesh", "7x7", "wafer mesh WxH")
	pageSize := flag.Uint64("pagesize", 4096, "system page size in bytes")
	gpu := flag.String("gpu", "MI100", "GPU generation (MI100|MI200|MI300|H100|H200)")
	scale := flag.Int("scale", 0, "workload scale divisor override")
	compare := flag.Bool("compare", false, "also run the baseline and report speedup")
	dumpTrace := flag.String("dumptrace", "", "write the benchmark's address traces as JSON lines to this file and exit")
	list := flag.Bool("list", false, "list benchmarks and schemes, then exit")
	flag.Parse()

	if *list {
		fmt.Println("benchmarks:", strings.Join(workload.Names(), " "))
		fmt.Println("schemes:   ", strings.Join(wafer.SchemeNames(), " "))
		return
	}

	cfg := config.Default()
	if n, err := fmt.Sscanf(*mesh, "%dx%d", &cfg.MeshW, &cfg.MeshH); n != 2 || err != nil {
		fatal("bad -mesh %q (want WxH)", *mesh)
	}
	cfg.PageSize = vm.PageSize(*pageSize)
	if *scale > 0 {
		cfg.WorkloadScale = *scale
	}
	gpm, err := config.GPMVariant(*gpu)
	if err != nil {
		fatal("%v", err)
	}
	cfg.GPM = gpm

	b, err := workload.ByAbbr(*bench)
	if err != nil {
		fatal("%v", err)
	}

	if *dumpTrace != "" {
		f, err := os.Create(*dumpTrace)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		numGPMs := cfg.MeshW*cfg.MeshH - 1
		err = workload.WriteTrace(f, b, cfg.WorkloadScale, numGPMs, cfg.GPM.NumCUs,
			*budget, cfg.PageSize, *seed)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("wrote %s traces for %d GPMs x %d CUs to %s\n",
			b.Abbr, numGPMs, cfg.GPM.NumCUs, *dumpTrace)
		return
	}

	run := func(scheme string) wafer.Result {
		c, err := wafer.ConfigFor(scheme, cfg)
		if err != nil {
			fatal("%v", err)
		}
		res, err := wafer.Run(c, wafer.Options{
			Scheme: scheme, Benchmark: b, OpsBudget: *budget, Seed: *seed,
		})
		if err != nil {
			fatal("%v", err)
		}
		return res
	}

	res := run(*scheme)
	report(res)
	if *compare && *scheme != "baseline" {
		base := run("baseline")
		fmt.Printf("\nbaseline execution:   %d cycles\n", base.Cycles)
		fmt.Printf("speedup vs baseline:  %.3fx\n", res.Speedup(base))
		if base.AvgRemoteLatency() > 0 {
			fmt.Printf("remote latency ratio: %.3f\n", res.AvgRemoteLatency()/base.AvgRemoteLatency())
		}
	}
}

func report(res wafer.Result) {
	fmt.Printf("%s on %s\n", res.Scheme, res.Benchmark)
	fmt.Printf("execution:        %d cycles (%d ops)\n", res.Cycles, res.TotalOps)
	var l1, l2, lltlb, walks, remote uint64
	for _, g := range res.GPMStats {
		l1 += g.L1TLBHits
		l2 += g.L2TLBHits
		lltlb += g.LLTLBHits
		walks += g.LocalWalks
		remote += g.RemoteRequests
	}
	fmt.Printf("translation path: L1 %d | L2 %d | LLTLB %d | local walks %d | remote %d\n",
		l1, l2, lltlb, walks, remote)
	by := res.RemoteBySource()
	fmt.Printf("remote served by: ")
	for s := 0; s < xlat.NumSources; s++ {
		if by[s] > 0 {
			fmt.Printf("%s=%d ", xlat.Source(s), by[s])
		}
	}
	fmt.Println()
	fmt.Printf("offload fraction: %.1f%%\n", 100*res.OffloadFraction())
	fmt.Printf("IOMMU:            %d requests, %d walks, %d redirects, %d revisits, %d prefetches\n",
		res.IOMMU.Requests, res.IOMMU.Walks, res.IOMMU.RTRedirects, res.IOMMU.Revisits, res.IOMMU.Prefetches)
	pre, q, w := res.IOMMU.Breakdown.Means()
	fmt.Printf("IOMMU latency:    pre-queue %.0f + queue %.0f + walk %.0f cycles\n", pre, q, w)
	fmt.Printf("remote RTT:       %.0f cycles avg\n", res.AvgRemoteLatency())
	fmt.Printf("NoC:              %d messages, %d byte-hops, max %d hops\n",
		res.NoC.Messages, res.NoC.ByteHops, res.NoC.MaxHops)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
