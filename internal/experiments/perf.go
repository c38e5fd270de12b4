package experiments

import (
	"hdpat/internal/config"
	"hdpat/internal/xlat"
)

// Fig14 compares HDPAT and the state-of-the-art comparators against the
// baseline across benchmarks.
func Fig14(s *Session) (Table, error) {
	schemesList := []string{"transfw", "valkyrie", "barre", "hdpat"}
	t := Table{ID: "fig14", Title: "Normalized performance vs baseline",
		Header: append([]string{"Benchmark"}, schemesList...)}
	res, err := s.versusBaseline(schemesList...)
	if err != nil {
		return t, err
	}
	gmRow := []any{"GEOMEAN"}
	for _, sp := range speedupTable(&t, s.benchmarks(), res) {
		gmRow = append(gmRow, geomean(sp))
	}
	t.Addf(gmRow...)
	t.Note("paper: HDPAT averages 1.57x; Trans-FW/Valkyrie/Barre trail (HDPAT is 1.35x over the best of them)")
	return t, nil
}

// Fig15 walks the ablation ladder: route-based, concentric, distributed,
// cluster+rotation, +redirection, +prefetch, full HDPAT.
func Fig15(s *Session) (Table, error) {
	ladder := []string{"route", "concentric", "distributed", "cluster", "redirect", "prefetch", "hdpat"}
	t := Table{ID: "fig15", Title: "Ablation of HDPAT techniques (speedup vs baseline)",
		Header: append([]string{"Benchmark"}, ladder...)}
	res, err := s.versusBaseline(ladder...)
	if err != nil {
		return t, err
	}
	speedupTable(&t, s.benchmarks(), res)
	t.Note("paper means: distributed 1.08x, cluster 1.13x, redirect 1.18x, prefetch 1.17x, all combined 1.57x;")
	t.Note("route-based and concentric show no noticeable improvement")
	return t, nil
}

// Fig16 breaks down how HDPAT handles remote translations: peer caching,
// redirection, proactive delivery, or an IOMMU walk.
func Fig16(s *Session) (Table, error) {
	t := Table{ID: "fig16", Title: "Breakdown of translation handling under HDPAT (%)",
		Header: []string{"Benchmark", "Peer", "Redirect", "Proactive", "IOMMU", "Offloaded"}}
	pairs, err := s.versusBaseline("hdpat")
	if err != nil {
		return t, err
	}
	var offloads []float64
	for b, bench := range s.benchmarks() {
		res := pairs[b][1]
		off := offloadPct(res)
		offloads = append(offloads, off)
		t.Addf(bench,
			sourcePct(res, xlat.SourcePeer),
			sourcePct(res, xlat.SourceRedirect),
			sourcePct(res, xlat.SourceProactive),
			sourcePct(res, xlat.SourceIOMMU),
			off)
	}
	t.Addf("MEAN", "", "", "", "", mean(offloads))
	t.Note("paper: 42.1%% of translations offloaded from the IOMMU on average")
	return t, nil
}

// Fig17 reports remote translation round-trip time under HDPAT normalized
// to baseline, plus the NoC traffic overhead.
func Fig17(s *Session) (Table, error) {
	t := Table{ID: "fig17", Title: "Remote translation round-trip time (normalized) and NoC traffic",
		Header: []string{"Benchmark", "Baseline cyc", "HDPAT cyc", "Normalized", "Traffic overhead %"}}
	pairs, err := s.versusBaseline("hdpat")
	if err != nil {
		return t, err
	}
	var norm []float64
	var traffic []float64
	for b, bench := range s.benchmarks() {
		base, res := pairs[b][0], pairs[b][1]
		bl, hl := base.AvgRemoteLatency(), res.AvgRemoteLatency()
		n := 0.0
		if bl > 0 {
			n = hl / bl
			norm = append(norm, n)
		}
		tr := 0.0
		if base.NoC.ByteHops > 0 {
			tr = 100 * (float64(res.NoC.ByteHops) - float64(base.NoC.ByteHops)) / float64(base.NoC.ByteHops)
			traffic = append(traffic, tr)
		}
		t.Addf(bench, bl, hl, n, tr)
	}
	t.Addf("MEAN", "", "", mean(norm), mean(traffic))
	t.Note("paper: 41%% average round-trip reduction; +0.82%% NoC traffic")
	return t, nil
}

// Fig18 sweeps proactive delivery granularity (1, 4, 8 PTEs per walk).
func Fig18(s *Session) (Table, error) {
	degrees := []int{1, 4, 8}
	t := Table{ID: "fig18", Title: "Proactive delivery granularity (speedup vs baseline)",
		Header: []string{"Benchmark", "1 PTE", "4 PTEs", "8 PTEs"}}
	variants := []simJob{s.job("baseline", "", config.Default())}
	for _, d := range degrees {
		j := s.job("hdpat", "", config.Default())
		j.cfg.IOMMU.PrefetchDegree = d
		variants = append(variants, j)
	}
	res, err := s.perBench(variants...)
	if err != nil {
		return t, err
	}
	speedupTable(&t, s.benchmarks(), res)
	t.Note("paper means: 1.40x / 1.57x / 1.59x — saturating at 4-PTE delivery")
	return t, nil
}

// Fig19 compares the redirection table against an area-equivalent IOMMU TLB.
func Fig19(s *Session) (Table, error) {
	t := Table{ID: "fig19", Title: "Redirection table vs area-equivalent IOMMU TLB (speedup vs baseline)",
		Header: []string{"Benchmark", "RT (1024 ent)", "TLB (512 ent)", "RT/TLB"}}
	res, err := s.versusBaseline("hdpat", "iommutlb")
	if err != nil {
		return t, err
	}
	var ratios []float64
	for b, bench := range s.benchmarks() {
		rts, ts := res[b][1].Speedup(res[b][0]), res[b][2].Speedup(res[b][0])
		ratio := 0.0
		if ts > 0 {
			ratio = rts / ts
			ratios = append(ratios, ratio)
		}
		t.Addf(bench, rts, ts, ratio)
	}
	t.Addf("MEAN", "", "", mean(ratios))
	t.Note("paper: redirection table delivers 1.27x over the TLB variant")
	return t, nil
}
