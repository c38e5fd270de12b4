package experiments

import (
	"fmt"

	"hdpat/internal/area"
	"hdpat/internal/config"
	"hdpat/internal/vm"
)

// Fig20 sweeps the system page size, reporting baseline and HDPAT geomeans
// normalized to the 4 KB baseline.
func Fig20(s *Session) (Table, error) {
	t := Table{ID: "fig20", Title: "Page-size sensitivity (geomean, normalized to 4KB baseline)",
		Header: []string{"Page size", "Baseline", "HDPAT", "HDPAT advantage"}}
	sizes := []vm.PageSize{vm.Page4K, vm.Page16K, vm.Page64K}
	// variants[0] is the 4 KB baseline every result is normalized to.
	variants := []simJob{s.job("baseline", "", config.Default())}
	for _, ps := range sizes {
		for _, scheme := range []string{"baseline", "hdpat"} {
			j := s.job(scheme, "", config.Default())
			j.cfg.PageSize = ps
			j.cfg.Name = fmt.Sprintf("ps%dk", uint64(ps)>>10)
			variants = append(variants, j)
		}
	}
	res, err := s.perBench(variants...)
	if err != nil {
		return t, err
	}
	for p, ps := range sizes {
		var baseN, hdN []float64
		for b := range s.benchmarks() {
			ref := float64(res[b][0].Cycles)
			baseN = append(baseN, ref/float64(res[b][1+2*p].Cycles))
			hdN = append(hdN, ref/float64(res[b][2+2*p].Cycles))
		}
		gb, gh := geomean(baseN), geomean(hdN)
		adv := 0.0
		if gb > 0 {
			adv = gh / gb
		}
		t.Addf(fmt.Sprintf("%dKB", uint64(ps)>>10), gb, gh, adv)
	}
	t.Note("paper: larger pages help the baseline; HDPAT keeps ~1.5x advantage at every size")
	return t, nil
}

// Fig21 evaluates HDPAT across GPU generations (MI100..H200).
func Fig21(s *Session) (Table, error) {
	t := Table{ID: "fig21", Title: "HDPAT speedup across GPU configurations (geomean)",
		Header: []string{"GPU", "Geomean speedup"}}
	names := config.GPMVariantNames()
	var variants []simJob
	for _, name := range names {
		gpm, err := config.GPMVariant(name)
		if err != nil {
			return t, err
		}
		for _, scheme := range []string{"baseline", "hdpat"} {
			j := s.job(scheme, "", config.Default())
			j.cfg.GPM.L1VCache = gpm.L1VCache
			j.cfg.GPM.L2Cache = gpm.L2Cache
			j.cfg.GPM.HBM = gpm.HBM
			j.cfg.Name = "gpu-" + name
			variants = append(variants, j)
		}
	}
	res, err := s.perBench(variants...)
	if err != nil {
		return t, err
	}
	for g, name := range names {
		var sp []float64
		for b := range s.benchmarks() {
			sp = append(sp, res[b][2*g+1].Speedup(res[b][2*g]))
		}
		t.Addf(name, geomean(sp))
	}
	t.Note("paper: 1.47-1.57x on AMD parts; larger-memory H100/H200 reach 2.52x/2.36x")
	return t, nil
}

// Fig22 repeats the headline comparison on a 7x12 wafer.
func Fig22(s *Session) (Table, error) {
	t := Table{ID: "fig22", Title: "HDPAT on a 7x12 wafer (speedup vs baseline)",
		Header: []string{"Benchmark", "Speedup"}}
	res, err := s.perBench(s.job("baseline", "", config.Wafer7x12()), s.job("hdpat", "", config.Wafer7x12()))
	if err != nil {
		return t, err
	}
	var sp []float64
	for b, bench := range s.benchmarks() {
		v := res[b][1].Speedup(res[b][0])
		sp = append(sp, v)
		t.Addf(bench, v)
	}
	t.Addf("GEOMEAN", geomean(sp))
	t.Note("paper: geomean 1.49x on the larger wafer")
	return t, nil
}

// Area reproduces the §V-F overhead estimate.
func Area(s *Session) (Table, error) {
	t := Table{ID: "area", Title: "Area and power overhead (7nm analytical model)",
		Header: []string{"Structure", "Entries", "Bits/entry", "Copies", "Area mm^2", "Power W"}}
	cfg := config.Default()
	filterSlots := cfg.GPM.AuxTLB.Sets * cfg.GPM.AuxTLB.Ways * 2
	rep := area.Estimate(1024, filterSlots, cfg.MeshW*cfg.MeshH-1)
	for _, st := range rep.Structures {
		t.Addf(st.Name, st.Entries, st.BitsPerEntry, st.Copies,
			st.AreaMM2(), st.PowerW())
	}
	t.Note("redirection table vs Ryzen-9 CPU die: %.3f%% area, %.3f%% power", rep.AreaPct, rep.PowerPct)
	t.Note("paper: 0.034 mm^2, 0.16 W -> 0.02%% area, 0.09%% power")
	return t, nil
}
