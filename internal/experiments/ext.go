package experiments

import (
	"fmt"

	"hdpat/internal/config"
	"hdpat/internal/migrate"
	"hdpat/internal/vm"
	"hdpat/internal/workload"
)

// Extension experiments: studies beyond the paper's figures, covering the
// design choices DESIGN.md documents as interpretation points, plus the
// owner-forwarding what-if the paper's related-work discussion gestures at.

// ExtProbePolicy compares HDPAT's concurrent per-layer probes against
// strict inward sequential forwarding (the literal reading of Fig 9) and
// against different layer counts C — the §IV-C "tunable by drivers or
// firmware" knob.
func ExtProbePolicy(s *Session) (Table, error) {
	t := Table{ID: "ext-probe", Title: "Probe dispatch policy and layer count (speedup vs baseline)",
		Header: []string{"Benchmark", "C=2 concurrent", "C=2 sequential", "C=1", "C=3"}}
	type variant struct {
		name       string
		layers     int
		sequential bool
	}
	variants := []variant{
		{"c2-conc", 2, false},
		{"c2-seq", 2, true},
		{"c1", 1, false},
		{"c3", 3, false},
	}
	jobs := []simJob{s.job("baseline", "", config.Default())}
	for _, v := range variants {
		j := s.job("hdpat", "", config.Default())
		j.cfg.HDPAT.Layers = v.layers
		j.cfg.HDPAT.SequentialLayers = v.sequential
		j.cfg.Name = "probe-" + v.name
		jobs = append(jobs, j)
	}
	res, err := s.perBench(jobs...)
	if err != nil {
		return t, err
	}
	speedupTable(&t, s.benchmarks(), res)
	t.Note("concurrent probes trade wasted walker work for latency; sequential saves traffic")
	return t, nil
}

// ExtPushThreshold sweeps the selective-caching threshold (§IV-F tracks
// access counts in unused PTE bits; the shipping default pushes at 2).
func ExtPushThreshold(s *Session) (Table, error) {
	thresholds := []uint32{1, 2, 4, 8}
	t := Table{ID: "ext-threshold", Title: "Selective push threshold (speedup vs baseline)",
		Header: []string{"Benchmark", "t=1", "t=2", "t=4", "t=8"}}
	jobs := []simJob{s.job("baseline", "", config.Default())}
	for _, th := range thresholds {
		j := s.job("hdpat", "", config.Default())
		j.cfg.IOMMU.PushThreshold = th
		j.cfg.Name = fmt.Sprintf("push-t%d", th)
		jobs = append(jobs, j)
	}
	res, err := s.perBench(jobs...)
	if err != nil {
		return t, err
	}
	speedupTable(&t, s.benchmarks(), res)
	t.Note("t=1 pushes every walk (more traffic, earlier coverage); high t starves the aux caches")
	return t, nil
}

// ExtOwnerForward evaluates the owner-forwarding what-if (schemes.OwnerFW):
// a fully distributed walk fabric using every GPM's GMMU walkers. It bounds
// what HDPAT leaves on the table versus a design that abandons the
// centralized IOMMU entirely (at the cost of giving up centralized
// management, the property §II-A assumes).
func ExtOwnerForward(s *Session) (Table, error) {
	t := Table{ID: "ext-ownerfw", Title: "Owner-forwarded walks vs HDPAT (speedup vs baseline)",
		Header: []string{"Benchmark", "HDPAT", "OwnerFW"}}
	res, err := s.versusBaseline("hdpat", "ownerfw")
	if err != nil {
		return t, err
	}
	speedupTable(&t, s.benchmarks(), res)
	t.Note("owner forwarding exploits 48x8 distributed walkers but loses on hot partitions and")
	t.Note("gives up the centralized management the zero-copy model assumes")
	return t, nil
}

// ExtMigration evaluates the page-migration extension (the paper's stated
// future work) on top of HDPAT: hot pages with a dominant remote requester
// move into that GPM's HBM, trading one shootdown + page copy for fully
// local access thereafter.
func ExtMigration(s *Session) (Table, error) {
	t := Table{ID: "ext-migrate", Title: "Page migration on top of HDPAT (speedup vs baseline)",
		Header: []string{"Benchmark", "HDPAT", "HDPAT+migration", "Pages moved", "Shared-skips"}}
	migrating := s.job("hdpat", "", config.Default())
	migrating.cfg.Name = "hdpat-migrate"
	migrating.migration = migrate.DefaultConfig()
	runs, err := s.perBench(s.job("baseline", "", config.Default()), s.job("hdpat", "", config.Default()), migrating)
	if err != nil {
		return t, err
	}
	var hd, mg []float64
	for b, bench := range s.benchmarks() {
		base, h, res := runs[b][0], runs[b][1], runs[b][2]
		hs, ms := h.Speedup(base), res.Speedup(base)
		hd = append(hd, hs)
		mg = append(mg, ms)
		t.Addf(bench, hs, ms, res.Migration.Migrations, res.Migration.SkippedShare)
	}
	t.Addf("MEAN", mean(hd), mean(mg), "", "")
	t.Note("migration helps only pages with a dominant requester; shared hot pages are skipped")
	return t, nil
}

// privateHot builds the migration microbenchmark: each GPM's CUs repeatedly
// access a small set of pages owned by the next GPM (private to this
// requester, so the dominance filter admits them), interleaved with local
// filler that evicts the shared L2 TLB between rounds so the re-touches
// reach the translation fabric instead of dying in the TLBs.
func privateHot() workload.Benchmark {
	const perGPM = 64
	return workload.Custom("PRIV", "private remote hot pages", 4,
		[]workload.RegionSpec{{Name: "data", Pages: 48 * perGPM}},
		func(ctx workload.Context) []vm.VAddr {
			r := ctx.Regions["data"]
			neighbour := (ctx.GPM + 1) % ctx.NumGPMs
			nLo, _ := r.OwnerSlice(neighbour, ctx.NumGPMs)
			myLo, myHi := r.OwnerSlice(ctx.GPM, ctx.NumGPMs)
			var tr []vm.VAddr
			rounds := ctx.OpsBudget / 44
			if rounds < 4 {
				rounds = 4
			}
			for round := 0; round < rounds; round++ {
				// Hot remote pages: the tail of the neighbour's chunk, which
				// the neighbour's own filler (bounded to its chunk head)
				// never touches — truly private to this requester.
				for h := 0; h < 4; h++ {
					tr = append(tr, ctx.PageSize.Base(r.Start+vm.VPN(nLo+perGPM-4+h)))
				}
				// Local filler: more distinct pages per round than the L1
				// TLB holds, so the hot entries are evicted between rounds.
				span := (myHi - myLo) / 2
				for fcount := 0; fcount < 40; fcount++ {
					pg := myLo + (round*40+fcount)%span
					tr = append(tr, ctx.PageSize.Base(r.Start+vm.VPN(pg)))
				}
			}
			return tr
		})
}

// ExtMigrationMicro isolates the migration mechanism with the private-hot
// microbenchmark and a deliberately tiny L2 TLB, so re-touches of remote
// pages actually reach the translation fabric.
func ExtMigrationMicro(s *Session) (Table, error) {
	t := Table{ID: "ext-migrate-micro", Title: "Migration microbenchmark (private remote hot pages, tiny L2 TLB)",
		Header: []string{"Config", "Cycles", "Remote reqs", "Migrations", "Speedup vs same scheme"}}
	schemes := []string{"baseline", "hdpat"}
	var jobs []simJob
	for _, scheme := range schemes {
		for _, with := range []bool{false, true} {
			j := s.job(scheme, "PRIV", config.Default())
			j.cfg.Name = "migrate-micro"
			j.cfg.GPM.L2TLB.Sets = 2
			j.cfg.GPM.L2TLB.Ways = 8
			j.opsBudget = 480
			hot := privateHot()
			j.custom = &hot
			if with {
				j.migration = migrate.DefaultConfig()
				j.migration.Threshold = 3
			}
			jobs = append(jobs, j)
		}
	}
	res, err := s.runs(jobs)
	if err != nil {
		return t, err
	}
	for i, scheme := range schemes {
		off, on := res[2*i], res[2*i+1]
		t.Addf(scheme, fmtCycles(off.Cycles), off.RemoteRequests(), 0, 1.0)
		t.Addf(scheme+"+migration", fmtCycles(on.Cycles), on.RemoteRequests(),
			on.Migration.Migrations, on.Speedup(off))
	}
	t.Note("migration makes the hot pages local — a modest win over the naive baseline,")
	t.Note("but a small loss under HDPAT, whose peer caches already absorb the re-touches")
	t.Note("at lower cost than shootdown+copy; consistent with the paper deferring")
	t.Note("migration to future work")
	return t, nil
}
