package experiments

import (
	"strconv"
	"testing"

	"hdpat/internal/config"
	"hdpat/internal/migrate"
	"hdpat/internal/wafer"
	"hdpat/internal/workload"
)

// The memo key is the whole run description: runs that differ in any
// configuration field, or in the migration policy, execute separately, and
// each returns what a direct wafer.Run of the same description returns.
func TestMemoKeyIsWholeRunDescription(t *testing.T) {
	s := tinySession()
	two := s.job("hdpat", "PR", config.Default())
	one := two
	one.cfg.HDPAT.Layers = 1
	migrating := two
	migrating.migration = migrate.DefaultConfig()
	migrating.migration.Threshold = 1
	jobs := []simJob{two, one, migrating}

	got, err := s.runs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Runs != len(jobs) {
		t.Errorf("executed %d runs, want %d", s.Runs, len(jobs))
	}
	pr, err := workload.ByAbbr("PR")
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		opts := wafer.Options{Scheme: "hdpat", Benchmark: pr, OpsBudget: s.P.OpsBudget, Seed: s.P.Seed + 1}
		if i == 2 {
			mc := j.migration
			opts.Migration = &mc
		}
		direct, err := wafer.Run(j.cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Cycles != direct.Cycles || got[i].Migration != direct.Migration {
			t.Errorf("job %d: session gave %d cycles, %+v; direct run %d cycles, %+v",
				i, got[i].Cycles, got[i].Migration, direct.Cycles, direct.Migration)
		}
	}
	if got[0].Cycles == got[1].Cycles {
		t.Errorf("Layers=1 and Layers=2 both ran %d cycles; the check cannot tell them apart", got[0].Cycles)
	}
	if got[2].Migration.Migrations == 0 {
		t.Error("migrating run moved no pages; the check cannot tell it from the plain run")
	}

	// A second declaration of the same runs is served from the memo.
	runs := s.Runs
	again, err := s.runs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Runs != runs {
		t.Errorf("memoised runs re-executed %d simulations", s.Runs-runs)
	}
	for i := range jobs {
		if again[i].Cycles != got[i].Cycles {
			t.Errorf("job %d: memo gave %d cycles, first run %d", i, again[i].Cycles, got[i].Cycles)
		}
	}
}

// Equal run descriptions share one simulation across figures: Fig 20's 4 KB
// point is the default configuration, so after the baseline and HDPAT runs
// of versusBaseline it executes only its 16 KB and 64 KB runs.
func TestEqualConfigsShareRunsAcrossFigures(t *testing.T) {
	s := tinySession()
	if _, err := s.versusBaseline("hdpat"); err != nil {
		t.Fatal(err)
	}
	runs := s.Runs
	if _, err := Fig20(s); err != nil {
		t.Fatal(err)
	}
	// Two page sizes by two schemes, on the one benchmark of tinySession.
	if got := s.Runs - runs; got != 4 {
		t.Errorf("Fig20 executed %d runs after versusBaseline, want 4 (16 KB and 64 KB only)", got)
	}
}

// The hook, series and migration figures run in the Session's parallel
// batch, so a serial and a two-worker session must render the same tables.
func TestSerialAndParallelSessionsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("serial-vs-parallel sweep skipped in -short mode")
	}
	ids := []string{"fig4", "fig8", "fig13", "fig14", "ext-migrate"}
	render := func(workers int) []string {
		s := NewSession(Params{Quick: true, OpsBudget: 24, Seed: 7, Benchmarks: []string{"PR"}, Workers: workers})
		var out []string
		for _, id := range ids {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := e.Run(s)
			if err != nil {
				t.Fatalf("%s with %d workers: %v", id, workers, err)
			}
			out = append(out, tbl.String())
		}
		return out
	}
	serial, parallel := render(1), render(2)
	for i, id := range ids {
		if serial[i] != parallel[i] {
			t.Errorf("%s differs:\nserial:\n%s\nparallel:\n%s", id, serial[i], parallel[i])
		}
	}
}

// TestPaperClaimsQuick asserts the paper's headline claims on the quick
// set cmd/experiments -quick runs (seed 1): HDPAT beats every comparator
// (Fig 14), the full design beats each of its techniques alone (Fig 15),
// the redirection table beats an area-equivalent IOMMU TLB (Fig 19), and
// HDPAT still wins on the 7x12 wafer (Fig 22). EXPERIMENTS.md marks the
// rows asserted here.
func TestPaperClaimsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-claims gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("paper-claims gate skipped under -race: it asserts results, not concurrency")
	}
	s := NewSession(Params{Quick: true, Seed: 1})
	cell := func(tbl Table, row string, col int) float64 {
		t.Helper()
		for _, r := range tbl.Rows {
			if r[0] == row {
				v, err := strconv.ParseFloat(r[col], 64)
				if err != nil {
					t.Fatalf("%s %s[%d]: %v", tbl.ID, row, col, err)
				}
				return v
			}
		}
		t.Fatalf("%s has no %s row", tbl.ID, row)
		return 0
	}

	f14, err := Fig14(s)
	if err != nil {
		t.Fatal(err)
	}
	hdpat := cell(f14, "GEOMEAN", len(f14.Header)-1)
	for col, scheme := range f14.Header[1 : len(f14.Header)-1] {
		if other := cell(f14, "GEOMEAN", 1+col); hdpat <= other {
			t.Errorf("fig14: HDPAT geomean %.3f does not beat %s's %.3f", hdpat, scheme, other)
		}
	}

	f15, err := Fig15(s)
	if err != nil {
		t.Fatal(err)
	}
	full := cell(f15, "MEAN", len(f15.Header)-1)
	for col, technique := range f15.Header[1 : len(f15.Header)-1] {
		if alone := cell(f15, "MEAN", 1+col); full <= alone {
			t.Errorf("fig15: HDPAT mean %.3f does not beat %s alone (%.3f)", full, technique, alone)
		}
	}

	f19, err := Fig19(s)
	if err != nil {
		t.Fatal(err)
	}
	if r := cell(f19, "MEAN", 3); r <= 1 {
		t.Errorf("fig19: mean RT/TLB ratio %.3f, want > 1", r)
	}

	f22, err := Fig22(s)
	if err != nil {
		t.Fatal(err)
	}
	if g := cell(f22, "GEOMEAN", 1); g <= 1 {
		t.Errorf("fig22: 7x12 geomean speedup %.3f, want > 1", g)
	}
}
