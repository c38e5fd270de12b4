package check

import (
	"errors"
	"strings"
	"testing"

	"hdpat/internal/attr"
	"hdpat/internal/iommu"
	"hdpat/internal/noc"
	"hdpat/internal/sim"
	"hdpat/internal/vm"
	"hdpat/internal/xlat"
)

// wantViolation asserts err matches ErrInvariant and names the invariant.
func wantViolation(t *testing.T, err error, invariant string) {
	t.Helper()
	if err == nil {
		t.Fatalf("no violation reported, want %s", invariant)
	}
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("error does not match ErrInvariant: %v", err)
	}
	if !strings.Contains(err.Error(), "invariant "+invariant+":") {
		t.Fatalf("error does not name %s: %v", invariant, err)
	}
}

// cleanFinal builds a Final consistent with the checker's observations after
// n completed requests of latency each, totalBytes of hop traffic over hops
// link traversals.
func cleanFinal(n, latencyEach, hopBytes, hops uint64) Final {
	return Final{
		Cycle:   10_000,
		Settled: true,
		IOMMU: iommu.Stats{
			Requests: n, Walks: n,
		},
		NoC:              noc.Stats{ByteHops: hopBytes, HopsTotal: hops, ManhattanTotal: hops},
		RemoteReqs:       n,
		RemoteLatencySum: n * latencyEach,
	}
}

// feed streams n well-formed request lifecycles through the checker.
func feed(c *Checker, n int, latency uint64) {
	for i := 1; i <= n; i++ {
		id := uint64(i)
		c.IOMMURequest(0, &xlat.Request{ID: id})
		c.OnRequest(100, 100+latency, id, 0, 0)
	}
}

func TestCleanRunReportsNothing(t *testing.T) {
	c := New(0)
	feed(c, 5, 300)
	c.OnHop(0, 40, 0, 0, 1, 0, 64, false)
	c.OnHop(40, 80, 1, 0, 2, 0, 64, false)
	if err := c.Finish(cleanFinal(5, 300, 128, 2)); err != nil {
		t.Fatalf("clean run reported: %v", err)
	}
}

// Mutation: a double-completed request must be caught by name.
func TestCatchesDoubleComplete(t *testing.T) {
	c := New(0)
	feed(c, 3, 300)
	c.OnRequest(100, 400, 2, 0, 0) // request 2 completes again
	err := c.Finish(cleanFinal(3, 300, 0, 0))
	wantViolation(t, err, "request.double-complete")
	// The duplicate also breaks completion conservation.
	wantViolation(t, err, "request.conservation")
}

// Mutation: a request that reached the IOMMU but was silently dropped (a
// dispatch that never completes) must be caught by name.
func TestCatchesDroppedDispatch(t *testing.T) {
	c := New(0)
	feed(c, 3, 300)
	c.IOMMURequest(50, &xlat.Request{ID: 99}) // arrives, never completes
	err := c.Finish(cleanFinal(3, 300, 0, 0))
	wantViolation(t, err, "request.dropped")
	if !strings.Contains(err.Error(), "req 99") {
		t.Errorf("dropped request not identified by ID: %v", err)
	}
}

// Mutation: a skipped sampler boundary must be caught by name, both as a gap
// between boundaries and as missing trailing coverage.
func TestCatchesLostSamplerWindow(t *testing.T) {
	c := New(100)
	c.Sample(100)
	c.Sample(300) // boundary 200 never fired
	err := c.Err()
	wantViolation(t, err, "sampler.lost-window")

	c2 := New(100)
	c2.Sample(100)
	f := cleanFinal(0, 0, 0, 0)
	f.Cycle = 350 // boundaries 200 and 300 should have fired by now
	wantViolation(t, c2.Finish(f), "sampler.lost-window")

	c3 := New(100)
	c3.Sample(100)
	c3.Sample(200)
	c3.Sample(300)
	f3 := cleanFinal(0, 0, 0, 0)
	f3.Cycle = 350
	if err := c3.Finish(f3); err != nil {
		t.Fatalf("complete coverage reported: %v", err)
	}
}

func TestCatchesByteHopMismatch(t *testing.T) {
	c := New(0)
	c.OnHop(0, 40, 0, 0, 1, 0, 64, false)
	f := cleanFinal(0, 0, 100, 1) // ByteHops says 100, links carried 64
	wantViolation(t, c.Finish(f), "noc.byte-hops")
}

// Mutation: hop-count accounting that disagrees with the hops actually
// observed crossing links must be caught by name.
func TestCatchesHopCountMismatch(t *testing.T) {
	c := New(0)
	c.OnHop(0, 40, 0, 0, 1, 0, 64, false)
	c.OnHop(40, 80, 1, 0, 2, 0, 64, false)
	f := cleanFinal(0, 0, 128, 3) // HopsTotal says 3, links saw 2
	wantViolation(t, c.Finish(f), "noc.deflections")
}

// Mutation: a deflection count that disagrees with the deflected hops
// observed must be caught by name.
func TestCatchesDeflectionMismatch(t *testing.T) {
	c := New(0)
	c.OnHop(0, 40, 0, 0, 1, 0, 64, true)
	f := cleanFinal(0, 0, 64, 1)
	f.ExactHops = false
	f.NoC.Deflections = 0 // one deflected hop observed
	f.NoC.ManhattanTotal = 1
	wantViolation(t, c.Finish(f), "noc.deflections")
}

// Mutation: fewer hops than the Manhattan lower bound is impossible under
// any routing and must be caught by name.
func TestCatchesHopsBelowManhattan(t *testing.T) {
	c := New(0)
	c.OnHop(0, 40, 0, 0, 1, 0, 64, false)
	f := cleanFinal(0, 0, 64, 1)
	f.NoC.ManhattanTotal = 2 // bound says 2, only 1 hop taken
	wantViolation(t, c.Finish(f), "noc.hops-lower-bound")
}

// Mutation: under a minimal routing (ExactHops) any surplus hop or any
// deflection must be caught by name; under a non-minimal routing the same
// surplus is legal.
func TestExactHopsTightensLowerBound(t *testing.T) {
	c := New(0)
	c.OnHop(0, 40, 0, 0, 1, 0, 64, false)
	c.OnHop(40, 80, 1, 0, 2, 0, 64, false)
	f := cleanFinal(0, 0, 128, 2)
	f.ExactHops = true
	f.NoC.ManhattanTotal = 1 // 2 hops for a 1-hop Manhattan path
	wantViolation(t, c.Finish(f), "noc.hops-lower-bound")

	c2 := New(0)
	c2.OnHop(0, 40, 0, 0, 1, 0, 64, false)
	c2.OnHop(40, 80, 1, 0, 2, 0, 64, true)
	f2 := cleanFinal(0, 0, 128, 2)
	f2.NoC.Deflections = 1
	f2.NoC.ManhattanTotal = 1 // deflection legitimately exceeds the bound
	if err := c2.Finish(f2); err != nil {
		t.Fatalf("non-minimal surplus reported: %v", err)
	}

	c3 := New(0)
	c3.OnHop(0, 40, 0, 0, 1, 0, 64, true)
	f3 := cleanFinal(0, 0, 64, 1)
	f3.ExactHops = true
	f3.NoC.Deflections = 1 // minimal routing must never deflect
	wantViolation(t, c3.Finish(f3), "noc.hops-lower-bound")
}

func TestCatchesIOMMUConservationBreak(t *testing.T) {
	c := New(0)
	f := cleanFinal(0, 0, 0, 0)
	f.IOMMU = iommu.Stats{Requests: 5, Walks: 4} // one submission unaccounted
	wantViolation(t, c.Finish(f), "iommu.conservation")
}

func TestCatchesUnsettledQueues(t *testing.T) {
	c := New(0)
	f := cleanFinal(0, 0, 0, 0)
	f.QueueDepth = 2
	f.WalkersBusy = 1
	wantViolation(t, c.Finish(f), "iommu.queue-settle")
}

func TestCatchesLatencyAccountingBreak(t *testing.T) {
	c := New(0)
	feed(c, 2, 300)
	f := cleanFinal(2, 300, 0, 0)
	f.RemoteLatencySum = 599 // spans sum to 600
	wantViolation(t, c.Finish(f), "attr.accounting")
}

func TestCatchesInexactBreakdown(t *testing.T) {
	c := New(0)
	feed(c, 1, 300)
	f := cleanFinal(1, 300, 0, 0)
	f.Breakdown = &attr.Breakdown{Clipped: 1, Stages: map[string]*attr.Dist{}}
	wantViolation(t, c.Finish(f), "attr.accounting")
}

func TestCatchesOverfullLink(t *testing.T) {
	c := New(0)
	c.Probes(func(v attr.LinkVisitor) {
		v(1, 1, "e", 20_000) // busier than the run is long
	})
	f := cleanFinal(0, 0, 0, 0)
	f.Settled = false // link check applies even to cut runs
	wantViolation(t, c.Finish(f), "noc.link-busy")
}

// A cut run (Settled false) must skip quiescence-only checks.
func TestCutRunSkipsSettleChecks(t *testing.T) {
	c := New(0)
	c.IOMMURequest(0, &xlat.Request{ID: 1}) // in flight at the cut
	f := Final{Cycle: 500, Settled: false, QueueDepth: 3, WalkersBusy: 2}
	if err := c.Finish(f); err != nil {
		t.Fatalf("cut run reported settle violations: %v", err)
	}
}

func TestViolationCapKeepsExactCount(t *testing.T) {
	c := New(0)
	for i := 0; i < maxRecorded+10; i++ {
		c.violate("test.cap", 0, 0, "violation %d", i)
	}
	vs, total := c.violations, c.nViolated
	if len(vs) != maxRecorded || total != maxRecorded+10 {
		t.Fatalf("recorded %d / total %d, want %d / %d", len(vs), total, maxRecorded, maxRecorded+10)
	}
	if !strings.Contains(c.Err().Error(), "10 further violations") {
		t.Errorf("overflow not summarised: %v", c.Err())
	}
}

// fakeScheme completes every request with a fixed frame of GPM owner.
type fakeScheme struct {
	pfn   vm.PFN
	owner int
}

func (f *fakeScheme) Name() string { return "fake" }
func (f *fakeScheme) Translate(req *xlat.Request) {
	req.Complete(xlat.Result{PTE: vm.PTE{VPN: req.VPN, PFN: f.pfn, Owner: f.owner, Valid: true}, Source: xlat.SourceIOMMU})
}

// translate sends one request for vpn, issued at cycle issued, through a
// checked fakeScheme returning frame pfn of GPM owner.
func translate(t *testing.T, c *Checker, global *vm.PageTable, id uint64, vpn vm.VPN, pfn vm.PFN, owner int, issued sim.VTime) {
	t.Helper()
	s := &Scheme{Inner: &fakeScheme{pfn: pfn, owner: owner}, Global: global, Eng: sim.NewEngine(), Checker: c}
	done := false
	s.Translate(xlat.NewRequest(id, 0, vpn, 0, issued, func(xlat.Result) { done = true }))
	if !done {
		t.Fatal("wrapped request never completed")
	}
}

func TestSchemeCatchesBadPFN(t *testing.T) {
	global := vm.NewPageTable()
	global.Insert(vm.PTE{VPN: 7, PFN: 5007, Valid: true})

	// A stale frame with no migration to excuse it fails at settle.
	c := New(0)
	translate(t, c, global, 1, 7, 1234, 0, 0)
	wantViolation(t, c.Finish(cleanFinal(0, 0, 0, 0)), "xlat.bad-pfn")

	// An unmapped page fails at once.
	c = New(0)
	translate(t, c, global, 2, 8, 1234, 0, 0)
	wantViolation(t, c.Err(), "xlat.bad-pfn")

	// A correct completion passes through clean.
	c = New(0)
	translate(t, c, global, 3, 7, 5007, 0, 0)
	if err := c.Finish(cleanFinal(0, 0, 0, 0)); err != nil {
		t.Fatalf("correct translation reported: %v", err)
	}
}

// A stale frame passes only as a race with a migration of its page: owned
// by the migration's source GPM, and issued before the migration ended.
func TestSchemeMigrationLaw(t *testing.T) {
	global := vm.NewPageTable()
	global.Insert(vm.PTE{VPN: 7, PFN: 5007, Owner: 4, Valid: true})
	cases := []struct {
		name     string
		migrated uint64 // page moved from GPM 3 to 4 over cycles 50-500
		owner    int
		issued   sim.VTime
		ok       bool
	}{
		{"in-flight race", 7, 3, 100, true},
		{"issued after the migration", 7, 3, 500, false},
		{"owner never held the page", 7, 2, 100, false},
		{"other page migrated", 9, 3, 100, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(0)
			c.OnMigration(50, 500, tc.migrated, 3, 4)
			translate(t, c, global, 1, 7, 1234, tc.owner, tc.issued)
			err := c.Finish(cleanFinal(0, 0, 0, 0))
			if tc.ok {
				if err != nil {
					t.Fatalf("legitimate race reported: %v", err)
				}
				return
			}
			wantViolation(t, err, "xlat.bad-pfn")
		})
	}

	// Suspects wait for settle: a cut run cannot tell a race from a leak.
	c := New(0)
	translate(t, c, global, 1, 7, 1234, 3, 100)
	if err := c.Finish(Final{Cycle: 500}); err != nil {
		t.Fatalf("cut run resolved a suspect: %v", err)
	}
}

// Mutation: a cached entry that disagrees with the page table at settle is
// caught by name, wherever it sits, even if no completion ever carried it.
func TestCatchesStaleEntry(t *testing.T) {
	current := vm.PTE{VPN: 7, PFN: 5007, Owner: 4, Valid: true}
	global := vm.NewPageTable()
	global.Insert(current)
	final := func(settled bool, gpm int, level string, planted vm.PTE) Final {
		f := cleanFinal(0, 0, 0, 0)
		f.Settled, f.Global = settled, global
		f.Entries = func(v EntryVisitor) {
			v(0, "l1", current)
			v(gpm, level, planted)
		}
		return f
	}
	if err := New(0).Finish(final(true, 2, "aux", current)); err != nil {
		t.Fatalf("current entries reported: %v", err)
	}
	cases := []struct {
		name, where string
		gpm         int
		level       string
		pte         vm.PTE
	}{
		{"old frame", "GPM 2 l2", 2, "l2", vm.PTE{VPN: 7, PFN: 1234, Owner: 4, Valid: true}},
		{"old owner", "GPM 3 aux", 3, "aux", vm.PTE{VPN: 7, PFN: 5007, Owner: 3, Valid: true}},
		{"unmapped", "GPM 0 ll", 0, "ll", vm.PTE{VPN: 8, PFN: 5008, Owner: 0, Valid: true}},
		{"IOMMU copy", "IOMMU tlb", -1, "tlb", vm.PTE{VPN: 7, PFN: 1234, Owner: 3, Valid: true}},
	}
	for _, tc := range cases {
		err := New(0).Finish(final(true, tc.gpm, tc.level, tc.pte))
		wantViolation(t, err, "xlat.stale-entry")
		if !strings.Contains(err.Error(), tc.where+" caches") {
			t.Errorf("%s: %s not named: %v", tc.name, tc.where, err)
		}
	}
	// The sweep waits for settle: a cut run may hold entries a pending
	// shootdown is about to drop.
	if err := New(0).Finish(final(false, 2, "l2", cases[0].pte)); err != nil {
		t.Fatalf("cut run swept entries: %v", err)
	}
}
