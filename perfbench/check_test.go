package main

import (
	"strings"
	"testing"

	"hdpat"
)

// smallResult runs one quick Table I simulation.
func smallResult(t *testing.T, routing string) hdpat.Result {
	t.Helper()
	opts := []hdpat.Option{hdpat.WithOpsBudget(8), hdpat.WithSeed(1)}
	if routing != "" {
		opts = append(opts, hdpat.WithRouting(routing))
	}
	res, err := hdpat.Simulate(hdpat.DefaultConfig(), hdpat.RunSpec{Scheme: "hdpat", Benchmark: "PR"}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if res.NoC.ManhattanTotal == 0 || res.IOMMU.Requests == 0 {
		t.Fatalf("run sent no remote traffic: %+v %+v", res.NoC, res.IOMMU)
	}
	return res
}

func TestCheckRejectsAlteredResult(t *testing.T) {
	res := smallResult(t, "")
	if err := checkResult(res, true); err != nil {
		t.Fatalf("unaltered result rejected: %v", err)
	}
	clone := func() hdpat.Result {
		c := res
		c.GPMStats = append(c.GPMStats[:0:0], res.GPMStats...)
		return c
	}
	alterations := map[string]func(*hdpat.Result){
		"IOMMU outcomes": func(r *hdpat.Result) { r.IOMMU.Walks++ },
		"below Manhattan": func(r *hdpat.Result) {
			r.NoC.HopsTotal = r.NoC.ManhattanTotal - 1
		},
		"XY HopsTotal": func(r *hdpat.Result) { r.NoC.HopsTotal++ },
		"completed":    func(r *hdpat.Result) { r.GPMStats[0].OpsCompleted-- },
		"trace holds":  func(r *hdpat.Result) { r.TotalOps++ },
	}
	for want, alter := range alterations {
		r := clone()
		alter(&r)
		err := checkResult(r, true)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: check returned %v", want, err)
		}
	}
	// Any change to a computed field changes the digest.
	r := clone()
	r.GPMStats[len(r.GPMStats)-1].L1TLBHits++
	if digestResult(r) == digestResult(res) {
		t.Error("digest ignores per-GPM counters")
	}
	if digestResult(clone()) != digestResult(res) {
		t.Error("digest is not a function of the result")
	}
}

func TestCheckAcceptsDeflection(t *testing.T) {
	res := smallResult(t, "deflect")
	if err := checkResult(res, false); err != nil {
		t.Fatalf("deflection result rejected: %v", err)
	}
}

func TestCheckReferenceCountsOneFailure(t *testing.T) {
	b := &bench{refPath: "reference.json"}
	if err := b.checkReference("t1-sweep", map[string]string{"hdpat/PR": "0"}); err != nil {
		t.Fatal(err)
	}
	if b.attempted != 1 || b.failed != 1 {
		t.Errorf("attempted %d failed %d, want 1 and 1", b.attempted, b.failed)
	}
}

func TestFoldTraces(t *testing.T) {
	text := `File: perfbench
Type: cpu
Duration: 1s, Total samples = 100ms (10.00%)
-----------+-------------------------------------------------------
      40ms   hdpat/internal/sim.(*Engine).popEvent
             hdpat/internal/sim.(*Engine).RunUntil
-----------+-------------------------------------------------------
      30ms   runtime.mallocgc
             hdpat/internal/gpm.(*op).stepL1 (inline)
             hdpat/internal/sim.(*Engine).RunUntil
-----------+-------------------------------------------------------
      1.2s   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	got, err := foldTraces([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	total := 40.0 + 30 + 1200
	want := map[string]float64{"sim": 40 / total, "gpm": 30 / total, "other": 1200 / total}
	for k, v := range want {
		if d := got[k] - v; d > 1e-12 || d < -1e-12 {
			t.Errorf("%s share = %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("shares %v, want keys of %v", got, want)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2, 5}
	if got := median(v); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := quantile(v, 0.9); got < 4.6-1e-9 || got > 4.6+1e-9 {
		t.Errorf("p90 = %v", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}
