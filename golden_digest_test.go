// Golden-output conformance: the event-kernel and request-path hot-path
// refactors must leave every observable result byte-identical. This test
// runs every scheme on a small benchmark set with attribution enabled,
// renders Result and Breakdown into a canonical byte form, and compares
// SHA-256 digests against testdata/golden_digests.json — which was
// generated from the pre-refactor closure-based kernel. Any divergence in
// cycle counts, per-GPM stats, IOMMU accounting, NoC traffic or the
// attribution ledger changes a digest and fails the test.
//
// Regenerate (only when an intentional behaviour change is made) with:
//
//	go test -run TestGoldenDigests -update-golden
package hdpat_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"hdpat"
	"hdpat/internal/migrate"
	"hdpat/internal/wafer"
	"hdpat/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_digests.json from current outputs")
var updateGoldenDeflect = flag.Bool("update-golden-deflect", false, "rewrite testdata/golden_digests_deflect.json from current outputs")

const goldenPath = "testdata/golden_digests.json"
const goldenDeflectPath = "testdata/golden_digests_deflect.json"

// goldenBenchmarks keeps the matrix small but covers a regular-strided
// workload, an irregular one, and a pointer-chasing one.
var goldenBenchmarks = []string{"FIR", "SPMV", "PR"}

// digestResult renders the run outcome canonically and hashes it. Every
// field that the acceptance criteria call "Result and Breakdown" is
// included; in-memory-only handles (series pointers, metrics snapshots) are
// not part of the byte contract.
func digestResult(t *testing.T, res hdpat.Result) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "scheme=%s bench=%s cycles=%d ops=%d\n", res.Scheme, res.Benchmark, res.Cycles, res.TotalOps)
	fmt.Fprintf(&b, "iommu=%+v\n", res.IOMMU)
	// The noc line spells out the four original Stats fields so the XY
	// digests stay byte-identical to the goldens generated before the
	// routing seam grew Stats; the routing-era fields join the byte contract
	// only when routing actually deflected something.
	fmt.Fprintf(&b, "noc={Messages:%d ByteHops:%d HopsTotal:%d MaxHops:%d}\n",
		res.NoC.Messages, res.NoC.ByteHops, res.NoC.HopsTotal, res.NoC.MaxHops)
	if res.NoC.Deflections != 0 {
		fmt.Fprintf(&b, "deflections=%d manhattan=%d\n", res.NoC.Deflections, res.NoC.ManhattanTotal)
	}
	fmt.Fprintf(&b, "aux=%d %+v\n", res.AuxLen, res.AuxStats)
	fmt.Fprintf(&b, "bysource=%v\n", res.RemoteBySource())
	fmt.Fprintf(&b, "migration=%+v\n", res.Migration)
	for i, gs := range res.GPMStats {
		fmt.Fprintf(&b, "gpm%d finish=%d stats=%+v\n", i, res.GPMFinish[i], gs)
	}
	if res.Breakdown != nil {
		bd, err := json.Marshal(res.Breakdown)
		if err != nil {
			t.Fatalf("marshal breakdown: %v", err)
		}
		b.Write(bd)
		b.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// goldenRuns produces the scheme x benchmark digest map. Each run uses the
// Table I configuration with a small per-CU ops budget and a fixed seed;
// attribution is enabled so the Breakdown is part of the contract. One
// extra run exercises the page-migration extension's request path.
func goldenRuns(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	cfg := hdpat.DefaultConfig()
	for _, scheme := range hdpat.Schemes() {
		for _, bench := range goldenBenchmarks {
			res, err := hdpat.Simulate(cfg, hdpat.RunSpec{Scheme: scheme, Benchmark: bench},
				hdpat.WithOpsBudget(12), hdpat.WithSeed(7), hdpat.WithAttribution())
			if err != nil {
				t.Fatalf("%s/%s: %v", scheme, bench, err)
			}
			out[scheme+"/"+bench] = digestResult(t, res)
		}
	}
	// Page migration rides the same pooled request path; pin its outputs too.
	mcfg, err := wafer.ConfigFor("hdpat", cfg)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := workload.ByAbbr("PR")
	if err != nil {
		t.Fatal(err)
	}
	mig := migrate.DefaultConfig()
	res, err := wafer.Run(mcfg, wafer.Options{
		Scheme: "hdpat", Benchmark: bench, OpsBudget: 12, Seed: 7,
		Migration: &mig,
	})
	if err != nil {
		t.Fatalf("hdpat/PR+migrate: %v", err)
	}
	out["hdpat/PR/migrate"] = digestResult(t, res)
	return out
}

// TestGoldenDigestsDeflect pins the bufferless deflection router's outputs:
// the same scheme matrix as the XY goldens, run under WithRouting("deflect"),
// against its own digest file. Alongside the byte contract it asserts the
// routing laws directly on every run: HopsTotal >= ManhattanTotal (paths may
// be non-minimal but never shorter than Manhattan) and ByteHops consistency
// with per-hop accrual.
//
// Regenerate (only when an intentional behaviour change is made) with:
//
//	go test -run TestGoldenDigestsDeflect -update-golden-deflect
func TestGoldenDigestsDeflect(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix is not short")
	}
	got := make(map[string]string)
	cfg := hdpat.DefaultConfig()
	for _, scheme := range hdpat.Schemes() {
		for _, bench := range goldenBenchmarks {
			res, err := hdpat.Simulate(cfg, hdpat.RunSpec{Scheme: scheme, Benchmark: bench},
				hdpat.WithOpsBudget(12), hdpat.WithSeed(7), hdpat.WithAttribution(),
				hdpat.WithRouting("deflect"))
			if err != nil {
				t.Fatalf("%s/%s: %v", scheme, bench, err)
			}
			if res.NoC.HopsTotal < res.NoC.ManhattanTotal {
				t.Errorf("%s/%s: HopsTotal %d below Manhattan lower bound %d",
					scheme, bench, res.NoC.HopsTotal, res.NoC.ManhattanTotal)
			}
			got[scheme+"/"+bench] = digestResult(t, res)
		}
	}
	if *updateGoldenDeflect {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDeflectPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenDeflectPath)
		return
	}
	data, err := os.ReadFile(goldenDeflectPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden-deflect): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] == "" {
			t.Errorf("%s: run missing from matrix", k)
			continue
		}
		if got[k] != want[k] {
			t.Errorf("%s: digest %s != golden %s (output changed)", k, got[k][:12], want[k][:12])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: not in golden file (regenerate with -update-golden-deflect)", k)
		}
	}
}

func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix is not short")
	}
	got := goldenRuns(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] == "" {
			t.Errorf("%s: run missing from matrix", k)
			continue
		}
		if got[k] != want[k] {
			t.Errorf("%s: digest %s != golden %s (output changed)", k, got[k][:12], want[k][:12])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: not in golden file (regenerate with -update-golden)", k)
		}
	}
}
