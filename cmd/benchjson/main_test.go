package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, name string, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// defaultTol mirrors the flag defaults.
func defaultTol() tolerances {
	return tolerances{NsPerOp: 0.15, AllocsOp: 0.10, EventsSec: 0.15, BytesGPM: 0.20}
}

const oldJSON = `{"benchmarks":[
  {"name":"BenchmarkBatch3x3/serial","iterations":3,"metrics":[{"value":1000,"unit":"ns/op"},{"value":64,"unit":"B/op"}]},
  {"name":"BenchmarkBatch3x3/parallel","iterations":3,"metrics":[{"value":400,"unit":"ns/op"}]},
  {"name":"BenchmarkRemoved","iterations":1,"metrics":[{"value":10,"unit":"ns/op"}]}
]}`

func TestCompareWithinTolerance(t *testing.T) {
	newJSON := `{"benchmarks":[
	  {"name":"BenchmarkBatch3x3/serial","iterations":3,"metrics":[{"value":1100,"unit":"ns/op"}]},
	  {"name":"BenchmarkBatch3x3/parallel","iterations":3,"metrics":[{"value":380,"unit":"ns/op"}]},
	  {"name":"BenchmarkNew","iterations":1,"metrics":[{"value":5,"unit":"ns/op"}]}
	]}`
	code := compareReports(writeReport(t, "old.json", oldJSON),
		writeReport(t, "new.json", newJSON), defaultTol())
	if code != 0 {
		t.Errorf("10%% slowdown under 15%% tolerance: exit %d, want 0", code)
	}
}

func TestCompareRegressionFails(t *testing.T) {
	newJSON := `{"benchmarks":[
	  {"name":"BenchmarkBatch3x3/serial","iterations":3,"metrics":[{"value":1200,"unit":"ns/op"}]}
	]}`
	code := compareReports(writeReport(t, "old.json", oldJSON),
		writeReport(t, "new.json", newJSON), defaultTol())
	if code != 1 {
		t.Errorf("20%% slowdown over 15%% tolerance: exit %d, want 1", code)
	}
	// The same delta passes when the tolerance is raised.
	tol := defaultTol()
	tol.NsPerOp = 0.25
	if code := compareReports(writeReport(t, "old2.json", oldJSON),
		writeReport(t, "new2.json", newJSON), tol); code != 0 {
		t.Errorf("20%% slowdown under 25%% tolerance: exit %d, want 0", code)
	}
}

func TestCompareAllocRegressionFails(t *testing.T) {
	old := `{"benchmarks":[
	  {"name":"BenchmarkCompare","iterations":3,"metrics":[{"value":1000,"unit":"ns/op"},{"value":1000,"unit":"allocs/op"}]}
	]}`
	// Wall time fine, allocations up 20%: the alloc gate must fail alone.
	next := `{"benchmarks":[
	  {"name":"BenchmarkCompare","iterations":3,"metrics":[{"value":1000,"unit":"ns/op"},{"value":1200,"unit":"allocs/op"}]}
	]}`
	code := compareReports(writeReport(t, "old.json", old),
		writeReport(t, "new.json", next), defaultTol())
	if code != 1 {
		t.Errorf("20%% alloc growth over 10%% tolerance: exit %d, want 1", code)
	}
	within := `{"benchmarks":[
	  {"name":"BenchmarkCompare","iterations":3,"metrics":[{"value":1000,"unit":"ns/op"},{"value":1050,"unit":"allocs/op"}]}
	]}`
	if code := compareReports(writeReport(t, "old2.json", old),
		writeReport(t, "new2.json", within), defaultTol()); code != 0 {
		t.Errorf("5%% alloc growth under 10%% tolerance: exit %d, want 0", code)
	}
}

func TestCompareEventsThroughputGate(t *testing.T) {
	old := `{"benchmarks":[
	  {"name":"BenchmarkCompare","iterations":3,"metrics":[{"value":1000,"unit":"ns/op"},{"value":1000000,"unit":"events/sec"}]}
	]}`
	// events/sec regresses downward: a 30% drop fails, a 30% gain passes.
	drop := `{"benchmarks":[
	  {"name":"BenchmarkCompare","iterations":3,"metrics":[{"value":1000,"unit":"ns/op"},{"value":700000,"unit":"events/sec"}]}
	]}`
	if code := compareReports(writeReport(t, "old.json", old),
		writeReport(t, "new.json", drop), defaultTol()); code != 1 {
		t.Errorf("30%% throughput drop over 15%% tolerance: exit %d, want 1", code)
	}
	gain := `{"benchmarks":[
	  {"name":"BenchmarkCompare","iterations":3,"metrics":[{"value":1000,"unit":"ns/op"},{"value":1300000,"unit":"events/sec"}]}
	]}`
	if code := compareReports(writeReport(t, "old2.json", old),
		writeReport(t, "new2.json", gain), defaultTol()); code != 0 {
		t.Errorf("throughput gain flagged as regression: exit %d, want 0", code)
	}
}

func TestCompareDeflectLegInformationalOnSingleCPU(t *testing.T) {
	// A deflection leg with no GOMAXPROCS suffix (procs omitted = single
	// CPU) regresses hard: informational.
	oldDefl := `{"benchmarks":[
	  {"name":"BenchmarkCompareHDPATDeflect","iterations":3,"metrics":[{"value":1000,"unit":"ns/op"}]}
	]}`
	slowDefl := `{"benchmarks":[
	  {"name":"BenchmarkCompareHDPATDeflect","iterations":3,"metrics":[{"value":2000,"unit":"ns/op"}]}
	]}`
	if code := compareReports(writeReport(t, "oldd.json", oldDefl),
		writeReport(t, "newd.json", slowDefl), defaultTol()); code != 0 {
		t.Errorf("single-CPU Deflect regression gated: exit %d, want 0", code)
	}
	// The same leg on a multi-CPU runner must gate.
	oldMP := `{"benchmarks":[
	  {"name":"BenchmarkCompareHDPATDeflect","procs":8,"iterations":3,"metrics":[{"value":1000,"unit":"ns/op"}]}
	]}`
	slowMP := `{"benchmarks":[
	  {"name":"BenchmarkCompareHDPATDeflect","procs":8,"iterations":3,"metrics":[{"value":2000,"unit":"ns/op"}]}
	]}`
	if code := compareReports(writeReport(t, "old2.json", oldMP),
		writeReport(t, "new2.json", slowMP), defaultTol()); code != 1 {
		t.Errorf("multi-CPU Deflect regression not gated: exit %d, want 1", code)
	}
	// A plain single-CPU benchmark still gates.
	oldPlain := `{"benchmarks":[
	  {"name":"BenchmarkCompareHDPAT","iterations":3,"metrics":[{"value":1000,"unit":"ns/op"}]}
	]}`
	slowPlain := `{"benchmarks":[
	  {"name":"BenchmarkCompareHDPAT","iterations":3,"metrics":[{"value":2000,"unit":"ns/op"}]}
	]}`
	if code := compareReports(writeReport(t, "old3.json", oldPlain),
		writeReport(t, "new3.json", slowPlain), defaultTol()); code != 1 {
		t.Errorf("plain single-CPU regression not gated: exit %d, want 1", code)
	}
}

func TestCompareInformationalFlag(t *testing.T) {
	old := `{"benchmarks":[
	  {"name":"BenchmarkNoisy","procs":8,"iterations":3,"metrics":[{"value":1000,"unit":"ns/op"}]}
	]}`
	slow := `{"benchmarks":[
	  {"name":"BenchmarkNoisy","procs":8,"iterations":3,"metrics":[{"value":2000,"unit":"ns/op"}]}
	]}`
	tol := defaultTol()
	tol.Informational = `^BenchmarkNoisy$`
	if code := compareReports(writeReport(t, "old.json", old),
		writeReport(t, "new.json", slow), tol); code != 0 {
		t.Errorf("-informational benchmark gated: exit %d, want 0", code)
	}
	// Without the flag the same diff fails.
	if code := compareReports(writeReport(t, "old2.json", old),
		writeReport(t, "new2.json", slow), defaultTol()); code != 1 {
		t.Errorf("ungated without -informational: exit %d, want 1", code)
	}
	// A bad pattern is a usage error, not a silent pass.
	tol.Informational = `(`
	if code := compareReports(writeReport(t, "old3.json", old),
		writeReport(t, "new3.json", slow), tol); code != 2 {
		t.Errorf("bad -informational pattern: exit %d, want 2", code)
	}
}

func TestDeflectLegPattern(t *testing.T) {
	cases := []struct {
		b    Benchmark
		want bool
	}{
		{Benchmark{Name: "BenchmarkCompareHDPATDeflect"}, true},
		{Benchmark{Name: "BenchmarkScale30x30Deflect"}, true},
		{Benchmark{Name: "BenchmarkCompareHDPATDeflect/sub"}, true},
		{Benchmark{Name: "BenchmarkCompareHDPATDeflect", Procs: 8}, false}, // multi-CPU
		{Benchmark{Name: "BenchmarkCompareHDPAT"}, false},
		{Benchmark{Name: "BenchmarkCompareHDPATD4"}, false}, // no sharded-leg rule
		{Benchmark{Name: "BenchmarkBatch3x3/parallel"}, false},
	}
	for _, c := range cases {
		if got := informational(c.b, nil); got != c.want {
			t.Errorf("informational(%q procs=%d) = %v, want %v", c.b.Name, c.b.Procs, got, c.want)
		}
	}
}

func TestCompareMissingFile(t *testing.T) {
	if code := compareReports(filepath.Join(t.TempDir(), "absent.json"),
		writeReport(t, "new.json", oldJSON), defaultTol()); code != 2 {
		t.Errorf("missing baseline: exit %d, want 2", code)
	}
}

func TestMetricIndexing(t *testing.T) {
	rep := Report{Benchmarks: []Benchmark{
		{Name: "A", Metrics: []Metric{{Value: 7, Unit: "B/op"}, {Value: 42, Unit: "ns/op"}}},
		{Name: "B", Metrics: []Metric{{Value: 9, Unit: "allocs/op"}}},
	}}
	ns := metricIndex(rep, "ns/op")
	if ns["A"] != 42 {
		t.Errorf("ns/op[A] = %v", ns["A"])
	}
	if _, ok := ns["B"]; ok {
		t.Error("benchmark without ns/op should not be indexed")
	}
	if al := metricIndex(rep, "allocs/op"); al["B"] != 9 {
		t.Errorf("allocs/op[B] = %v", al["B"])
	}
}

// Benchmarks with the same name in different packages are gated
// separately: keyed on the name alone, the later package's entry would
// shadow the earlier one's in both reports and hide its regression.
func TestCompareKeysOnPackage(t *testing.T) {
	old := `{"benchmarks":[
	  {"name":"BenchmarkMSHR","pkg":"hdpat/internal/cache","iterations":1000000,"metrics":[{"value":50,"unit":"ns/op"}]},
	  {"name":"BenchmarkMSHR","pkg":"hdpat/internal/tlb","iterations":1000000,"metrics":[{"value":100,"unit":"ns/op"}]}
	]}`
	cacheSlower := `{"benchmarks":[
	  {"name":"BenchmarkMSHR","pkg":"hdpat/internal/cache","iterations":1000000,"metrics":[{"value":100,"unit":"ns/op"}]},
	  {"name":"BenchmarkMSHR","pkg":"hdpat/internal/tlb","iterations":1000000,"metrics":[{"value":100,"unit":"ns/op"}]}
	]}`
	if code := compareReports(writeReport(t, "old.json", old),
		writeReport(t, "new.json", cacheSlower), defaultTol()); code != 1 {
		t.Errorf("2x ns/op in one package's BenchmarkMSHR: exit %d, want 1", code)
	}
	if code := compareReports(writeReport(t, "old2.json", old),
		writeReport(t, "new2.json", old), defaultTol()); code != 0 {
		t.Errorf("unchanged same-name benchmarks in two packages: exit %d, want 0", code)
	}
	rep := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkMSHR", Pkg: "hdpat/internal/cache", Metrics: []Metric{{Value: 50, Unit: "ns/op"}}},
		{Name: "BenchmarkMSHR", Pkg: "hdpat/internal/tlb", Metrics: []Metric{{Value: 100, Unit: "ns/op"}}},
		{Name: "BenchmarkLegacy", Metrics: []Metric{{Value: 7, Unit: "ns/op"}}},
	}}
	ns := metricIndex(rep, "ns/op")
	if len(ns) != 3 || ns["hdpat/internal/cache/BenchmarkMSHR"] != 50 ||
		ns["hdpat/internal/tlb/BenchmarkMSHR"] != 100 || ns["BenchmarkLegacy"] != 7 {
		t.Errorf("metricIndex = %v", ns)
	}
}

// bytes/GPM is the memory-scaling gate: heap growth per GPM reported by the
// giant-wafer benchmarks. An increase past -bytes-tolerance fails, a
// decrease never does.
func TestCompareBytesPerGPMGate(t *testing.T) {
	old := `{"benchmarks":[
	  {"name":"BenchmarkScale30x30","procs":4,"iterations":1,"metrics":[{"value":100000,"unit":"bytes/GPM"}]}
	]}`
	worse := `{"benchmarks":[
	  {"name":"BenchmarkScale30x30","procs":4,"iterations":1,"metrics":[{"value":140000,"unit":"bytes/GPM"}]}
	]}`
	if code := compareReports(writeReport(t, "old.json", old),
		writeReport(t, "worse.json", worse), defaultTol()); code != 1 {
		t.Errorf("40%% bytes/GPM growth over 20%% tolerance: exit %d, want 1", code)
	}
	within := `{"benchmarks":[
	  {"name":"BenchmarkScale30x30","procs":4,"iterations":1,"metrics":[{"value":110000,"unit":"bytes/GPM"}]}
	]}`
	if code := compareReports(writeReport(t, "old2.json", old),
		writeReport(t, "within.json", within), defaultTol()); code != 0 {
		t.Errorf("10%% bytes/GPM growth under 20%% tolerance: exit %d, want 0", code)
	}
	better := `{"benchmarks":[
	  {"name":"BenchmarkScale30x30","procs":4,"iterations":1,"metrics":[{"value":20000,"unit":"bytes/GPM"}]}
	]}`
	if code := compareReports(writeReport(t, "old3.json", old),
		writeReport(t, "better.json", better), defaultTol()); code != 0 {
		t.Errorf("5x bytes/GPM improvement: exit %d, want 0", code)
	}
}

// TestParseRecordsPackagePerBenchmark pins that output from several
// packages keeps each benchmark's own package, rather than the last `pkg:`
// header overwriting one report-wide value.
func TestParseRecordsPackagePerBenchmark(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: hdpat
cpu: Test CPU
BenchmarkCompareHDPAT-2   	       3	 125353618 ns/op	 3876298 events/sec
PASS
ok  	hdpat	1.2s
goos: linux
goarch: amd64
pkg: hdpat/internal/tlb
cpu: Test CPU
BenchmarkTLBLookup/L2/lookup-2   	1000000	        34.09 ns/op	       0 B/op	       0 allocs/op
BenchmarkMSHR-2                  	1000000	        73.77 ns/op
PASS
ok  	hdpat/internal/tlb	0.1s
`
	rep, err := parse(strings.NewReader(out), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"BenchmarkCompareHDPAT":        "hdpat",
		"BenchmarkTLBLookup/L2/lookup": "hdpat/internal/tlb",
		"BenchmarkMSHR":                "hdpat/internal/tlb",
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d", len(rep.Benchmarks), len(want))
	}
	for _, b := range rep.Benchmarks {
		if b.Pkg != want[b.Name] || b.Procs != 2 {
			t.Errorf("%s: pkg %q procs %d, want %q and 2", b.Name, b.Pkg, b.Procs, want[b.Name])
		}
	}
	if rep.Goos != "linux" || rep.CPU != "Test CPU" {
		t.Errorf("header goos %q cpu %q", rep.Goos, rep.CPU)
	}
}
