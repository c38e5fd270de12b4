// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON document on stdout, so `make bench` can commit a
// regression baseline (results/bench.json) that CI and later sessions diff
// against without re-parsing the text format.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkBatch -benchmem | benchjson > results/bench.json
//	benchjson -compare old.json new.json [-tolerance 0.15]
//
// Only standard benchmark result lines and the context header (goos/goarch/
// pkg/cpu) are interpreted; everything else passes through to stderr so
// failures stay visible in pipelines. Output may span several packages:
// each benchmark records the `pkg:` header it ran under.
//
// -compare diffs two reports and exits 1 when any benchmark present in both
// regressed beyond tolerance — the CI bench-regression gate
// (`make bench-check`). Four metrics are gated, each with its own
// tolerance:
//
//   - ns/op (-tolerance, default 0.15): wall time is noisy on shared
//     runners, so the slack is wide.
//   - allocs/op (-alloc-tolerance, default 0.10): allocation counts are
//     nearly deterministic; the slack only absorbs map-growth and runtime
//     jitter, so a real new allocation per op trips the gate.
//   - events/sec (-events-tolerance, default 0.15): the kernel-throughput
//     custom metric; derived from wall time, so it inherits its noise.
//   - bytes/GPM (-bytes-tolerance, default 0.20): the memory-scaling custom
//     metric reported by the giant-wafer benchmarks (heap growth per GPM
//     from runtime.ReadMemStats deltas); an increase means the sparse/lazy
//     layouts regressed toward eager instantiation. Heap accounting jitters
//     with GC timing, so the slack is the widest of the four.
//
// Benchmarks appearing on only one side are reported but never fail the
// gate, so adding or renaming a benchmark does not require regenerating the
// baseline in the same change.
//
// Two escape hatches keep the gate honest rather than strict:
//
//   - -informational REGEX: matching benchmark names are diffed and printed
//     but never fail the gate.
//   - Deflection legs (a Deflect suffix, e.g. BenchmarkCompareHDPATDeflect)
//     are automatically informational when the new run executed on a
//     single CPU (GOMAXPROCS 1): their contention-dependent probing moves
//     with scheduling noise, so their wall time gates CI misleadingly.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Metric is one reported value of a benchmark ("ns/op", "B/op",
// "allocs/op", or any custom b.ReportMetric unit).
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Benchmark is one result line, with the package of the most recent
// `pkg:` header above it, so one report can hold several packages' runs.
type Benchmark struct {
	Name       string   `json:"name"`
	Pkg        string   `json:"pkg,omitempty"`
	Procs      int      `json:"procs,omitempty"` // the -N GOMAXPROCS suffix
	Iterations int64    `json:"iterations"`
	Metrics    []Metric `json:"metrics"`
}

// Report is the whole document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Note       string      `json:"note,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// tolerances holds the per-metric slack -compare allows before failing.
type tolerances struct {
	NsPerOp       float64 // fractional ns/op increase allowed
	AllocsOp      float64 // fractional allocs/op increase allowed
	EventsSec     float64 // fractional events/sec decrease allowed
	BytesGPM      float64 // fractional bytes/GPM increase allowed
	Informational string  // regexp of benchmark names reported but never gated
}

func main() {
	compare := flag.Bool("compare", false, "compare two bench.json files: -compare old.json new.json")
	var tol tolerances
	flag.Float64Var(&tol.NsPerOp, "tolerance", 0.15, "allowed fractional ns/op regression before -compare fails")
	flag.Float64Var(&tol.AllocsOp, "alloc-tolerance", 0.10, "allowed fractional allocs/op regression before -compare fails")
	flag.Float64Var(&tol.EventsSec, "events-tolerance", 0.15, "allowed fractional events/sec decrease before -compare fails")
	flag.Float64Var(&tol.BytesGPM, "bytes-tolerance", 0.20, "allowed fractional bytes/GPM increase before -compare fails")
	flag.StringVar(&tol.Informational, "informational", "", "regexp of benchmark names to diff and report but never fail on")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare [-tolerance F] [-alloc-tolerance F] [-events-tolerance F] [-bytes-tolerance F] [-informational RE] old.json new.json")
			os.Exit(2)
		}
		os.Exit(compareReports(flag.Arg(0), flag.Arg(1), tol))
	}
	convert()
}

// deflectLeg matches deflection-routed benchmark legs (a Deflect suffix on
// the top-level name, e.g. BenchmarkCompareHDPATDeflect): the router's
// misroute probing is contention-dependent work whose cost moves with
// scheduling noise far more than the XY hot path, so single-CPU runners
// diff it without gating.
var deflectLeg = regexp.MustCompile(`^Benchmark[^/]*Deflect[^/]*(/|$)`)

// informational reports whether b's regression should be printed but not
// gated: either its name matches the -informational pattern, or it is a
// deflection-routed leg that ran on a single CPU.
func informational(b Benchmark, pat *regexp.Regexp) bool {
	if pat != nil && pat.MatchString(b.Name) {
		return true
	}
	return b.Procs <= 1 && deflectLeg.MatchString(b.Name)
}

// gate describes one gated metric: its unit, its slack, and whether an
// increase (ns/op, allocs/op) or a decrease (events/sec) counts as a
// regression.
type gate struct {
	unit      string
	tolerance float64
	higherBad bool
}

// compareReports diffs new against old and returns the process exit code:
// 0 when every shared benchmark is within tolerance on every gated metric,
// 1 on regression.
func compareReports(oldPath, newPath string, tol tolerances) int {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	var infoPat *regexp.Regexp
	if tol.Informational != "" {
		infoPat, err = regexp.Compile(tol.Informational)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: -informational:", err)
			return 2
		}
	}
	gates := []gate{
		{unit: "ns/op", tolerance: tol.NsPerOp, higherBad: true},
		{unit: "allocs/op", tolerance: tol.AllocsOp, higherBad: true},
		{unit: "events/sec", tolerance: tol.EventsSec, higherBad: false},
		{unit: "bytes/GPM", tolerance: tol.BytesGPM, higherBad: true},
	}
	var regressed []string
	for _, g := range gates {
		oldVals := metricIndex(oldRep, g.unit)
		newVals := metricIndex(newRep, g.unit)
		for _, b := range newRep.Benchmarks {
			key := benchKey(b)
			nv, ok := newVals[key]
			if !ok {
				continue
			}
			ov, ok := oldVals[key]
			if !ok {
				fmt.Printf("%-56s %14.0f %-10s (new benchmark, not gated)\n", key, nv, g.unit)
				continue
			}
			var delta float64
			switch {
			case ov != 0:
				delta = (nv - ov) / ov
				if !g.higherBad {
					delta = -delta
				}
			case nv != 0:
				delta = 1 // from zero to something: treat as 100% worse
			}
			status := "ok"
			if delta > g.tolerance {
				if informational(b, infoPat) {
					status = "regression (informational, not gated)"
				} else {
					status = "REGRESSION"
					regressed = append(regressed, g.unit)
				}
			}
			fmt.Printf("%-56s %14.0f -> %14.0f %-10s %+7.1f%%  %s\n", key, ov, nv, g.unit, delta*100, status)
		}
		for key, ov := range oldVals {
			if _, ok := newVals[key]; !ok {
				fmt.Printf("%-56s %14.0f %-10s (removed, not gated)\n", key, ov, g.unit)
			}
		}
	}
	if len(regressed) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: regression beyond tolerance in %v\n", regressed)
		return 1
	}
	return 0
}

func loadReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// benchKey identifies a benchmark across two reports: its package and
// name, so equal names in different packages are gated separately. A
// benchmark without a recorded package is keyed by its name alone.
func benchKey(b Benchmark) string {
	if b.Pkg == "" {
		return b.Name
	}
	return b.Pkg + "/" + b.Name
}

// metricIndex indexes one metric unit of a report by benchKey. Duplicate
// keys (e.g. -cpu sweeps) keep the last value.
func metricIndex(rep Report, unit string) map[string]float64 {
	out := make(map[string]float64, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		for _, m := range b.Metrics {
			if m.Unit == unit {
				out[benchKey(b)] = m.Value
			}
		}
	}
	return out
}

// convert is the original stdin-to-JSON mode.
func convert() {
	rep, err := parse(os.Stdin, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	rep.Note = os.Getenv("BENCHJSON_NOTE")
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// parse reads `go test -bench` output, possibly from several packages, and
// copies every line it does not interpret to chatter.
func parse(r io.Reader, chatter io.Writer) (Report, error) {
	var rep Report
	var pkg string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBenchLine(line); ok {
				b.Pkg = pkg
				rep.Benchmarks = append(rep.Benchmarks, b)
				continue
			}
			fmt.Fprintln(chatter, line)
		default:
			// PASS/FAIL/ok and test chatter: keep visible, out of the JSON.
			if line != "" {
				fmt.Fprintln(chatter, line)
			}
		}
	}
	return rep, sc.Err()
}

// parseBenchLine parses "BenchmarkName-8  3  123 ns/op  45 B/op ..." into a
// Benchmark. Metrics come in (value, unit) pairs after the iteration count.
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0]}
	if i := strings.LastIndexByte(b.Name, '-'); i > 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics = append(b.Metrics, Metric{Value: v, Unit: fields[i+1]})
	}
	return b, true
}
