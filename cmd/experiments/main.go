// Command experiments regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	experiments [-run id[,id...]] [-quick] [-budget N] [-seed N] [-bench A,B]
//	            [-workers N] [-report dir] [-serve addr [-pprof]]
//
// Without -run it executes every experiment in paper order. Use -list to
// see the available ids. -report additionally writes each experiment's
// table as Markdown and CSV artifacts into dir; -pprof mounts the
// /debug/pprof/ profiling endpoints on the -serve listener.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"hdpat/internal/experiments"
	"hdpat/internal/metrics"
)

func main() {
	run := flag.String("run", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	quick := flag.Bool("quick", false, "quick mode: fewer benchmarks, smaller budgets")
	budget := flag.Int("budget", 0, "per-CU operation budget override")
	seed := flag.Int64("seed", 1, "simulation seed")
	bench := flag.String("bench", "", "comma-separated benchmark subset")
	workers := flag.Int("workers", 0, "parallel simulations per experiment (0 = GOMAXPROCS, 1 = serial)")
	asJSON := flag.Bool("json", false, "emit results as a JSON array")
	asCSV := flag.Bool("csv", false, "emit results as CSV blocks")
	serve := flag.String("serve", "", "serve live metrics/progress over HTTP on this address (e.g. :9090)")
	pprofOn := flag.Bool("pprof", false, "mount /debug/pprof/ on the -serve listener")
	report := flag.String("report", "", "write per-experiment Markdown and CSV artifacts into this directory")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-6s %s\n", e.ID, e.Title)
		}
		return
	}

	p := experiments.Params{Quick: *quick, OpsBudget: *budget, Seed: *seed, Workers: *workers}
	if *bench != "" {
		p.Benchmarks = strings.Split(*bench, ",")
	}
	session := experiments.NewSession(p)
	var progress progressState
	if *serve != "" {
		reg := metrics.NewRegistry()
		session.Metrics = reg
		var sopts []metrics.ServeOption
		if *pprofOn {
			sopts = append(sopts, metrics.WithPprof())
		}
		go func() {
			if err := metrics.ListenAndServe(*serve, reg, progress.snapshot, sopts...); err != nil {
				fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
			}
		}()
	}
	if *report != "" {
		if err := os.MkdirAll(*report, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	var selected []experiments.Experiment
	if *run == "" {
		for _, e := range experiments.All() {
			if experiments.RunByDefault(e.ID) {
				selected = append(selected, e)
			}
		}
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	t0 := time.Now()
	var tables []experiments.Table
	for i, e := range selected {
		start := time.Now()
		progress.set(e.ID, i, len(selected), session.Runs)
		table, err := e.Run(session)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *report != "" {
			if err := writeArtifacts(*report, table); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		switch {
		case *asJSON:
			tables = append(tables, table)
		case *asCSV:
			fmt.Printf("# %s: %s\n%s\n", table.ID, table.Title, table.CSV())
		default:
			fmt.Println(table.String())
			fmt.Printf("(%s in %s)\n\n", e.ID, time.Since(start).Truncate(time.Millisecond))
		}
	}
	if *asJSON {
		out, err := json.MarshalIndent(tables, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		return
	}
	if !*asCSV {
		fmt.Printf("total: %d experiments, %d simulations, %s\n",
			len(selected), session.Runs, time.Since(t0).Truncate(time.Millisecond))
	}
}

// writeArtifacts saves one experiment's table as <dir>/<id>.md and
// <dir>/<id>.csv.
func writeArtifacts(dir string, t experiments.Table) error {
	if err := os.WriteFile(filepath.Join(dir, t.ID+".md"), []byte(t.Markdown()), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, t.ID+".csv"), []byte(t.CSV()), 0o644)
}

// progressState is the -serve endpoint's view of the experiment loop.
// Runs is sampled at experiment boundaries, keeping the scrape goroutine
// off the session's unsynchronised fields.
type progressState struct {
	mu    sync.Mutex
	phase string
	done  int
	total int
	runs  int
}

func (p *progressState) set(phase string, done, total, runs int) {
	p.mu.Lock()
	p.phase, p.done, p.total, p.runs = phase, done, total, runs
	p.mu.Unlock()
}

func (p *progressState) snapshot() metrics.Progress {
	p.mu.Lock()
	defer p.mu.Unlock()
	return metrics.Progress{Phase: p.phase, Done: p.done, Total: p.total, Runs: p.runs}
}
