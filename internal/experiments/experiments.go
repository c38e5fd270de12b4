// Package experiments regenerates every table and figure of the paper's
// evaluation (§III and §V). Each experiment is addressable by the paper's
// artifact id (fig2..fig22, tab1, tab2, area) and produces a Table whose
// rows mirror what the paper reports, so EXPERIMENTS.md can record
// paper-vs-measured side by side.
//
// A Session runs the simulations. Each figure declares its runs once, as a
// list of simJobs, and hands the list to Session.runs, the one run path: it
// returns the results in declaration order, and the figure reads them by
// index. Results are memoised for the Session's lifetime on the whole run
// description (memoKey): the complete config.System, scheme, benchmark, ops
// budget, seed and migration policy, so two runs share a result only when
// every input that shapes it is equal. Jobs carrying per-call observers
// (request hooks, queue or served series, a custom benchmark) execute
// every time and are never cached. Everything not memoised runs as one
// parallel runner.Pool batch per declaration.
package experiments

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"hdpat/internal/config"
	"hdpat/internal/iommu"
	"hdpat/internal/metrics"
	"hdpat/internal/migrate"
	"hdpat/internal/runner"
	"hdpat/internal/sim"
	"hdpat/internal/stats"
	"hdpat/internal/wafer"
	"hdpat/internal/workload"
	"hdpat/internal/xlat"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row of stringified cells.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Addf appends a row formatting each value with %v (floats as %.3f).
func (t *Table) Addf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note attaches a free-form annotation printed under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c + "  ")
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured Markdown section, the
// format cmd/experiments -report writes per-experiment artifacts in. Pipes
// inside cells are escaped so free-text notes columns cannot break rows.
func (t Table) Markdown() string {
	esc := func(c string) string { return strings.ReplaceAll(c, "|", "\\|") }
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	for i, h := range t.Header {
		if i == 0 {
			b.WriteByte('|')
		}
		b.WriteString(" " + esc(h) + " |")
	}
	b.WriteByte('\n')
	for range t.Header {
		b.WriteString("|---")
	}
	b.WriteString("|\n")
	for _, r := range t.Rows {
		b.WriteByte('|')
		for _, c := range r {
			b.WriteString(" " + esc(c) + " |")
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

// Params configure a session.
type Params struct {
	// Quick restricts benchmarks and shrinks budgets for CI-speed runs.
	Quick bool
	// OpsBudget overrides the per-CU operation budget (0 = default).
	OpsBudget int
	Seed      int64
	// Benchmarks restricts the benchmark set (nil = Table II set, or the
	// quick subset under Quick).
	Benchmarks []string
	// Workers bounds the simulations a figure's batch runs in parallel
	// (<= 0 means GOMAXPROCS; 1 forces serial execution).
	Workers int
}

// Session runs experiments, memoising simulation results so figures that
// share runs (fig14..fig19 all need the baseline per benchmark) pay once.
// A Session is not goroutine-safe; parallelism lives inside runs.
type Session struct {
	P     Params
	cache map[memoKey]wafer.Result
	// Runs counts actual (non-cached) simulations, for reporting.
	Runs int
	// Metrics, when set, receives runner.* batch-throughput series from the
	// figures' batches, so a live endpoint (metrics.ListenAndServe) can
	// report progress while figures regenerate.
	Metrics *metrics.Registry
}

// NewSession creates a session.
func NewSession(p Params) *Session {
	if p.OpsBudget == 0 {
		if p.Quick {
			p.OpsBudget = 48
		} else {
			p.OpsBudget = 96
		}
	}
	return &Session{P: p, cache: make(map[memoKey]wafer.Result)}
}

// benchmarks returns the active benchmark list.
func (s *Session) benchmarks() []string {
	if len(s.P.Benchmarks) > 0 {
		return s.P.Benchmarks
	}
	if s.P.Quick {
		return []string{"AES", "BT", "FIR", "KM", "PR", "SPMV"}
	}
	return workload.Names()
}

// memoKey holds every input that shapes a simulation's result: the whole
// wafer configuration (config.System is comparable), scheme, benchmark,
// budget, seed and the migration policy by value.
type memoKey struct {
	cfg           config.System
	scheme, bench string
	opsBudget     int
	seed          int64
	// migration enables page migration when non-zero.
	migration migrate.Config
}

// simJob is one simulation's whole description: its memoKey plus the
// per-call observers. A job carrying any observer attaches state the memo
// cannot share, so it is executed every time and never cached.
type simJob struct {
	memoKey
	hooks        []iommu.RequestHook
	queueWindow  uint64
	servedWindow uint64
	// custom, when non-nil, replaces the named benchmark.
	custom *workload.Benchmark
}

// job describes scheme running bench on sys, with the scheme's settings
// applied by wafer.ConfigFor, at the session's budget and seed. An unknown
// scheme surfaces as the run's error.
func (s *Session) job(scheme, bench string, sys config.System) simJob {
	cfg, _ := wafer.ConfigFor(scheme, sys)
	return simJob{memoKey: memoKey{cfg: cfg, scheme: scheme, bench: bench,
		opsBudget: s.P.OpsBudget, seed: s.P.Seed + 1}}
}

// observed reports whether the job carries per-call state.
func (j simJob) observed() bool {
	return len(j.hooks) > 0 || j.queueWindow != 0 || j.servedWindow != 0 || j.custom != nil
}

// simulate executes the job. It touches no session state, so it runs on
// the pool's worker goroutines.
func (j simJob) simulate(ctx context.Context) (wafer.Result, error) {
	opts := wafer.Options{Scheme: j.scheme, OpsBudget: j.opsBudget, Seed: j.seed,
		Hooks: j.hooks, QueueWindow: j.queueWindow, ServedWindow: j.servedWindow}
	if j.custom != nil {
		opts.Benchmark = *j.custom
	} else {
		b, err := workload.ByAbbr(j.bench)
		if err != nil {
			return wafer.Result{}, err
		}
		opts.Benchmark = b
	}
	if j.migration != (migrate.Config{}) {
		m := j.migration
		opts.Migration = &m
	}
	return wafer.RunContext(ctx, j.cfg, opts)
}

// runs is the Session's one entry point: it returns each job's result, in
// job order. Jobs with equal keys run once, memo hits are served from the
// cache, and everything else — observer-carrying jobs included — executes
// as one parallel batch bounded by Params.Workers. Results are identical
// to serial execution; only wall-clock changes.
func (s *Session) runs(jobs []simJob) ([]wafer.Result, error) {
	out := make([]wafer.Result, len(jobs))
	slot := make([]int, len(jobs)) // job -> its task, or -1 for a memo hit
	var todo []simJob
	queued := map[memoKey]int{}
	for i, j := range jobs {
		if !j.observed() {
			if r, ok := s.cache[j.memoKey]; ok {
				out[i], slot[i] = r, -1
				continue
			}
			if t, ok := queued[j.memoKey]; ok {
				slot[i] = t
				continue
			}
			queued[j.memoKey] = len(todo)
		}
		slot[i] = len(todo)
		todo = append(todo, j)
	}
	tasks := make([]runner.Task, len(todo))
	for t, j := range todo {
		tasks[t] = j.simulate
	}
	pool := &runner.Pool{Workers: s.P.Workers, Metrics: s.Metrics}
	done := pool.Run(context.Background(), tasks)
	for t, o := range done {
		if o.Err != nil {
			return nil, fmt.Errorf("experiments: %s/%s: %w", todo[t].scheme, todo[t].bench, o.Err)
		}
		s.Runs++
		if !todo[t].observed() {
			s.cache[todo[t].memoKey] = o.Result
		}
	}
	for i, t := range slot {
		if t >= 0 {
			out[i] = done[t].Result
		}
	}
	return out, nil
}

// perBench runs the given variants on every benchmark of the session in
// one batch: out[b][v] is variants[v] on benchmark b. The variants' own
// bench fields are ignored.
func (s *Session) perBench(variants ...simJob) ([][]wafer.Result, error) {
	benches := s.benchmarks()
	jobs := make([]simJob, 0, len(benches)*len(variants))
	for _, bench := range benches {
		for _, v := range variants {
			v.bench = bench
			jobs = append(jobs, v)
		}
	}
	res, err := s.runs(jobs)
	if err != nil {
		return nil, err
	}
	out := make([][]wafer.Result, len(benches))
	for b := range out {
		out[b] = res[b*len(variants) : (b+1)*len(variants)]
	}
	return out, nil
}

// versusBaseline runs the baseline plus each named scheme on every
// benchmark on the default wafer: out[b][0] is the baseline and
// out[b][1+k] is schemes[k].
func (s *Session) versusBaseline(schemes ...string) ([][]wafer.Result, error) {
	variants := []simJob{s.job("baseline", "", config.Default())}
	for _, scheme := range schemes {
		variants = append(variants, s.job(scheme, "", config.Default()))
	}
	return s.perBench(variants...)
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(s *Session) (Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"tab1", "Configuration of wafer-scale GPUs (Table I)", Table1},
		{"tab2", "Benchmarks, workgroups and memory footprint (Table II)", Table2},
		{"fig2", "Performance headroom of idealised IOMMUs", Fig2},
		{"fig3", "IOMMU per-request latency breakdown (SPMV)", Fig3},
		{"fig4", "IOMMU buffer pressure: MCM vs wafer-scale (SPMV)", Fig4},
		{"fig5", "GPM execution time by geometric position", Fig5},
		{"fig6", "Per-page IOMMU translation counts", Fig6},
		{"fig7", "Reuse distance between repeated translations", Fig7},
		{"fig8", "Virtual-page distance of consecutive requests", Fig8},
		{"fig13", "Size invariance of IOMMU pressure (FIR)", Fig13},
		{"fig14", "Overall performance vs state of the art", Fig14},
		{"fig15", "Ablation of HDPAT techniques", Fig15},
		{"fig16", "Translation handling breakdown", Fig16},
		{"fig17", "Remote translation round-trip time and NoC traffic", Fig17},
		{"fig18", "Proactive delivery granularity", Fig18},
		{"fig19", "Redirection table vs IOMMU TLB", Fig19},
		{"fig20", "System page size sensitivity", Fig20},
		{"fig21", "Generalisation across GPU configurations", Fig21},
		{"fig22", "7x12 wafer generalisation", Fig22},
		{"area", "Area and power overhead (SV-F)", Area},
		// Extension studies beyond the paper (see ext.go); excluded from
		// the default run by RunByDefault.
		{"ext-probe", "EXT: probe dispatch policy and layer count", ExtProbePolicy},
		{"ext-threshold", "EXT: selective push threshold sweep", ExtPushThreshold},
		{"ext-ownerfw", "EXT: owner-forwarded walks what-if", ExtOwnerForward},
		{"ext-migrate", "EXT: page migration on top of HDPAT", ExtMigration},
		{"ext-migrate-micro", "EXT: migration mechanism microbenchmark", ExtMigrationMicro},
	}
}

// RunByDefault reports whether an experiment belongs to the paper's
// artifact set (run when no -run filter is given); extension studies are
// opt-in.
func RunByDefault(id string) bool {
	return len(id) < 4 || id[:4] != "ext-"
}

// ByID resolves an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q", id)
}

// IDs lists all experiment ids.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

// --- shared helpers --------------------------------------------------------

// sortedKeys returns map keys in stable order.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fmtCycles renders a cycle count compactly.
func fmtCycles(c sim.VTime) string {
	switch {
	case c >= 1_000_000:
		return fmt.Sprintf("%.2fM", float64(c)/1e6)
	case c >= 1_000:
		return fmt.Sprintf("%.1fk", float64(c)/1e3)
	}
	return fmt.Sprintf("%d", c)
}

// speedupTable adds one row per benchmark of each variant's speedup over
// that benchmark's baseline (res[b][0] is the baseline, res[b][1+k] fills
// header column 1+k), then a MEAN row. It returns the speedups by column.
func speedupTable(t *Table, benches []string, res [][]wafer.Result) [][]float64 {
	sums := make([][]float64, len(t.Header)-1)
	for b, bench := range benches {
		row := []any{bench}
		for k := range sums {
			sp := res[b][1+k].Speedup(res[b][0])
			sums[k] = append(sums[k], sp)
			row = append(row, sp)
		}
		t.Addf(row...)
	}
	meanRow := []any{"MEAN"}
	for _, xs := range sums {
		meanRow = append(meanRow, stats.Mean(xs))
	}
	t.Addf(meanRow...)
	return sums
}

func offloadPct(r wafer.Result) float64 { return 100 * r.OffloadFraction() }

func sourcePct(r wafer.Result, src xlat.Source) float64 {
	by := r.RemoteBySource()
	var tot uint64
	for _, v := range by {
		tot += v
	}
	if tot == 0 {
		return 0
	}
	return 100 * float64(by[src]) / float64(tot)
}

// MarshalJSON renders a Table as a JSON object with id, title, header,
// rows, and notes — the machine-readable form behind `experiments -json`.
func (t Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Header, t.Rows, t.Notes})
}

// CSV renders the table as RFC-4180 CSV (header + rows).
func (t Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	_ = w.Write(t.Header)
	for _, r := range t.Rows {
		_ = w.Write(r)
	}
	w.Flush()
	return b.String()
}
