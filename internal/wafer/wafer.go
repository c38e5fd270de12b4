// Package wafer assembles a complete simulated system — mesh, GPMs, IOMMU,
// placement, translation scheme, workload traces — runs it to completion
// and returns a Result with everything the evaluation figures need.
package wafer

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"hdpat/internal/attr"
	"hdpat/internal/check"
	"hdpat/internal/config"
	"hdpat/internal/core"
	"hdpat/internal/geom"
	"hdpat/internal/gpm"
	"hdpat/internal/iommu"
	"hdpat/internal/metrics"
	"hdpat/internal/migrate"
	"hdpat/internal/noc"
	"hdpat/internal/schemes"
	"hdpat/internal/sim"
	"hdpat/internal/stats"
	"hdpat/internal/tlb"
	"hdpat/internal/trace"
	"hdpat/internal/vm"
	"hdpat/internal/workload"
	"hdpat/internal/xlat"
)

// ErrUnknownScheme is returned (wrapped with the offending name) when a
// scheme is not one of SchemeNames(); match it with errors.Is.
var ErrUnknownScheme = errors.New("unknown scheme")

// SchemeNames lists every runnable scheme.
func SchemeNames() []string {
	return []string{
		"baseline", "route", "concentric", "distributed", "cluster",
		"redirect", "prefetch", "hdpat", "transfw", "valkyrie", "barre",
		"iommutlb", "ownerfw",
	}
}

// ConfigFor returns base with its IOMMU configured as the named scheme
// requires (redirection table, revisit, prefetch degree). Callers may
// further override individual fields afterwards (sensitivity sweeps).
func ConfigFor(scheme string, base config.System) (config.System, error) {
	io := base.IOMMU
	io.RedirectEntries = 0
	io.Revisit = false
	io.PrefetchDegree = 1
	io.UseTLB = false
	switch scheme {
	case "baseline", "route", "concentric", "distributed", "cluster", "valkyrie", "ownerfw":
	case "transfw":
		// Remote forwarding short-circuits the cross-wafer pointer chases
		// of the walk's leaf levels (see schemes.TransFW).
		io.WalkCycles = io.WalkCycles * 3 / 5
	case "barre":
		io.Revisit = true
	case "redirect":
		io.RedirectEntries = 1024
		io.Revisit = true
	case "prefetch":
		io.PrefetchDegree = 4
	case "hdpat":
		io.RedirectEntries = 1024
		io.Revisit = true
		io.PrefetchDegree = 4
	case "iommutlb":
		io.UseTLB = true
		io.Revisit = true
		io.PrefetchDegree = 4
	default:
		return base, fmt.Errorf("wafer: %w %q", ErrUnknownScheme, scheme)
	}
	base.IOMMU = io
	return base, nil
}

// Options parameterise one run.
type Options struct {
	Scheme    string
	Benchmark workload.Benchmark
	// OpsBudget is the approximate per-CU operation count (default 96).
	OpsBudget int
	Seed      int64
	// MaxCycles aborts runaway simulations (default 200M cycles).
	MaxCycles sim.VTime
	// QueueWindow, when nonzero, attaches a max-depth IOMMU queue series
	// with this window (Fig 4).
	QueueWindow uint64
	// ServedWindow, when nonzero, attaches a count series of IOMMU-arriving
	// requests with this window (Fig 13).
	ServedWindow uint64
	// Hooks see every request arriving at the IOMMU, in order
	// (characterisation figures attach trackers). Replaces the former
	// single-callback Observer field.
	Hooks []iommu.RequestHook
	// Metrics, when non-nil, receives the run's sim.*, noc.*, tlb.*,
	// iommu.*, gpm.*, migrate.* and run.* series, derived from the
	// components' Stats after every engine slice of at most 65,536
	// simulated cycles and once more when the run ends; the run's
	// final snapshot lands on Result.Metrics. Nil publishes nothing and
	// costs nothing per event.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives cycle-domain spans (IOMMU walks and
	// queueing, NoC hops, migrations). Tracing only observes; a traced run
	// is cycle-for-cycle identical to an untraced one.
	Trace *trace.Tracer
	// Attribution, when non-nil, attaches the per-request latency ledger
	// (internal/attr): the run's Breakdown lands on Result.Breakdown. Works
	// with or without Trace; like the other observers it never perturbs
	// results.
	Attribution *attr.Config
	// Invariants attaches the internal/check invariant checker through the
	// observation seams (request hook, trace sink, sampler, link visitor)
	// and wraps the scheme in check.Scheme, which checks every remote
	// translation's frame against the global page table. Violations come
	// back as errors naming the invariant, request and cycle, joined onto
	// the run error. Results are byte-identical with the checker on or off.
	// With Migration enabled the frame check still runs: a stale frame
	// passes only as a race with a migration of its page.
	Invariants bool
	// Migration, when non-nil, enables the page-migration extension with
	// the given policy (see internal/migrate).
	Migration *migrate.Config
}

// Result is everything a run produces.
type Result struct {
	Scheme    string
	Benchmark string
	Cycles    sim.VTime

	GPMCoords []geom.Coord
	GPMFinish []sim.VTime
	GPMStats  []gpm.Stats

	IOMMU iommu.Stats
	NoC   noc.Stats

	QueueSeries  *stats.TimeSeries
	ServedSeries *stats.TimeSeries

	TotalOps uint64

	// Events is the number of discrete events the kernel dispatched for
	// this run — the denominator of events-per-second throughput
	// reporting (see docs/performance.md).
	Events uint64

	// AuxLen and AuxStats aggregate the auxiliary caches across GPMs at the
	// end of the run (diagnostics).
	AuxLen   int
	AuxStats tlb.Stats

	// Deprecated: always empty. Translation correctness is checked by
	// Options.Invariants, whose violations join the run error. The field
	// stays because stored run JSON carries its key, and dropping it would
	// change the bytes of every stored artifact.
	ValidationErrors []string

	// Migration reports page-migration activity when the extension is on.
	Migration migrate.Stats

	// Metrics is the run's final registry snapshot when Options.Metrics was
	// set (nil otherwise).
	Metrics *metrics.Snapshot

	// Breakdown is the per-request latency attribution when
	// Options.Attribution was set (nil otherwise).
	Breakdown *attr.Breakdown
}

// RemoteBySource aggregates per-source remote translation counts.
func (r Result) RemoteBySource() [xlat.NumSources]uint64 {
	var out [xlat.NumSources]uint64
	for i := range r.GPMStats {
		for s := 0; s < xlat.NumSources; s++ {
			out[s] += r.GPMStats[i].RemoteBySource[s]
		}
	}
	return out
}

// RemoteRequests returns total remote translation requests.
func (r Result) RemoteRequests() uint64 {
	var n uint64
	for i := range r.GPMStats {
		n += r.GPMStats[i].RemoteRequests
	}
	return n
}

// OffloadFraction returns the share of remote translations served without
// an IOMMU walk (the paper's 42.1 % metric).
func (r Result) OffloadFraction() float64 {
	by := r.RemoteBySource()
	var off, tot uint64
	for s := 0; s < xlat.NumSources; s++ {
		tot += by[s]
		if xlat.Source(s).Offloaded() {
			off += by[s]
		}
	}
	if tot == 0 {
		return 0
	}
	return float64(off) / float64(tot)
}

// AvgRemoteLatency returns the mean remote translation round-trip in cycles
// (Fig 17).
func (r Result) AvgRemoteLatency() float64 {
	var sum, n uint64
	for i := range r.GPMStats {
		sum += r.GPMStats[i].RemoteLatencySum
		n += r.GPMStats[i].RemoteRequests
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Speedup returns base.Cycles / r.Cycles.
func (r Result) Speedup(base Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// Run builds and executes one simulation. It is RunContext with a
// background context.
func Run(cfg config.System, opts Options) (Result, error) {
	return RunContext(context.Background(), cfg, opts)
}

// ctxCheckInterval is how many simulated cycles RunContext executes between
// cancellation checks. Small enough that cancellation lands promptly even on
// short runs; large enough that the per-check cost vanishes in the noise.
const ctxCheckInterval = 1 << 16

// runEngine executes events with time <= limit, checking ctx and
// publishing pub's metrics between slices of at most ctxCheckInterval
// cycles. Slicing does not perturb event order, so results are identical
// to a single RunUntil(limit) call.
func runEngine(ctx context.Context, eng *sim.Engine, limit sim.VTime, pub *publisher) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		next, ok := eng.NextTime()
		if !ok {
			return nil
		}
		if next > limit {
			// The run logically advanced to limit even though no event at or
			// before it remains: close out any sampler windows in
			// (last event, limit] that the sliced RunUntil calls never saw.
			eng.FlushSamples(limit)
			return nil
		}
		slice := next + ctxCheckInterval
		if slice > limit || slice < next { // min(limit, ...), overflow-safe
			slice = limit
		}
		eng.RunUntil(slice)
		pub.publish()
	}
}

// RunContext builds and executes one simulation, aborting with ctx.Err()
// when ctx is cancelled mid-run (checked between engine slices; a cancelled
// run returns a zero Result). The run takes a recycling store from the
// process-wide list, holds it alone, and hands it back when it ends, so the
// next run, on this goroutine or another, builds only what this one did
// not; recycled runs are byte-identical to fresh ones. The store keeps
// everything the last run built: its event queue, geometry, page
// placement and page table, mesh, IOMMU, fabric freelists, GPM headers
// (each with its local page table, CU array and hierarchy), request pool
// and line-fetch freelist. Each part resets itself in place for the next
// run. A run of the same wafer shape takes the headers back, GPM i its own,
// and one of another shape builds new headers, header i taking the
// hierarchy and CU array GPM i kept. A run that completes or stops at its
// cycle limit hands back everything, each materialized header with its
// hierarchy reset and the others with none; a cancelled run hands back
// everything but its headers, a panicked run nothing it built. The run
// draws its traces from the process-wide trace table, which keeps a set
// once its key is asked for twice and shares it with every later run.
func RunContext(ctx context.Context, cfg config.System, opts Options) (Result, error) {
	s := takeStore()
	panicked := true
	defer func() {
		if panicked {
			s = new(store)
		}
		giveStore(s)
	}()
	res, gpms, err := s.run(ctx, cfg, opts)
	panicked = false
	if gpms != nil {
		gpm.Reclaim(gpms)
		s.gpms = gpms
	}
	s.eng.Reset()
	return res, err
}

// run builds and executes one simulation on what s holds. It returns the
// GPMs only when the run reached its end or its cycle limit, the runs whose
// headers are worth handing back.
func (s *store) run(ctx context.Context, cfg config.System, opts Options) (Result, []*gpm.GPM, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, nil, err
	}
	// Keep footprint:capacity ratios at their Table II values (see
	// config.ApplyScale).
	cfg = cfg.ApplyScale()
	if opts.OpsBudget <= 0 {
		opts.OpsBudget = 96
	}
	if opts.MaxCycles == 0 {
		opts.MaxCycles = 200_000_000
	}
	if opts.Scheme == "" {
		opts.Scheme = "baseline"
	}
	layout := s.geometry(cfg.MeshW, cfg.MeshH)
	eng := &s.eng
	network := &s.mesh
	network.Reset(eng, layout, cfg.NoC)
	numGPMs := layout.NumGPMs()

	// The attribution ledger rides the tracer seam: Attach fans typed spans
	// out to the collector (sink-only when no trace output was requested),
	// and the resulting tracer replaces opts.Trace at every component. The
	// invariant checker stacks onto the same seam via the tracer's sink
	// composition.
	tr := opts.Trace
	var coll *attr.Collector
	if opts.Attribution != nil {
		coll = attr.NewCollector(*opts.Attribution)
		tr = trace.Attach(tr, coll)
	}
	sampleWindow := uint64(attr.DefaultWindow)
	if coll != nil {
		sampleWindow = coll.Window()
	}
	var chk *check.Checker
	if opts.Invariants {
		chk = check.New(sampleWindow)
		tr = trace.Attach(tr, chk)
	}
	network.Trace = tr

	placement := s.place(numGPMs, cfg.PageSize)
	regions := map[string]vm.Region{}
	for _, rs := range opts.Benchmark.Regions(cfg.WorkloadScale, numGPMs, cfg.PageSize) {
		regions[rs.Name] = placement.Alloc(rs.Name, rs.Pages, 0)
	}

	// Filter seeding is deferred: the seed enumerates the GPM's local pages
	// only if the GPM ever materializes, so idle tiles of a giant wafer
	// never build a VPN list or a populated cuckoo table. Region ownership
	// is static, so a deferred seed observes the same pages an eager one
	// would; regions are walked in allocation order, so the filter's
	// insertion order never depends on map iteration.
	gpms := gpm.Headers(s.gpms, eng, layout.GPMs(), cfg.GPM, cfg.PageSize,
		func(i int) gpm.LocalTable { return placement.Local(i) })
	s.gpms = nil
	seed := func(g *gpm.GPM) {
		// The GPMs take turns with one buffer, sized to the pages this
		// one owns.
		vpns := slices.Grow(s.vpns[:0], placement.Local(g.ID).Len())
		for _, r := range placement.Regions() {
			lo, hi := r.OwnerSlice(g.ID, numGPMs)
			for p := lo; p < hi; p++ {
				vpns = append(vpns, r.Start+vm.VPN(p))
			}
		}
		g.ReseedFilter(0, vpns)
		s.vpns = vpns
	}
	for _, g := range gpms {
		g.SeedFilter(seed)
	}

	io := &s.iommu
	io.Reset(eng, cfg.IOMMU, layout.CPU, network, placement.Global())
	io.GPMCoord = func(id int) geom.Coord { return gpms[id].Coord }
	io.Trace = tr
	if coll != nil || chk != nil {
		// One link walk serves the collector's and the checker's probes.
		links := func(v attr.LinkVisitor) {
			network.VisitLinks(func(c geom.Coord, dir string, busy sim.VTime) {
				v(c.X, c.Y, dir, uint64(busy))
			})
		}
		if coll != nil {
			coll.Probes(io.QueueDepth, io.WalkersBusy, links)
		}
		if chk != nil {
			io.AddHook(chk)
			chk.Probes(links)
		}
		// Periodic sampler: queue-depth, walker-occupancy and link-busy
		// series once per window, fired between events so the event queue
		// and dispatch order are untouched. The collector and checker share
		// one window, so the checker audits exactly the boundaries the
		// series record.
		eng.AttachSampler(sim.VTime(sampleWindow), func(at sim.VTime) {
			if coll != nil {
				coll.Sample(uint64(at))
			}
			if chk != nil {
				chk.Sample(uint64(at))
			}
		})
	}
	if opts.QueueWindow > 0 {
		io.QueueSeries = stats.NewMaxSeries(opts.QueueWindow)
	}
	var served *stats.TimeSeries
	if opts.ServedWindow > 0 {
		served = stats.NewCountSeries(opts.ServedWindow)
		io.AddHook(iommu.RequestHookFunc(func(now sim.VTime, req *xlat.Request) {
			served.Record(uint64(now), 1)
		}))
	}
	for _, h := range opts.Hooks {
		io.AddHook(h)
	}

	fabric := &s.fabric
	fabric.Reset()
	fabric.Eng, fabric.Mesh, fabric.Layout = eng, network, layout
	fabric.GPMs, fabric.IOMMU, fabric.Placement = gpms, io, placement

	scheme, err := buildScheme(opts.Scheme, fabric, cfg.HDPAT)
	if err != nil {
		return Result{}, nil, err
	}
	if chk != nil {
		scheme = &check.Scheme{Inner: scheme, Global: placement.Global(), Eng: eng, Checker: chk}
	}
	var migrator *migrate.Manager
	if opts.Migration != nil {
		migrator = migrate.New(fabric, *opts.Migration)
		migrator.Trace = tr
		scheme = migrator.Wrap(scheme)
	}

	// Wire GPMs. The request pool serves one run at a time, shared across
	// its GPMs: sharing maximises reuse, and handing it only from a run
	// that has ended to the next keeps recycled objects away from parallel
	// runs (a global pool would hand one run's recycled request to another
	// while stale readers remain).
	var reqID uint64
	nextID := func() uint64 { reqID++; return reqID }
	reqPool := &s.requests
	fetch := &fetcher{mesh: network, gpms: gpms, free: &s.fetches}
	for _, g := range gpms {
		g.Remote = scheme
		g.NextReqID = nextID
		g.Trace = tr
		g.ReqPool = reqPool
		g.Fetch = fetch
	}

	// Load traces and start.
	var totalOps uint64
	err = loadTraces(ctx, opts.Benchmark, cfg.WorkloadScale, workload.Context{
		Regions: regions, PageSize: cfg.PageSize, NumGPMs: numGPMs, NumCUs: cfg.GPM.NumCUs,
		OpsBudget: opts.OpsBudget, Seed: opts.Seed,
	}, func(i, cu int, tr []vm.VAddr) {
		totalOps += uint64(len(tr))
		gpms[i].LoadTrace(cu, tr)
	})
	if err != nil {
		return Result{}, nil, err
	}
	finished := 0
	onFinish := func(int, sim.VTime) { finished++ }
	for _, g := range gpms {
		g.Start(sim.VTime(opts.Benchmark.Gap), onFinish)
	}

	pub := newPublisher(opts.Metrics, fabric, migrator, cfg.IOMMU.Walkers)
	err = runEngine(ctx, eng, opts.MaxCycles, pub)
	if err == nil && finished == numGPMs {
		// Drain stragglers (late miss responses etc.) for accurate NoC stats.
		err = runEngine(ctx, eng, sim.Infinity, pub)
	}
	pub.publish()
	if err != nil {
		return Result{}, nil, err
	}
	var runErr error
	if finished < numGPMs {
		runErr = fmt.Errorf("wafer: %s/%s finished %d/%d GPMs by cycle limit %d",
			opts.Scheme, opts.Benchmark.Abbr, finished, numGPMs, opts.MaxCycles)
	}

	res := Result{
		Scheme: scheme.Name(), Benchmark: opts.Benchmark.Abbr,
		IOMMU: io.Stats, NoC: network.Stats,
		QueueSeries: io.QueueSeries, ServedSeries: served,
		TotalOps: totalOps,
		Events:   eng.Processed,
	}
	if migrator != nil {
		res.Migration = migrator.Stats
	}
	// Structure-of-arrays assembly at exact capacity: one allocation per
	// parallel column, no append growth — at 900+ GPMs the growth slack of
	// three appending slices is real memory.
	res.GPMCoords = make([]geom.Coord, numGPMs)
	res.GPMFinish = make([]sim.VTime, numGPMs)
	res.GPMStats = make([]gpm.Stats, numGPMs)
	for i, g := range gpms {
		res.AuxLen += g.AuxLen()
		res.AuxStats.Add(g.AuxStats())
		res.GPMCoords[i] = g.Coord
		res.GPMFinish[i] = g.Stats.FinishTime
		res.GPMStats[i] = g.Stats
		if g.Stats.FinishTime > res.Cycles {
			res.Cycles = g.Stats.FinishTime
		}
	}
	if reg := opts.Metrics; reg != nil {
		reg.Gauge("run.cycles").Set(int64(res.Cycles))
		reg.Gauge("run.total_ops").Set(int64(totalOps))
		res.Metrics = reg.Snapshot()
	}
	if coll != nil {
		for _, g := range gpms {
			for i, s := range g.TLBStats() {
				coll.AddTLB(gpm.TLBLevels[i], s.Hits, s.Misses)
			}
		}
		res.Breakdown = coll.Finalize(res.Scheme, res.Benchmark, uint64(res.Cycles))
	}
	if chk != nil {
		var latSum uint64
		for i := range res.GPMStats {
			latSum += res.GPMStats[i].RemoteLatencySum
		}
		f := check.Final{
			Cycle:       uint64(eng.Now()),
			Settled:     finished == numGPMs,
			QueueDepth:  io.QueueDepth(),
			WalkersBusy: io.WalkersBusy(),
			IOMMU:       io.Stats,
			NoC:         network.Stats,
			ExactHops:   cfg.NoC.Routing != noc.RoutingDeflect,
			RemoteReqs:  res.RemoteRequests(), RemoteLatencySum: latSum,
			Breakdown: res.Breakdown,
			Entries: func(v check.EntryVisitor) {
				for _, g := range gpms {
					g.VisitEntries(func(level string, pte vm.PTE) { v(g.ID, level, pte) })
				}
				io.VisitTLB(func(pte vm.PTE) { v(-1, "tlb", pte) })
			},
			Global: placement.Global(),
		}
		if err := chk.Finish(f); err != nil {
			runErr = errors.Join(runErr, err)
		}
	}
	return res, gpms, runErr
}

func buildScheme(name string, f *core.Fabric, h config.HDPAT) (xlat.RemoteTranslator, error) {
	switch name {
	case "baseline":
		return schemes.NewNaive(f), nil
	case "barre":
		return schemes.NewBarre(f), nil
	case "transfw":
		return schemes.NewTransFW(f), nil
	case "ownerfw":
		return schemes.NewOwnerFW(f), nil
	case "valkyrie":
		return schemes.NewValkyrie(f), nil
	case "route":
		return core.NewRoute(f, h), nil
	case "concentric":
		return core.NewConcentric(f, h), nil
	case "distributed":
		return core.NewDistributed(f, h), nil
	case "cluster", "redirect", "prefetch", "hdpat", "iommutlb":
		return core.NewHDPAT(f, h), nil
	}
	return nil, fmt.Errorf("wafer: %w %q", ErrUnknownScheme, name)
}
