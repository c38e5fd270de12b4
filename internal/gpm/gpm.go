// Package gpm models one GPU Processing Module: 32 compute units issuing
// memory operations through the Table I translation hierarchy (per-CU L1
// TLB → shared L2 TLB → cuckoo filter → last-level TLB → GMMU walkers over
// the local page table) and data hierarchy (per-CU L1 → shared L2 → local
// HBM or remote memory over the mesh). Remote translations are delegated to
// the active xlat.RemoteTranslator scheme; peer-facing services (auxiliary
// cache probes, local walks for Trans-FW, L2 TLB probes for Valkyrie) are
// exposed as methods with modelled port contention.
//
// A GPM materializes lazily: New builds only a header, and the first
// traffic builds its TLBs, MSHR files, cuckoo filters and caches (ensure).
// Those structures are most of a wafer's build cost, so a builder keeps
// them from one run to the next: Reclaim resets a finished run's headers
// in place, keeping their hierarchies and CU arrays, and Headers hands them
// to the next run of the same shape, GPM i getting back its own, with the
// freelists and wait queues it grew. Recycled and new GPMs behave
// identically.
package gpm

import (
	"hdpat/internal/config"
	"hdpat/internal/cuckoo"
	"hdpat/internal/geom"
	"hdpat/internal/sim"
	"hdpat/internal/stats"
	"hdpat/internal/tlb"
	"hdpat/internal/trace"
	"hdpat/internal/vm"
	"hdpat/internal/xlat"
)

// Stats aggregates one GPM's activity.
type Stats struct {
	OpsIssued    uint64
	OpsCompleted uint64

	L1TLBHits      uint64
	L2TLBHits      uint64
	FilterNegative uint64
	FilterPositive uint64
	FalsePositives uint64 // filter said local, GMMU walk found nothing
	LLTLBHits      uint64
	LocalWalks     uint64

	RemoteRequests uint64
	RemoteBySource [xlat.NumSources]uint64
	// RemoteLatencySum accumulates remote translation round-trip cycles
	// (request issue at the GMMU boundary to completion), for Fig 17.
	RemoteLatencySum uint64

	ProbesServed uint64
	ProbeHits    uint64

	LocalAccesses  uint64
	RemoteAccesses uint64

	// FinishTime is when the last op completed (Fig 5).
	FinishTime sim.VTime

	MSHRRetries uint64

	// CUStallCycles accumulates cycles CUs spent unable to issue because
	// their MLP window was full — the per-GPM translation-pressure signal.
	CUStallCycles uint64
}

// GPM is one GPU processing module on the wafer.
type GPM struct {
	ID    int
	Coord geom.Coord

	eng *sim.Engine
	cfg config.GPM
	ps  vm.PageSize

	// mat is set once ensure has materialized the translation and data
	// hierarchies below. A GPM that never sees traffic (no trace, no peer
	// probe, no line fetch) stays unmaterialized and costs only this
	// header — on a giant wafer running a concentrated footprint, idle
	// tiles pay nothing for TLB arrays, cuckoo tables or caches.
	mat bool
	// seed, when non-nil, runs once at materialization to populate the
	// cuckoo filter (SeedFilter); it replaces an eager ReseedFilter call
	// at build time.
	seed func(*GPM)

	// hierarchy holds the TLBs, MSHR files, cuckoo filters, caches, walkers
	// and memory stack that ensure materializes: kept from the header's last
	// run, handed over from the last run's GPM of its index, or built new.
	hierarchy
	localPT LocalTable

	// probePort serialises peer-facing translation services; local
	// translations have priority in the paper's model, approximated here by
	// the port charging only peer traffic.
	probePort sim.Line

	// Remote is the active translation scheme (set by the system builder).
	Remote xlat.RemoteTranslator
	// Fetch retrieves cachelines from owner GPMs' memories; the fetched
	// line arrives via FillLine.
	Fetch LineFetcher
	// ReqPool leases remote-translation requests (set by the system
	// builder to the run-wide pool).
	ReqPool *xlat.RequestPool
	// NextReqID allocates wafer-unique translation request ids.
	NextReqID func() uint64
	// Trace, when non-nil, receives one request span per remote translation
	// (issue at the GMMU boundary to completion) — the lifecycle anchor the
	// attribution ledger stitches walk/queue/hop spans onto.
	Trace *trace.Tracer
	// Shootdowns, when non-nil, is the wafer's shootdown ledger; the fabric
	// sets it at its first shootdown. Remote completions, pushes and on-path
	// caching consult it before filling (Shootdowns.Raced).
	Shootdowns *Shootdowns

	cus      []cuState
	gap      sim.VTime
	onFinish func(id int, at sim.VTime)
	running  int // CUs still working

	// remoteLat is the distribution of remote translation round trips, the
	// cycles RemoteLatencySum totals.
	remoteLat stats.Histogram

	Stats Stats
}

// LocalTable is a GMMU's local page table: the mappings whose frames live
// in the GPM's own HBM. The system builder passes the GPM's owner view of
// the wafer's one page table (vm.Placement.Local).
type LocalTable interface {
	Lookup(vm.VPN) (vm.PTE, bool)
	Contains(vm.VPN) bool
	Len() int
}

// New builds a GPM header with the given configuration. The local page
// table must already be populated by the placement layer. The translation
// and data hierarchies (TLB arrays, cuckoo filter, caches, HBM model) are
// NOT built here — ensure materializes them on the first request, so a
// giant wafer's idle tiles allocate nothing.
func New(eng *sim.Engine, id int, coord geom.Coord, cfg config.GPM, ps vm.PageSize, localPT LocalTable) *GPM {
	return &GPM{
		ID: id, Coord: coord, eng: eng, cfg: cfg, ps: ps,
		localPT: localPT,
	}
}

// ensure materializes the GPM's translation and data hierarchies on first
// use. Every traffic entry point (local issue, peer probe, remote walk,
// line fetch, shootdown) funnels through here; pure stat readers
// (TLBStats, AuxLen, AuxStats) deliberately do not, so assembling results
// never defeats the laziness.
//
// The hierarchy is the one the header kept or was handed (Headers),
// reset when its run handed it back, or else new. Either way the local-page-table
// filter is then fitted to this GPM's page count, reusing the kept storage
// when it is large enough, so a recycled GPM is indistinguishable from a
// new one.
func (g *GPM) ensure() {
	if g.mat {
		return
	}
	g.mat = true
	if g.l2TLB == nil {
		g.hierarchy = newHierarchy(g.cfg)
	}
	if keys := g.localPT.Len()*2 + 64; g.filter == nil || !g.filter.Refit(keys) {
		g.filter = cuckoo.New(keys)
	}
	if g.seed != nil {
		seed := g.seed
		g.seed = nil
		seed(g)
	}
}

// SeedFilter registers fn to populate the cuckoo filter when the GPM
// materializes (typically via ReseedFilter). The system builder uses this
// instead of seeding eagerly so idle tiles never enumerate their local
// pages; fn runs at most once.
func (g *GPM) SeedFilter(fn func(*GPM)) {
	if g.mat {
		fn(g)
		return
	}
	g.seed = fn
}

// TLBLevels names the TLB levels TLBStats reports, in its order: "l1"
// aggregated over all CU-private instances, "l2", "ll" (the last-level
// GMMU cache) and "aux" (the auxiliary translation cache).
var TLBLevels = [...]string{"l1", "l2", "ll", "aux"}

// TLBStats returns this GPM's per-level TLB statistics in TLBLevels order,
// all zero for an unmaterialized GPM. The attribution layer's TLB section
// and the metrics publisher read hit rates and lookup volumes through this
// seam.
func (g *GPM) TLBStats() (s [len(TLBLevels)]tlb.Stats) {
	if !g.mat {
		return s
	}
	for _, t := range g.l1TLBs {
		s[0].Add(t.Stats)
	}
	s[1], s[2], s[3] = g.l2TLB.Stats, g.llTLB.Stats, g.aux.Stats()
	return s
}

// RemoteLatency returns the distribution of this GPM's remote translation
// round trips: cycles from issue at the GMMU boundary to completion.
func (g *GPM) RemoteLatency() *stats.Histogram { return &g.remoteLat }

// ReseedFilter inserts the VPNs of all locally mapped pages into the cuckoo
// filter, as the GMMU does when the driver installs the local page table.
// The page table itself has no iterator by design (hardware walks it, it
// does not enumerate), so the system builder calls this per region chunk
// after allocation.
func (g *GPM) ReseedFilter(pid vm.PID, vpns []vm.VPN) {
	g.ensure()
	for _, v := range vpns {
		g.filter.Insert(filterKey(tlb.Key{PID: pid, VPN: v}))
	}
}

// Aux exposes the auxiliary cache to schemes, materializing on demand.
// Result assembly reads aux occupancy through AuxLen/AuxStats instead,
// which stay nil-safe and never materialize.
func (g *GPM) Aux() *AuxCache {
	g.ensure()
	return g.aux
}

// AuxLen reports the auxiliary cache's live entry count; zero for an
// unmaterialized GPM.
func (g *GPM) AuxLen() int {
	if !g.mat {
		return 0
	}
	return g.aux.Len()
}

// AuxStats reports the auxiliary cache's TLB counters; all zero for an
// unmaterialized GPM.
func (g *GPM) AuxStats() tlb.Stats {
	if !g.mat {
		return tlb.Stats{}
	}
	return g.aux.Stats()
}

// VisitEntries calls fn with every valid cached translation, labelled by
// its TLBLevels level: the per-CU L1 TLBs, the L2 TLB, the last-level TLB
// and the auxiliary cache. Like the stat readers it never materializes:
// an unmaterialized GPM caches nothing, so it visits nothing.
func (g *GPM) VisitEntries(fn func(level string, pte vm.PTE)) {
	if !g.mat {
		return
	}
	visit := func(level string, t *tlb.TLB) {
		t.Visit(func(pte vm.PTE) { fn(level, pte) })
	}
	for _, t := range g.l1TLBs {
		visit(TLBLevels[0], t)
	}
	visit(TLBLevels[1], g.l2TLB)
	visit(TLBLevels[2], g.llTLB)
	visit(TLBLevels[3], g.aux.tlb)
}

// Engine returns the shared simulation engine.
func (g *GPM) Engine() *sim.Engine { return g.eng }

// PageSize returns the system page size.
func (g *GPM) PageSize() vm.PageSize { return g.ps }

// Translate resolves va for the given CU, invoking done with the PTE. The
// closure-compat form of the op state machine (op.go); the CU issue path
// drives ops directly without a per-op callback.
func (g *GPM) Translate(cu int, va vm.VAddr, done func(vm.PTE)) {
	g.ensure()
	o := g.getOp(cu, va)
	o.doneT = done
	o.startTranslate()
}

// completeL2 resolves an outstanding L2 TLB miss and wakes one stalled
// request per freed MSHR register. With cache false (a translation that
// raced a shootdown) the waiters use pte without filling their L1 TLBs.
func (g *GPM) completeL2(k tlb.Key, pte vm.PTE, cache bool) {
	g.l2MSHR.Complete(k, pte, cache)
	if g.l2TLBWait.Len() > 0 {
		w := g.l2TLBWait.Pop()
		w.state = opRetryL2
		g.eng.Post(1, w, sim.EventArg{})
	}
}

func (g *GPM) finishLocal(k tlb.Key, pte vm.PTE) {
	g.l2TLB.Insert(pte)
	g.completeL2(k, pte, true)
}

// RequestDone implements xlat.Completer: the scheme resolved a remote
// translation this GPM issued. Fills the L2 TLB unless the translation raced
// a shootdown of its page, wakes the waiting ops, and drops the creator
// reference — the request recycles once any still-running scheme legs
// release theirs.
func (g *GPM) RequestDone(req *xlat.Request, res xlat.Result) {
	done := g.eng.Now()
	issued := req.Issued
	g.Stats.RemoteBySource[res.Source]++
	g.Stats.RemoteLatencySum += uint64(done - issued)
	g.remoteLat.Add(uint64(done - issued))
	g.Trace.RequestSpan(uint64(issued), uint64(done), req.ID, int(res.Source), g.ID)
	k := tlb.Key{PID: req.PID, VPN: req.VPN}
	cache := !g.Shootdowns.Raced(k, issued)
	if cache {
		g.l2TLB.Insert(res.PTE)
	}
	g.completeL2(k, res.PTE, cache)
	req.Unref()
}

// --- Peer-facing services -------------------------------------------------

// PeerWaiter receives the answer of a peer-facing service (ProbeAux,
// ProbeL2TLB, WalkForPeer): the PTE, how an aux-cache entry arrived (zero
// for the other two services), and whether the service found one. Schemes
// pass pooled legs that are their own waiters, so a probe allocates
// nothing; PeerFunc adapts a closure for cold paths and tests.
type PeerWaiter interface {
	PeerDone(pte vm.PTE, origin xlat.PushOrigin, ok bool)
}

// PeerFunc adapts a closure to PeerWaiter.
type PeerFunc func(pte vm.PTE, origin xlat.PushOrigin, ok bool)

// PeerDone implements PeerWaiter.
func (f PeerFunc) PeerDone(pte vm.PTE, origin xlat.PushOrigin, ok bool) { f(pte, origin, ok) }

// peerKind names the service a peerOp performs when its event fires.
type peerKind uint8

const (
	peerAux   peerKind = iota // aux cuckoo filter, then aux lookup
	peerL2TLB                 // shared L2 TLB peek
	peerWalk                  // local page-table walk
)

// peerOp is one peer-facing service in flight: a pooled state machine that
// is its own event handler, fired when the port or walker frees, and that
// answers its waiter.
type peerOp struct {
	g    *GPM
	k    tlb.Key
	w    PeerWaiter
	kind peerKind
}

// servePeer schedules service kind for k at cycle at.
func (g *GPM) servePeer(kind peerKind, k tlb.Key, w PeerWaiter, at sim.VTime) {
	p := g.peers.Get()
	*p = peerOp{g: g, k: k, w: w, kind: kind}
	g.eng.PostAt(at, p, sim.EventArg{})
}

// Event performs the service and answers the waiter. The op is released
// first, so a waiter may start another service at once.
func (p *peerOp) Event(sim.EventArg) {
	g, k, w, kind := p.g, p.k, p.w, p.kind
	g.peers.Put(p)
	switch kind {
	case peerAux:
		if !g.aux.MightHave(k) {
			w.PeerDone(vm.PTE{}, 0, false)
			return
		}
		pte, origin, ok := g.aux.Probe(k)
		if ok {
			g.Stats.ProbeHits++
		}
		w.PeerDone(pte, origin, ok)
	case peerL2TLB:
		pte, ok := g.l2TLB.Peek(k)
		if ok {
			g.Stats.ProbeHits++
		}
		w.PeerDone(pte, 0, ok)
	case peerWalk:
		pte, found := g.localPT.Lookup(k.VPN)
		w.PeerDone(pte, 0, found)
	}
}

// ProbeAux services a peer's concentric-layer probe: the probe occupies the
// GPM's translation port, checks the aux cuckoo filter and, if it might hit,
// performs the aux lookup. w receives the PTE, its push origin, and
// whether it hit.
func (g *GPM) ProbeAux(k tlb.Key, latency sim.VTime, w PeerWaiter) {
	g.ensure()
	g.Stats.ProbesServed++
	_, end := g.probePort.Occupy(g.eng.Now(), latency)
	g.servePeer(peerAux, k, w, end)
}

// ProbeL2TLB services a Valkyrie-style neighbour probe of the shared L2 TLB.
func (g *GPM) ProbeL2TLB(k tlb.Key, w PeerWaiter) {
	g.ensure()
	g.Stats.ProbesServed++
	_, end := g.probePort.Occupy(g.eng.Now(), g.l2TLB.Latency())
	g.servePeer(peerL2TLB, k, w, end)
}

// WalkForPeer services a Trans-FW remote walk against this GPM's local page
// table, modelling contention for the GMMU walker pool it shares with local
// translations.
func (g *GPM) WalkForPeer(k tlb.Key, w PeerWaiter) {
	g.ensure()
	g.Stats.LocalWalks++
	start := g.walkers.Acquire(g.eng.Now(), g.cfg.WalkCycles)
	g.servePeer(peerWalk, k, w, start+g.cfg.WalkCycles)
}

// InstallAux accepts a PTE pushed after being read from the page table at
// cycle read into the auxiliary cache, unless it raced a shootdown.
func (g *GPM) InstallAux(pte vm.PTE, origin xlat.PushOrigin, read sim.VTime) {
	g.ensure()
	if !g.Shootdowns.Raced(tlb.Key{PID: pte.PID, VPN: pte.VPN}, read) {
		g.aux.Install(pte, origin)
	}
}

// CacheOnPath installs a translation observed flowing through this GPM
// (route-based caching, §IV-B), read from the page table at cycle read,
// unless it raced a shootdown. It shares the aux structure.
func (g *GPM) CacheOnPath(pte vm.PTE, read sim.VTime) {
	g.InstallAux(pte, xlat.PushDemand, read)
}

// AddLocalMapping registers a page newly resident in this GPM's HBM (page
// migration target) with the local-page-table cuckoo filter; the page table
// itself is updated by the placement layer.
func (g *GPM) AddLocalMapping(pid vm.PID, vpn vm.VPN) {
	g.ensure()
	g.filter.Insert(filterKey(tlb.Key{PID: pid, VPN: vpn}))
}
