// Package iommu models the central Input-Output Memory Management Unit on
// the CPU tile: the admission (pre-queue) stage, the bounded PW-queue, the
// shared page-table walkers, and the HDPAT extensions of Fig 12 — the
// redirection table, the PW-queue revisit, selective auxiliary pushes, and
// proactive page-entry delivery. The Fig 19 variant replaces the redirection
// table with an area-equivalent blocking TLB.
package iommu

import (
	"hdpat/internal/config"
	"hdpat/internal/geom"
	"hdpat/internal/noc"
	"hdpat/internal/sim"
	"hdpat/internal/stats"
	"hdpat/internal/tlb"
	"hdpat/internal/trace"
	"hdpat/internal/vm"
	"hdpat/internal/xlat"
)

// RequestHook observes every translation request arriving at the IOMMU.
// Hooks are observation points only: they run synchronously at arrival time
// and must not schedule events or complete requests, so an attached hook
// never perturbs simulation results. It replaces the old Observer field;
// characterisation trackers, served-rate series and tests all attach here.
type RequestHook interface {
	IOMMURequest(now sim.VTime, req *xlat.Request)
}

// RequestHookFunc adapts a function to the RequestHook interface.
type RequestHookFunc func(now sim.VTime, req *xlat.Request)

// IOMMURequest implements RequestHook.
func (f RequestHookFunc) IOMMURequest(now sim.VTime, req *xlat.Request) { f(now, req) }

// Stats aggregates IOMMU activity.
type Stats struct {
	Requests     uint64 // translation requests reaching the IOMMU
	Walks        uint64 // page table walks performed
	RTRedirects  uint64 // requests redirected via the redirection table
	TLBHits      uint64 // IOMMU-TLB variant hits
	Revisits     uint64 // queued duplicates served by a completed walk
	Prefetches   uint64 // PTEs resolved proactively
	PushesDemand uint64
	PushesPref   uint64
	MSHRBlocked  uint64 // IOMMU-TLB variant: arrivals blocked on full MSHRs
	// MSHRMerged counts IOMMU-TLB variant arrivals coalesced into an
	// outstanding miss register: they complete with the register's walk
	// without enqueueing. Together with TLBHits, Walks, RTRedirects,
	// Revisits and SkippedCompleted it makes request accounting exact:
	// every Submit terminates in exactly one of those six counters.
	MSHRMerged uint64
	// SkippedCompleted counts PW-queue entries dispatched after their
	// request had already been completed elsewhere (the concurrent-probe
	// race): they vacate the queue without burning a walker.
	SkippedCompleted uint64

	// Breakdown decomposes per-walk latency (Fig 3).
	Breakdown stats.BreakdownAccumulator
	// PeakQueue is the highest combined admission+PW-queue depth observed.
	PeakQueue int
}

// jobState names the stage a pooled IOMMU job resumes at when its next
// event fires; the stages mirror the closure chain they replaced one for
// one, so dispatch order and results are unchanged.
type jobState uint8

const (
	jobQueued  jobState = iota // waiting in admission/PW-queue (no event pending)
	jobRTProbe                 // redirection-table check after its latency
	jobTLBTry                  // IOMMU-TLB access after its latency
	jobWalk                    // page-table walk completes at this event
	jobMerged                  // IOMMU-TLB variant: coalesced, waiting on Fill
)

// job is one translation request's residency at the IOMMU: a pooled state
// machine that is its own event handler (sim.Handler) and, in the Fig 19
// variant, its own MSHR waiter (tlb.Filler). The job takes one reference on
// the request at Submit and holds it until its terminal action, so request
// identity fields stay coherent even on the late paths (SkippedCompleted,
// redirects of already-answered requests) — id/pid/vpn are also snapshotted
// so queue traces never depend on request lifetime.
type job struct {
	io  *IOMMU
	req *xlat.Request

	id  uint64
	pid vm.PID
	vpn vm.VPN

	arrived    sim.VTime // at the IOMMU
	enqueued   sim.VTime // into the PW-queue
	started    sim.VTime // walk start
	service    sim.VTime // walk service time
	noRedirect bool
	state      jobState
}

// release ends the job: recycle it and drop its request reference. Called
// exactly once, at the job's terminal action.
func (j *job) release() {
	io, req := j.io, j.req
	io.jobs.Put(j)
	req.Unref()
}

// Event resumes the job at its recorded stage.
func (j *job) Event(sim.EventArg) {
	switch j.state {
	case jobRTProbe:
		j.probeRT()
	case jobTLBTry:
		j.tryTLB()
	case jobWalk:
		j.io.walkDone(j)
	}
}

// resp carries one completion across the mesh back to the requester: a
// pooled delivery handler holding its own request reference for the
// transit. Result is too wide for an EventArg, hence the carrier object.
type resp struct {
	io  *IOMMU
	req *xlat.Request
	res xlat.Result
}

// Event fires at mesh arrival: deliver the completion and recycle.
func (r *resp) Event(sim.EventArg) {
	io, req, res := r.io, r.req, r.res
	io.resps.Put(r)
	req.Complete(res)
	req.Unref()
}

// IOMMU is the central translation agent. An IOMMU belongs to one run on
// one goroutine; a builder that runs one IOMMU after another can Reset the
// same IOMMU for each, so a run reuses the carriers, queues, tables and
// histogram the last one grew. The tables hold no pointers.
type IOMMU struct {
	eng    *sim.Engine
	cfg    config.IOMMU
	coord  geom.Coord
	mesh   *noc.Mesh
	global *vm.PageTable

	// GPMCoord maps a GPM index to its tile, for routing responses.
	GPMCoord func(id int) geom.Coord

	admission sim.Queue[*job]
	pwq       sim.Queue[*job]
	busy      int

	// rt is table while the redirection table is enabled, else nil; table
	// keeps its storage through runs without one.
	rt      *RedirectTable
	table   RedirectTable
	iotlb   *tlb.TLB
	ioMSHR  *tlb.MSHR
	tlbWait sim.Queue[*job]    // arrivals blocked on full IOMMU-TLB MSHRs
	counts  map[tlb.Key]uint32 // per-PTE access counts ("unused PTE bits")
	rtProbe sim.VTime          // redirection table / TLB check latency

	// jobs and resps recycle the job and response carriers; served collects
	// the jobs one revisit serves.
	jobs   sim.Freelist[job]
	resps  sim.Freelist[resp]
	served []*job

	// Push delivers a walked or prefetched PTE to auxiliary GPM caches.
	// It returns the GPM chosen (for the redirection table) and whether a
	// push happened. Nil when the active scheme has no peer caching.
	Push func(pte vm.PTE, origin xlat.PushOrigin) (gpm int, ok bool)
	// Redirect forwards a redirected request to the given GPM. Nil when
	// redirection is disabled.
	Redirect func(req *xlat.Request, gpm int)
	// QueueSeries, when set, records combined queue depth over time (Fig 4).
	QueueSeries *stats.TimeSeries
	// Trace, when non-nil, receives queue-residency and walk spans.
	Trace *trace.Tracer

	// hooks observe arriving requests in registration order (AddHook).
	hooks []RequestHook
	// latency is the distribution of arrival-to-walk-completion cycles.
	latency stats.Histogram

	Stats Stats
}

// AddHook registers h to observe every request arriving at the IOMMU.
func (io *IOMMU) AddHook(h RequestHook) {
	if h != nil {
		io.hooks = append(io.hooks, h)
	}
}

// New builds an IOMMU on the CPU tile.
func New(eng *sim.Engine, cfg config.IOMMU, coord geom.Coord, mesh *noc.Mesh, global *vm.PageTable) *IOMMU {
	io := new(IOMMU)
	io.Reset(eng, cfg, coord, mesh, global)
	return io
}

// Reset returns io to the state New(eng, cfg, coord, mesh, global) returns,
// keeping its carriers and the storage of its queues, access-count map,
// redirection table and histogram. Reset io only once its last run is
// done.
func (io *IOMMU) Reset(eng *sim.Engine, cfg config.IOMMU, coord geom.Coord, mesh *noc.Mesh, global *vm.PageTable) {
	io.admission.Clear()
	io.pwq.Clear()
	io.tlbWait.Clear()
	counts := io.counts
	if counts == nil {
		counts = make(map[tlb.Key]uint32)
	}
	clear(counts)
	clear(io.hooks)
	io.latency.Reset()
	*io = IOMMU{
		eng: eng, cfg: cfg, coord: coord, mesh: mesh, global: global,
		admission: io.admission, pwq: io.pwq, tlbWait: io.tlbWait,
		table: io.table, counts: counts, rtProbe: 1,
		jobs: io.jobs, resps: io.resps, served: io.served,
		hooks: io.hooks[:0], latency: io.latency,
	}
	if cfg.UseTLB {
		io.iotlb = tlb.New(tlb.Config{Sets: cfg.TLBSets, Ways: cfg.TLBWays, MSHRs: cfg.TLBMSHRs, Latency: 1})
		io.ioMSHR = tlb.NewMSHR(cfg.TLBMSHRs)
	} else if cfg.RedirectEntries > 0 {
		io.rt = &io.table
		io.rt.Reset(cfg.RedirectEntries)
	}
}

// Coord returns the IOMMU's tile.
func (io *IOMMU) Coord() geom.Coord { return io.coord }

// RT exposes the redirection table (nil if disabled), for stats.
func (io *IOMMU) RT() *RedirectTable { return io.rt }

// QueueDepth returns the combined admission + PW-queue depth: requests
// waiting for a walker, excluding the ones already in service (those are
// WalkersBusy). This is the one definition of "combined queue depth" shared
// by Stats.PeakQueue, the iommu.queue.depth gauge, the Fig 4 QueueSeries and
// the attribution sampler's iommu.queue_depth series — it used to include
// in-service walks while the recorded series did not, so the sampled series
// disagreed with every other depth signal.
func (io *IOMMU) QueueDepth() int { return io.admission.Len() + io.pwq.Len() }

// WalkersBusy returns the number of walkers currently in service — a
// sampler probe for walker-occupancy time series.
func (io *IOMMU) WalkersBusy() int { return io.busy }

// Latency returns the distribution of walk latencies: cycles from a
// request's arrival at the IOMMU to the completion of its walk. Requests
// that end without a walk are not in it.
func (io *IOMMU) Latency() *stats.Histogram { return &io.latency }

// TLBStats reports the IOMMU-TLB's counters; ok is false when this IOMMU
// has no TLB (every variant but the Fig 19 one).
func (io *IOMMU) TLBStats() (s tlb.Stats, ok bool) {
	if io.iotlb == nil {
		return s, false
	}
	return io.iotlb.Stats, true
}

// traceQueue emits the admission- and PW-queue residency spans for a job
// leaving the queue stages at time until, whatever path it leaves by (walk
// start, revisit service, or redirection).
func (io *IOMMU) traceQueue(j *job, until sim.VTime) {
	if io.Trace == nil {
		return
	}
	if j.enqueued > j.arrived {
		io.Trace.QueueSpan("iommu.admission", uint64(j.arrived), uint64(j.enqueued), j.id)
	}
	if until > j.enqueued {
		io.Trace.QueueSpan("iommu.pwq", uint64(j.enqueued), uint64(until), j.id)
	}
}

// noteQueue records the combined waiting depth (QueueDepth's definition)
// into Stats.PeakQueue and the Fig 4 series.
func (io *IOMMU) noteQueue() {
	d := io.QueueDepth()
	if d > io.Stats.PeakQueue {
		io.Stats.PeakQueue = d
	}
	if io.QueueSeries != nil {
		io.QueueSeries.Record(uint64(io.eng.Now()), float64(d))
	}
}

// Submit receives a translation request that has arrived at the CPU tile.
// noRedirect marks a request bounced back from a failed redirection, which
// must walk rather than consult the redirection table again. Submit takes
// one reference on req for the job it creates; callers only need req live
// across the call itself.
func (io *IOMMU) Submit(req *xlat.Request, noRedirect bool) {
	io.Stats.Requests++
	for _, h := range io.hooks {
		h.IOMMURequest(io.eng.Now(), req)
	}
	req.Ref()
	j := io.jobs.Get()
	*j = job{io: io, req: req, id: req.ID, pid: req.PID, vpn: req.VPN,
		arrived: io.eng.Now(), noRedirect: noRedirect}

	switch {
	case io.iotlb != nil:
		// Fig 19 variant front-end: a conventional TLB whose MSHRs block
		// admission when exhausted.
		j.state = jobTLBTry
		io.eng.Post(io.iotlb.Latency(), j, sim.EventArg{})
	case io.rt != nil && !noRedirect:
		j.state = jobRTProbe
		io.eng.Post(io.rtProbe, j, sim.EventArg{})
	default:
		io.enqueue(j)
	}
}

// probeRT is the post-latency redirection-table check at admission.
func (j *job) probeRT() {
	io := j.io
	if gpm, ok := io.rt.Lookup(tlb.Key{PID: j.pid, VPN: j.vpn}); ok && io.Redirect != nil {
		io.Stats.RTRedirects++
		io.Redirect(j.req, gpm)
		j.release()
		return
	}
	io.enqueue(j)
}

// tryTLB is the post-latency TLB access body; it runs synchronously so the
// drain loop in completeTLBMSHR can observe register consumption.
func (j *job) tryTLB() {
	io := j.io
	k := tlb.Key{PID: j.pid, VPN: j.vpn}
	if pte, ok := io.iotlb.Lookup(k); ok {
		io.Stats.TLBHits++
		io.respond(j.req, xlat.Result{PTE: pte, Source: xlat.SourceRedirect})
		j.release()
		return
	}
	primary, ok := io.ioMSHR.Allocate(k, j)
	if !ok {
		// All MSHRs occupied: the request stalls outside the TLB (§V-E)
		// until a register frees.
		io.Stats.MSHRBlocked++
		io.tlbWait.Push(j)
		return
	}
	if primary {
		// The walk's completion fills the TLB and drains the MSHR rather
		// than responding directly; this job's own response arrives through
		// its Fill like every merged waiter's.
		j.state = jobQueued
		io.enqueue(j)
		return
	}
	// Coalesced into an outstanding register: the request completes with
	// that register's walk, never enqueueing itself.
	io.Stats.MSHRMerged++
	j.state = jobMerged
}

// Fill implements tlb.Filler for the IOMMU-TLB variant: the MSHR register
// this job waits on resolved. Merged jobs end here; the primary is still
// mid-walkDone and releases there.
func (j *job) Fill(pte vm.PTE, found bool) {
	if found {
		j.io.respond(j.req, xlat.Result{PTE: pte, Source: xlat.SourceIOMMU})
	}
	if j.state == jobMerged {
		j.release()
	}
}

func (io *IOMMU) enqueue(j *job) {
	if io.pwq.Len() < io.cfg.PWQueueCap {
		j.enqueued = io.eng.Now()
		io.pwq.Push(j)
	} else {
		io.admission.Push(j)
	}
	io.noteQueue()
	io.dispatch()
}

func (io *IOMMU) dispatch() {
	for io.busy < io.cfg.Walkers && io.pwq.Len() > 0 {
		j := io.pwq.Pop()
		io.promote()
		// A request already answered by a peer cache while it queued (the
		// concurrent-probe race) must not burn a walker. In the IOMMU-TLB
		// variant the walk serves the whole MSHR register (merged waiters
		// included), not just this request, so it must proceed regardless.
		// The job still spent real cycles queued: emit its residency spans
		// (they postdate the request's completion — the attribution ledger
		// counts them as late rather than stitching them) and account for it,
		// or the queue time silently vanishes from traces and conservation.
		if io.iotlb == nil && j.req.Completed() {
			io.Stats.SkippedCompleted++
			io.traceQueue(j, io.eng.Now())
			j.release()
			continue
		}
		// The redirection table sits in front of the walkers (Fig 12): a
		// request that queued before its translation completed elsewhere is
		// caught here instead of burning a walker — the "requests quickly
		// catch up to recently completed translations" behaviour of §IV-F.
		if io.rt != nil && !j.noRedirect && io.Redirect != nil {
			k := tlb.Key{PID: j.pid, VPN: j.vpn}
			if gpm, ok := io.rt.Lookup(k); ok {
				io.Stats.RTRedirects++
				io.traceQueue(j, io.eng.Now())
				io.Redirect(j.req, gpm)
				j.release()
				continue
			}
		}
		io.busy++
		start := io.eng.Now()
		service := io.cfg.WalkCycles
		if io.cfg.PrefetchDegree > 1 {
			service += io.cfg.PrefetchExtraCycles * sim.VTime(io.cfg.PrefetchDegree-1)
		}
		j.started, j.service = start, service
		j.state = jobWalk
		io.eng.PostAt(start+service, j, sim.EventArg{})
	}
}

// promote moves admission-stage jobs into freed PW-queue slots.
func (io *IOMMU) promote() {
	for io.admission.Len() > 0 && io.pwq.Len() < io.cfg.PWQueueCap {
		j := io.admission.Pop()
		j.enqueued = io.eng.Now()
		io.pwq.Push(j)
	}
}

func (io *IOMMU) walkDone(j *job) {
	started, service := j.started, j.service
	io.busy--
	io.Stats.Walks++
	io.Stats.Breakdown.Add(
		uint64(j.enqueued-j.arrived),
		uint64(started-j.enqueued),
		uint64(service),
	)
	io.latency.Add(uint64(io.eng.Now() - j.arrived))
	io.traceQueue(j, started)
	if io.Trace != nil {
		io.Trace.WalkSpan(uint64(started), uint64(started+service), j.id, uint64(j.vpn))
	}
	k := tlb.Key{PID: j.pid, VPN: j.vpn}
	pte, found := io.global.Lookup(k.VPN)
	io.counts[k]++

	if io.iotlb != nil {
		if found {
			io.iotlb.Insert(pte)
		}
		io.completeTLBMSHR(k, pte, found)
	} else {
		src := xlat.SourceIOMMU
		io.respond(j.req, xlat.Result{PTE: pte, Source: src})
	}

	if io.cfg.Revisit {
		io.revisit(k, pte, found)
	}

	// Selective push of the demand-walked PTE (§IV-F): only translations
	// whose access count crossed the threshold earn auxiliary cache space.
	pushedTo := -1
	if found && io.Push != nil && io.counts[k] >= io.cfg.PushThreshold {
		if gpm, ok := io.Push(pte, xlat.PushDemand); ok {
			io.Stats.PushesDemand++
			pushedTo = gpm
		}
	}
	if io.rt != nil && pushedTo >= 0 {
		io.rt.Insert(k, pushedTo)
	}

	// Proactive page-entry delivery (§IV-G): resolve the next degree-1
	// sequential PTEs (their cost was charged into this walk's service) and
	// push them outward; the redirection table learns N+1.
	if io.cfg.PrefetchDegree > 1 {
		for d := 1; d < io.cfg.PrefetchDegree; d++ {
			nk := tlb.Key{PID: k.PID, VPN: k.VPN + vm.VPN(d)}
			npte, nfound := io.global.Lookup(nk.VPN)
			if !nfound {
				continue
			}
			io.Stats.Prefetches++
			if io.iotlb != nil {
				io.iotlb.Insert(npte)
				continue
			}
			if io.Push != nil {
				if gpm, ok := io.Push(npte, xlat.PushPrefetch); ok {
					io.Stats.PushesPref++
					if io.rt != nil && d == 1 {
						io.rt.Insert(nk, gpm)
					}
				}
			}
		}
	}

	io.promote()
	io.noteQueue()
	io.dispatch()
	j.release()
}

// revisit serves queued duplicates of a just-completed walk (§IV-F step 6;
// the Barre mechanism): identical requests pending in the PW-queue respond
// immediately and vacate it. Only the PW-queue is scanned — requests still
// in the admission stage are outside the walker's reach, which is exactly
// why the PW-queue's size bounds this mechanism's benefit (§V-B).
func (io *IOMMU) revisit(k tlb.Key, pte vm.PTE, found bool) {
	if !found {
		return
	}
	// One turn of the ring compacts the queue in order: every job is
	// popped, and the ones that do not match are pushed back.
	served := io.served[:0]
	for n := io.pwq.Len(); n > 0; n-- {
		j := io.pwq.Pop()
		if j.pid == k.PID && j.vpn == k.VPN {
			served = append(served, j)
			continue
		}
		io.pwq.Push(j)
	}
	// Serve matches only after the queue is compacted: completing an
	// IOMMU-TLB register drains tlbWait, and a drained arrival may
	// re-enqueue into the PW-queue — pushing into io.pwq mid-turn would
	// put it among the jobs still to be scanned.
	for _, j := range served {
		io.Stats.Revisits++
		io.traceQueue(j, io.eng.Now())
		if io.iotlb != nil {
			io.completeTLBMSHR(tlb.Key{PID: j.pid, VPN: j.vpn}, pte, true)
		} else {
			io.respond(j.req, xlat.Result{PTE: pte, Source: xlat.SourceIOMMU})
		}
		j.release()
	}
	clear(served)
	io.served = served[:0]
}

// completeTLBMSHR resolves an IOMMU-TLB miss register, then drains blocked
// arrivals while registers remain free. Waiters that now hit the TLB or
// merge into another register consume nothing, so draining continues until
// one allocates or the queue empties — preventing stranded requests when
// the last outstanding walk completes.
func (io *IOMMU) completeTLBMSHR(k tlb.Key, pte vm.PTE, found bool) {
	io.ioMSHR.Complete(k, pte, found)
	for io.tlbWait.Len() > 0 && io.ioMSHR.Used() < io.ioMSHR.Capacity() {
		io.tlbWait.Pop().tryTLB()
	}
}

// respond routes a completion back to the requesting GPM over the mesh via
// a pooled carrier holding its own request reference for the transit.
func (io *IOMMU) respond(req *xlat.Request, res xlat.Result) {
	req.Ref()
	r := io.resps.Get()
	*r = resp{io: io, req: req, res: res}
	io.mesh.SendH(io.coord, io.GPMCoord(req.Requester), xlat.RespBytes, r, sim.EventArg{})
}

// AccessCount returns the recorded demand count for a page (tests).
func (io *IOMMU) AccessCount(k tlb.Key) uint32 { return io.counts[k] }

// Invalidate drops all state the IOMMU holds for the given keys: redirect
// table entries, IOMMU-TLB entries (Fig 19 variant), and the per-PTE access
// counters. It is the IOMMU-side half of a TLB shootdown.
func (io *IOMMU) Invalidate(keys []tlb.Key) {
	for _, k := range keys {
		if io.rt != nil {
			io.rt.Remove(k)
		}
		if io.iotlb != nil {
			io.iotlb.Invalidate(k)
		}
		delete(io.counts, k)
	}
}
