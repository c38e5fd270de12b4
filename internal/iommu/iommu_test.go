package iommu

import (
	"fmt"
	"reflect"
	"testing"

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

type harness struct {
	eng  *sim.Engine
	io   *IOMMU
	id   uint64
	gpm0 geom.Coord
}

func newHarness(t *testing.T, cfg config.IOMMU, pages int) *harness {
	t.Helper()
	eng := sim.NewEngine()
	layout := geom.NewMesh(7, 7)
	mesh := noc.New(eng, layout, noc.DefaultConfig())
	global := vm.NewPageTable()
	for v := vm.VPN(1); v <= vm.VPN(pages); v++ {
		global.Insert(vm.PTE{VPN: v, PFN: vm.PFN(v + 5000), Owner: int(v) % 48, Valid: true})
	}
	io := New(eng, cfg, layout.CPU, mesh, global)
	gpm0 := geom.XY(0, 0)
	io.GPMCoord = func(id int) geom.Coord { return gpm0 }
	return &harness{eng: eng, io: io, gpm0: gpm0}
}

func (h *harness) request(v vm.VPN, done func(xlat.Result)) *xlat.Request {
	h.id++
	return xlat.NewRequest(h.id, 0, v, 0, h.eng.Now(), done)
}

func TestWalkRespondsWithCorrectPTE(t *testing.T) {
	h := newHarness(t, config.DefaultIOMMU(), 100)
	var got xlat.Result
	h.io.Submit(h.request(42, func(r xlat.Result) { got = r }), false)
	h.eng.Run()
	if got.PTE.PFN != 5042 {
		t.Fatalf("PFN = %d, want 5042", got.PTE.PFN)
	}
	if got.Source != xlat.SourceIOMMU {
		t.Errorf("source = %v", got.Source)
	}
	if h.io.Stats.Walks != 1 {
		t.Errorf("walks = %d", h.io.Stats.Walks)
	}
	// Walk latency: >= 500 walk + response mesh trip.
	pre, q, w := h.io.Stats.Breakdown.Means()
	if w != 500 || pre != 0 || q != 0 {
		t.Errorf("breakdown = %f,%f,%f; want 0,0,500", pre, q, w)
	}
}

func TestWalkerQueueing(t *testing.T) {
	cfg := config.DefaultIOMMU()
	cfg.Walkers = 1
	h := newHarness(t, cfg, 100)
	var done []sim.VTime
	for v := vm.VPN(1); v <= 3; v++ {
		h.io.Submit(h.request(v, func(xlat.Result) { done = append(done, h.eng.Now()) }), false)
	}
	h.eng.Run()
	// Serialized: walks complete at 500, 1000, 1500 (+mesh).
	if len(done) != 3 {
		t.Fatalf("completions = %d", len(done))
	}
	if done[1]-done[0] != 500 || done[2]-done[1] != 500 {
		t.Errorf("completion spacing %v; want 500 apart", done)
	}
	_, q, _ := h.io.Stats.Breakdown.Means()
	if q == 0 {
		t.Error("PTW queueing time not recorded")
	}
}

func TestAdmissionStageWhenPWQueueFull(t *testing.T) {
	cfg := config.DefaultIOMMU()
	cfg.Walkers = 1
	cfg.PWQueueCap = 2
	h := newHarness(t, cfg, 100)
	for v := vm.VPN(1); v <= 10; v++ {
		h.io.Submit(h.request(v, func(xlat.Result) {}), false)
	}
	// One request is already in service (WalkersBusy), the other nine wait
	// across the PW-queue and the admission stage; QueueDepth counts only
	// the waiters, matching Stats.PeakQueue and the sampled series.
	if h.io.QueueDepth() != 9 || h.io.WalkersBusy() != 1 {
		t.Fatalf("queue depth = %d, walkers busy = %d, want 9 and 1",
			h.io.QueueDepth(), h.io.WalkersBusy())
	}
	h.eng.Run()
	pre, _, _ := h.io.Stats.Breakdown.Means()
	if pre == 0 {
		t.Error("pre-queue time not recorded despite full PW-queue")
	}
	if h.io.Stats.PeakQueue < 8 {
		t.Errorf("peak queue = %d", h.io.Stats.PeakQueue)
	}
}

func TestRevisitCoalescesDuplicates(t *testing.T) {
	cfg := config.DefaultIOMMU()
	cfg.Walkers = 1
	cfg.Revisit = true
	h := newHarness(t, cfg, 100)
	done := 0
	for i := 0; i < 5; i++ {
		h.io.Submit(h.request(7, func(xlat.Result) { done++ }), false)
	}
	h.eng.Run()
	if done != 5 {
		t.Fatalf("completions = %d", done)
	}
	if h.io.Stats.Walks != 1 {
		t.Errorf("walks = %d, want 1 (revisit should absorb duplicates)", h.io.Stats.Walks)
	}
	if h.io.Stats.Revisits != 4 {
		t.Errorf("revisits = %d, want 4", h.io.Stats.Revisits)
	}
}

func TestNoRevisitWalksEachDuplicate(t *testing.T) {
	cfg := config.DefaultIOMMU()
	cfg.Walkers = 1
	h := newHarness(t, cfg, 100)
	for i := 0; i < 3; i++ {
		h.io.Submit(h.request(7, func(xlat.Result) {}), false)
	}
	h.eng.Run()
	if h.io.Stats.Walks != 3 {
		t.Errorf("walks = %d, want 3 without revisit", h.io.Stats.Walks)
	}
}

func TestRedirectionTableFlow(t *testing.T) {
	cfg := config.HDPATIOMMU()
	h := newHarness(t, cfg, 100)
	pushes := 0
	h.io.Push = func(pte vm.PTE, origin xlat.PushOrigin) (int, bool) {
		pushes++
		return 5, true
	}
	redirected := 0
	h.io.Redirect = func(req *xlat.Request, gpm int) {
		redirected++
		if gpm != 5 {
			t.Errorf("redirect target = %d, want 5", gpm)
		}
		// Simulate the peer serving it.
		req.Complete(xlat.Result{PTE: vm.PTE{VPN: req.VPN, PFN: 1}, Source: xlat.SourceRedirect})
	}
	// First two requests walk (threshold 2 reached on the second), which
	// pushes and installs an RT entry; the third redirects.
	for i := 0; i < 2; i++ {
		h.io.Submit(h.request(9, func(xlat.Result) {}), false)
		h.eng.Run()
	}
	if pushes == 0 {
		t.Fatal("no push after threshold crossed")
	}
	h.io.Submit(h.request(9, func(xlat.Result) {}), false)
	h.eng.Run()
	if redirected != 1 || h.io.Stats.RTRedirects != 1 {
		t.Errorf("redirected = %d, RTRedirects = %d", redirected, h.io.Stats.RTRedirects)
	}
}

func TestNoRedirectBypassesRT(t *testing.T) {
	cfg := config.HDPATIOMMU()
	h := newHarness(t, cfg, 100)
	h.io.Redirect = func(req *xlat.Request, gpm int) {
		t.Error("noRedirect request was redirected")
	}
	h.io.RT().Insert(tlb.Key{VPN: 9}, 5)
	done := false
	h.io.Submit(h.request(9, func(xlat.Result) { done = true }), true)
	h.eng.Run()
	if !done {
		t.Fatal("request not served")
	}
	if h.io.Stats.Walks != 1 {
		t.Errorf("walks = %d", h.io.Stats.Walks)
	}
}

func TestSelectivePushThreshold(t *testing.T) {
	cfg := config.HDPATIOMMU()
	cfg.PrefetchDegree = 1 // isolate demand pushes
	cfg.PushThreshold = 3
	h := newHarness(t, cfg, 100)
	pushes := 0
	h.io.Push = func(vm.PTE, xlat.PushOrigin) (int, bool) { pushes++; return 1, true }
	for i := 0; i < 2; i++ {
		h.io.Submit(h.request(11, func(xlat.Result) {}), true)
		h.eng.Run()
	}
	if pushes != 0 {
		t.Fatalf("pushed below threshold (count=2 < 3)")
	}
	h.io.Submit(h.request(11, func(xlat.Result) {}), true)
	h.eng.Run()
	if pushes != 1 {
		t.Errorf("pushes = %d after crossing threshold", pushes)
	}
	if h.io.AccessCount(tlb.Key{VPN: 11}) != 3 {
		t.Errorf("access count = %d", h.io.AccessCount(tlb.Key{VPN: 11}))
	}
}

func TestPrefetchDeliversNeighbours(t *testing.T) {
	cfg := config.HDPATIOMMU() // degree 4
	h := newHarness(t, cfg, 100)
	var pushed []vm.VPN
	var origins []xlat.PushOrigin
	h.io.Push = func(pte vm.PTE, o xlat.PushOrigin) (int, bool) {
		pushed = append(pushed, pte.VPN)
		origins = append(origins, o)
		return 2, true
	}
	h.io.Submit(h.request(20, func(xlat.Result) {}), false)
	h.eng.Run()
	// Demand push requires threshold 2; only prefetch pushes (21,22,23) fire.
	if len(pushed) != 3 {
		t.Fatalf("pushed %v", pushed)
	}
	for i, v := range []vm.VPN{21, 22, 23} {
		if pushed[i] != v || origins[i] != xlat.PushPrefetch {
			t.Errorf("push %d = %d/%v", i, pushed[i], origins[i])
		}
	}
	if h.io.Stats.Prefetches != 3 {
		t.Errorf("prefetches = %d", h.io.Stats.Prefetches)
	}
	// RT learned N+1: next request for 21 should redirect.
	if gpm, ok := h.io.RT().Lookup(tlb.Key{VPN: 21}); !ok || gpm != 2 {
		t.Errorf("RT entry for N+1: %d,%v", gpm, ok)
	}
}

func TestPrefetchChargesWalkerService(t *testing.T) {
	cfg := config.HDPATIOMMU()
	h := newHarness(t, cfg, 100)
	h.io.Submit(h.request(20, func(xlat.Result) {}), false)
	h.eng.Run()
	_, _, w := h.io.Stats.Breakdown.Means()
	want := 500 + 5*3
	if int(w) != want {
		t.Errorf("walk service = %f, want %d", w, want)
	}
}

func TestPrefetchStopsAtUnmappedPages(t *testing.T) {
	cfg := config.HDPATIOMMU()
	h := newHarness(t, cfg, 20) // pages 1..20 mapped
	pushes := 0
	h.io.Push = func(vm.PTE, xlat.PushOrigin) (int, bool) { pushes++; return 0, true }
	h.io.Submit(h.request(20, func(xlat.Result) {}), false)
	h.eng.Run()
	if pushes != 0 {
		t.Errorf("pushed %d unmapped prefetches", pushes)
	}
}

func TestIOMMUTLBVariant(t *testing.T) {
	cfg := config.HDPATIOMMU()
	cfg.UseTLB = true
	cfg.PrefetchDegree = 1
	h := newHarness(t, cfg, 100)
	done := 0
	h.io.Submit(h.request(30, func(r xlat.Result) {
		done++
		if r.Source != xlat.SourceIOMMU {
			t.Errorf("first request source %v", r.Source)
		}
	}), false)
	h.eng.Run()
	h.io.Submit(h.request(30, func(r xlat.Result) {
		done++
		if r.Source != xlat.SourceRedirect {
			t.Errorf("TLB hit source %v", r.Source)
		}
	}), false)
	h.eng.Run()
	if done != 2 {
		t.Fatalf("completions = %d", done)
	}
	if h.io.Stats.TLBHits != 1 || h.io.Stats.Walks != 1 {
		t.Errorf("tlbHits=%d walks=%d", h.io.Stats.TLBHits, h.io.Stats.Walks)
	}
}

func TestIOMMUTLBMSHRCoalesces(t *testing.T) {
	cfg := config.HDPATIOMMU()
	cfg.UseTLB = true
	cfg.PrefetchDegree = 1
	h := newHarness(t, cfg, 100)
	done := 0
	for i := 0; i < 4; i++ {
		h.io.Submit(h.request(31, func(xlat.Result) { done++ }), false)
	}
	h.eng.Run()
	if done != 4 {
		t.Fatalf("completions = %d", done)
	}
	if h.io.Stats.Walks != 1 {
		t.Errorf("walks = %d, want 1 (MSHR coalescing)", h.io.Stats.Walks)
	}
}

func TestQueueSeriesAndHooks(t *testing.T) {
	cfg := config.DefaultIOMMU()
	cfg.Walkers = 1
	h := newHarness(t, cfg, 100)
	h.io.QueueSeries = stats.NewMaxSeries(100)
	var observed []vm.VPN
	h.io.AddHook(RequestHookFunc(func(now sim.VTime, req *xlat.Request) { observed = append(observed, req.VPN) }))
	for v := vm.VPN(1); v <= 5; v++ {
		h.io.Submit(h.request(v, func(xlat.Result) {}), false)
	}
	h.eng.Run()
	if len(observed) != 5 {
		t.Errorf("hook saw %d requests", len(observed))
	}
	if h.io.QueueSeries.Peak() < 3 {
		t.Errorf("queue series peak = %f", h.io.QueueSeries.Peak())
	}
}

// A request that queued before its translation was pushed elsewhere must be
// redirected at dispatch time instead of walking (§IV-F catch-up).
func TestDispatchTimeRedirect(t *testing.T) {
	cfg := config.HDPATIOMMU()
	cfg.Walkers = 1
	cfg.PrefetchDegree = 1
	cfg.Revisit = false // isolate the dispatch-time RT path from revisit
	h := newHarness(t, cfg, 100)
	redirected := 0
	h.io.Push = func(vm.PTE, xlat.PushOrigin) (int, bool) { return 4, true }
	h.io.Redirect = func(req *xlat.Request, gpm int) {
		redirected++
		req.Complete(xlat.Result{Source: xlat.SourceRedirect})
	}
	// Fill the walker with a slow request, then enqueue two more for VPN 7
	// while the RT has no entry yet.
	h.io.Submit(h.request(7, func(xlat.Result) {}), false)
	h.io.Submit(h.request(7, func(xlat.Result) {}), false)
	h.io.Submit(h.request(7, func(xlat.Result) {}), false)
	h.eng.Run()
	// First walk completes (count 1 < threshold 2: no push). Second walk
	// completes (count 2: push + RT insert). The third, still queued, must
	// redirect at dispatch.
	if redirected != 1 {
		t.Errorf("dispatch-time redirects = %d, want 1", redirected)
	}
	if h.io.Stats.Walks != 2 {
		t.Errorf("walks = %d, want 2", h.io.Stats.Walks)
	}
}

// A queued request answered by a peer while waiting must not burn a walker.
func TestDispatchSkipsCompletedRequests(t *testing.T) {
	cfg := config.DefaultIOMMU()
	cfg.Walkers = 1
	h := newHarness(t, cfg, 100)
	var reqs []*xlat.Request
	for v := vm.VPN(1); v <= 3; v++ {
		r := h.request(v, func(xlat.Result) {})
		reqs = append(reqs, r)
		h.io.Submit(r, false)
	}
	// Complete the last queued request out of band (peer probe win).
	reqs[2].Complete(xlat.Result{Source: xlat.SourcePeer})
	h.eng.Run()
	if h.io.Stats.Walks != 2 {
		t.Errorf("walks = %d, want 2 (completed request skipped)", h.io.Stats.Walks)
	}
}

func TestRevisitLimitedToPWQueue(t *testing.T) {
	cfg := config.DefaultIOMMU()
	cfg.Walkers = 1
	cfg.PWQueueCap = 2
	cfg.Revisit = true
	h := newHarness(t, cfg, 100)
	// 6 identical requests: 1 walks, 1 waits in the PW-queue (cap 2 incl.
	// the walker's slot handling), the rest sit in admission. Revisit can
	// only absorb the PW-queue resident ones per completion, but admission
	// promotion refills the queue, so over the run all complete with fewer
	// walks than requests yet more than a single walk would suggest.
	done := 0
	for i := 0; i < 6; i++ {
		h.io.Submit(h.request(9, func(xlat.Result) { done++ }), false)
	}
	h.eng.Run()
	if done != 6 {
		t.Fatalf("completions = %d", done)
	}
	if h.io.Stats.Walks == 1 {
		t.Error("revisit absorbed admission-stage requests; it must only scan the PW-queue")
	}
	if h.io.Stats.Revisits == 0 {
		t.Error("no revisits at all")
	}
}

// sinkRecorder captures typed spans for assertions on the tracing seam.
type sinkRecorder struct {
	queues []recordedQueue
	walks  int
}

type recordedQueue struct {
	stage string
	req   uint64
	start uint64
	end   uint64
}

func (s *sinkRecorder) OnRequest(start, end uint64, req uint64, source, gpm int) {}
func (s *sinkRecorder) OnQueue(stage string, start, end uint64, req uint64) {
	s.queues = append(s.queues, recordedQueue{stage, req, start, end})
}
func (s *sinkRecorder) OnWalk(start, end uint64, req, vpn uint64)                         { s.walks++ }
func (s *sinkRecorder) OnHop(start, end uint64, fx, fy, tx, ty, size int, deflected bool) {}
func (s *sinkRecorder) OnMigration(start, end uint64, vpn uint64, from, to int)           {}

// checkConservation asserts the request accounting law: every Submit
// terminates in exactly one of the six terminal counters.
func checkConservation(t *testing.T, io *IOMMU) {
	t.Helper()
	s := io.Stats
	terminal := s.TLBHits + s.MSHRMerged + s.Walks + s.Revisits + s.RTRedirects + s.SkippedCompleted
	if s.Requests != terminal {
		t.Errorf("conservation violated: Requests=%d, terminal sum=%d (tlb=%d merged=%d walks=%d revisits=%d redirects=%d skipped=%d)",
			s.Requests, terminal, s.TLBHits, s.MSHRMerged, s.Walks, s.Revisits, s.RTRedirects, s.SkippedCompleted)
	}
}

// The dispatch skip path must emit the skipped job's queue-residency spans
// and count it, or its queue time vanishes from traces and the conservation
// law breaks.
func TestDispatchSkipEmitsQueueSpans(t *testing.T) {
	cfg := config.DefaultIOMMU()
	cfg.Walkers = 1
	h := newHarness(t, cfg, 100)
	rec := &sinkRecorder{}
	h.io.Trace = trace.Attach(nil, rec)
	var reqs []*xlat.Request
	for v := vm.VPN(1); v <= 3; v++ {
		r := h.request(v, func(xlat.Result) {})
		reqs = append(reqs, r)
		h.io.Submit(r, false)
	}
	// Complete the last queued request out of band (peer probe win).
	reqs[2].Complete(xlat.Result{Source: xlat.SourcePeer})
	h.eng.Run()
	if h.io.Stats.SkippedCompleted != 1 {
		t.Fatalf("SkippedCompleted = %d, want 1", h.io.Stats.SkippedCompleted)
	}
	found := false
	for _, q := range rec.queues {
		if q.req == reqs[2].ID && q.stage == "iommu.pwq" {
			found = true
			if q.end <= q.start {
				t.Errorf("skipped request's pwq span [%d,%d] is empty", q.start, q.end)
			}
		}
	}
	if !found {
		t.Errorf("no iommu.pwq span for the skipped request %d; spans: %+v", reqs[2].ID, rec.queues)
	}
	checkConservation(t, h.io)
}

// MSHR merges must be counted so request accounting stays exact: coalesced
// arrivals terminate in MSHRMerged, primaries in Walks.
func TestIOMMUTLBMergeAccounting(t *testing.T) {
	cfg := config.HDPATIOMMU()
	cfg.UseTLB = true
	cfg.PrefetchDegree = 1
	h := newHarness(t, cfg, 100)
	done := 0
	for i := 0; i < 4; i++ {
		h.io.Submit(h.request(31, func(xlat.Result) { done++ }), false)
	}
	h.eng.Run()
	if done != 4 {
		t.Fatalf("completions = %d", done)
	}
	if h.io.Stats.Walks != 1 || h.io.Stats.MSHRMerged != 3 {
		t.Errorf("walks=%d merged=%d, want 1 and 3", h.io.Stats.Walks, h.io.Stats.MSHRMerged)
	}
	checkConservation(t, h.io)
}

// Blocked arrivals (full MSHRs) must drain as walks complete registers, with
// every request terminating in exactly one counter: blocking itself is not
// terminal, so MSHRBlocked does not appear in the conservation sum.
func TestTLBWaitDrainAccounting(t *testing.T) {
	cfg := config.HDPATIOMMU()
	cfg.UseTLB = true
	cfg.TLBMSHRs = 2
	cfg.Walkers = 1
	cfg.PrefetchDegree = 1
	h := newHarness(t, cfg, 100)
	done := 0
	// VPNs 1,2,3,1,2: two primaries fill both registers, VPN 3 blocks in
	// tlbWait, the trailing duplicates merge into the live registers.
	for _, v := range []vm.VPN{1, 2, 3, 1, 2} {
		h.io.Submit(h.request(v, func(xlat.Result) { done++ }), false)
	}
	h.eng.Run()
	if done != 5 {
		t.Fatalf("completions = %d, want 5 (blocked arrival stranded?)", done)
	}
	if h.io.tlbWait.Len() != 0 {
		t.Errorf("tlbWait not drained: %d waiters left", h.io.tlbWait.Len())
	}
	if h.io.Stats.MSHRBlocked == 0 {
		t.Error("expected at least one MSHR-blocked arrival")
	}
	if h.io.Stats.MSHRMerged != 2 || h.io.Stats.Walks != 3 {
		t.Errorf("merged=%d walks=%d, want 2 and 3", h.io.Stats.MSHRMerged, h.io.Stats.Walks)
	}
	if h.io.ioMSHR.Used() != 0 {
		t.Errorf("MSHR registers leaked: %d still used", h.io.ioMSHR.Used())
	}
	checkConservation(t, h.io)
}

// revisit → completeTLBMSHR interplay: a revisited PW-queue job's register
// completion must fire the register's callbacks AND drain tlbWait while it is
// non-empty, freeing blocked arrivals even though no walker finished.
func TestRevisitCompletesMSHRAndDrainsTLBWait(t *testing.T) {
	cfg := config.HDPATIOMMU()
	cfg.UseTLB = true
	cfg.TLBMSHRs = 2
	cfg.Walkers = 1
	cfg.PrefetchDegree = 1
	cfg.Revisit = true
	h := newHarness(t, cfg, 100)
	done := 0
	// VPN 9 occupies the walker; VPN 5 holds the second register and waits in
	// the PW-queue; VPN 7 blocks on full MSHRs.
	for _, v := range []vm.VPN{9, 5, 7} {
		h.io.Submit(h.request(v, func(xlat.Result) { done++ }), false)
	}
	h.eng.RunUntil(10) // past TLB latency, before the 500-cycle walk completes
	if h.io.WalkersBusy() != 1 || h.io.pwq.Len() != 1 || h.io.tlbWait.Len() != 1 {
		t.Fatalf("setup: busy=%d pwq=%d tlbWait=%d, want 1/1/1",
			h.io.WalkersBusy(), h.io.pwq.Len(), h.io.tlbWait.Len())
	}
	// A same-key walk completes elsewhere: revisit the PW-queue for VPN 5.
	pte, ok := h.io.global.Lookup(5)
	if !ok {
		t.Fatal("page 5 unmapped")
	}
	h.io.revisit(tlb.Key{VPN: 5}, pte, true)
	if h.io.Stats.Revisits != 1 {
		t.Fatalf("revisits = %d, want 1", h.io.Stats.Revisits)
	}
	if h.io.pwq.Len() == 0 {
		t.Fatal("revisit emptied the PW-queue: the drained tlbWait arrival should have re-enqueued")
	}
	if h.io.tlbWait.Len() != 0 {
		t.Fatalf("tlbWait not drained by the revisit's register completion: %d left", h.io.tlbWait.Len())
	}
	h.eng.Run()
	if done != 3 {
		t.Fatalf("completions = %d, want 3", done)
	}
	// VPN 5 never walked: its register was completed by the revisit.
	if h.io.Stats.Walks != 2 {
		t.Errorf("walks = %d, want 2 (VPNs 9 and 7 only)", h.io.Stats.Walks)
	}
	checkConservation(t, h.io)
}

// queueStorage returns the address of q's ring buffer.
func queueStorage(q *sim.Queue[*job]) uintptr {
	return reflect.ValueOf(q).Elem().FieldByName("buf").Pointer()
}

// A reset IOMMU behaves as a new one: traffic cut off mid-run, then the
// same traffic run in full after Reset, delivers the results, Stats and
// latency histogram a new IOMMU delivers, in both front-end variants
// (redirection table, IOMMU-TLB), while the queues, access-count map and
// redirection table keep their storage.
func TestResetMatchesNew(t *testing.T) {
	tlbCfg := config.HDPATIOMMU()
	tlbCfg.UseTLB, tlbCfg.TLBMSHRs = true, 2
	for _, c := range []struct {
		name string
		cfg  config.IOMMU
	}{{"rt", config.HDPATIOMMU()}, {"tlb", tlbCfg}} {
		cfg := c.cfg
		t.Run(c.name, func(t *testing.T) {
			cfg.Walkers, cfg.PWQueueCap = 1, 4
			layout := geom.NewMesh(7, 7)
			global := vm.NewPageTable()
			for v := vm.VPN(1); v <= 64; v++ {
				global.Insert(vm.PTE{VPN: v, PFN: vm.PFN(v + 5000), Owner: int(v) % 48, Valid: true})
			}
			// drive submits 48 requests over 24 pages, runs the engine to
			// cycle until and returns what was delivered by then.
			drive := func(eng *sim.Engine, io *IOMMU, until sim.VTime) []string {
				var got []string
				io.GPMCoord = func(id int) geom.Coord { return layout.GPMs()[id] }
				io.Push = func(pte vm.PTE, _ xlat.PushOrigin) (int, bool) { return int(pte.VPN) % 48, true }
				io.Redirect = func(req *xlat.Request, gpm int) {
					got = append(got, fmt.Sprintf("%d: %d redirected to %d", eng.Now(), req.VPN, gpm))
					req.Complete(xlat.Result{PTE: vm.PTE{VPN: req.VPN}, Source: xlat.SourceRedirect})
				}
				for i := range 48 {
					v := vm.VPN(i*7%24 + 1)
					req := xlat.NewRequest(uint64(i), 0, v, i%48, 0, func(r xlat.Result) {
						got = append(got, fmt.Sprintf("%d: %d -> %d from %v", eng.Now(), v, r.PTE.PFN, r.Source))
					})
					io.Submit(req, false)
				}
				eng.RunUntil(until)
				return got
			}

			eng := sim.NewEngine()
			mesh := noc.New(eng, layout, noc.DefaultConfig())
			fresh := New(eng, cfg, layout.CPU, mesh, global)
			want := drive(eng, fresh, sim.Infinity)

			eng = sim.NewEngine()
			mesh = noc.New(eng, layout, noc.DefaultConfig())
			io := New(eng, cfg, layout.CPU, mesh, global)
			drive(eng, io, 3000)
			if io.QueueDepth()+io.tlbWait.Len() == 0 {
				t.Fatal("the cut-off run left no queued job")
			}
			queues := [3]uintptr{queueStorage(&io.admission), queueStorage(&io.pwq), queueStorage(&io.tlbWait)}
			counts, rt := reflect.ValueOf(io.counts).Pointer(), io.table
			eng.Reset()
			mesh.Reset(eng, layout, noc.DefaultConfig())
			io.Reset(eng, cfg, layout.CPU, mesh, global)
			if got := [3]uintptr{queueStorage(&io.admission), queueStorage(&io.pwq), queueStorage(&io.tlbWait)}; got != queues {
				t.Errorf("queue storage %v after Reset, %v before", got, queues)
			}
			if reflect.ValueOf(io.counts).Pointer() != counts {
				t.Error("Reset replaced the access-count map")
			}
			if !cfg.UseTLB && (io.rt != &io.table || cap(rt.slots) == 0 || &io.table.slots[:1][0] != &rt.slots[:1][0] ||
				reflect.ValueOf(io.table.index).Pointer() != reflect.ValueOf(rt.index).Pointer()) {
				t.Error("Reset replaced the redirection table's storage")
			}
			got := drive(eng, io, sim.Infinity)

			if !reflect.DeepEqual(got, want) {
				t.Errorf("a reset IOMMU delivered\n%v\na new one\n%v", got, want)
			}
			if !reflect.DeepEqual(io.Stats, fresh.Stats) {
				t.Errorf("Stats after Reset %+v, new %+v", io.Stats, fresh.Stats)
			}
			if !reflect.DeepEqual(io.Latency(), fresh.Latency()) {
				t.Error("the latency histogram after Reset differs from a new IOMMU's")
			}
		})
	}
}
