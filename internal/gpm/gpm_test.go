package gpm

import (
	"testing"

	"hdpat/internal/config"
	"hdpat/internal/geom"
	"hdpat/internal/sim"
	"hdpat/internal/tlb"
	"hdpat/internal/vm"
	"hdpat/internal/xlat"
)

// fakeRemote resolves every request instantly from a reference table.
type fakeRemote struct {
	table map[vm.VPN]vm.PTE
	calls int
	delay sim.VTime
	eng   *sim.Engine
}

func (f *fakeRemote) Name() string { return "fake" }
func (f *fakeRemote) Translate(req *xlat.Request) {
	f.calls++
	pte := f.table[req.VPN]
	f.eng.Post(f.delay, sim.HandlerFunc(func() {
		req.Complete(xlat.Result{PTE: pte, Source: xlat.SourceIOMMU})
	}), sim.EventArg{})
}

// testGPM builds a GPM owning pages [0,64) of a 128-page space; the rest is
// remote. Returns the gpm, engine, and the remote stub.
func testGPM(t *testing.T) (*GPM, *sim.Engine, *fakeRemote) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := config.MI100GPM()
	cfg.NumCUs = 2
	cfg.MLP = 4
	localPT := vm.NewPageTable()
	remote := &fakeRemote{table: map[vm.VPN]vm.PTE{}, eng: eng, delay: 100}
	var localVPNs []vm.VPN
	for v := vm.VPN(1); v < 129; v++ {
		pte := vm.PTE{VPN: v, PFN: vm.PFN(v + 1000), Owner: 0, Valid: true}
		if v < 65 {
			localPT.Insert(pte)
			localVPNs = append(localVPNs, v)
		} else {
			pte.Owner = 1
			remote.table[v] = pte
		}
	}
	g := New(eng, 0, geom.XY(1, 1), cfg, vm.Page4K, localPT)
	g.ReseedFilter(0, localVPNs)
	g.Remote = remote
	g.ReqPool = xlat.NewRequestPool()
	id := uint64(0)
	g.NextReqID = func() uint64 { id++; return id }
	g.Fetch = fetchFunc(func(requester *GPM, owner int, line uint64) {
		eng.Post(200, sim.HandlerFunc(func() { requester.FillLine(line) }), sim.EventArg{})
	})
	return g, eng, remote
}

// fetchFunc adapts a closure to LineFetcher for tests.
type fetchFunc func(requester *GPM, owner int, line uint64)

func (f fetchFunc) FetchLine(requester *GPM, owner int, line uint64) {
	f(requester, owner, line)
}

func addr(v vm.VPN) vm.VAddr { return vm.Page4K.Base(v) }

func TestTranslateLocalWalk(t *testing.T) {
	g, eng, remote := testGPM(t)
	var got vm.PTE
	g.Translate(0, addr(5), func(p vm.PTE) { got = p })
	eng.Run()
	if got.PFN != 1005 {
		t.Fatalf("PFN = %d, want 1005", got.PFN)
	}
	if remote.calls != 0 {
		t.Error("local translation went remote")
	}
	if g.Stats.LocalWalks != 1 || g.Stats.FilterPositive != 1 {
		t.Errorf("stats %+v", g.Stats)
	}
}

func TestTranslateL1Caching(t *testing.T) {
	g, eng, _ := testGPM(t)
	n := 0
	g.Translate(0, addr(5), func(vm.PTE) { n++ })
	eng.Run()
	g.Translate(0, addr(5)+64, func(vm.PTE) { n++ })
	eng.Run()
	if n != 2 {
		t.Fatalf("completions = %d", n)
	}
	if g.Stats.L1TLBHits != 1 {
		t.Errorf("second access should hit L1 TLB: %+v", g.Stats)
	}
	if g.Stats.LocalWalks != 1 {
		t.Errorf("walks = %d, want 1", g.Stats.LocalWalks)
	}
}

func TestTranslateRemoteViaFilterNegative(t *testing.T) {
	g, eng, remote := testGPM(t)
	var got vm.PTE
	start := eng.Now()
	g.Translate(0, addr(100), func(p vm.PTE) { got = p })
	eng.Run()
	if got.PFN != 1100 {
		t.Fatalf("PFN = %d, want 1100", got.PFN)
	}
	if remote.calls != 1 || g.Stats.FilterNegative != 1 {
		t.Errorf("remote=%d stats=%+v", remote.calls, g.Stats)
	}
	if g.Stats.LocalWalks != 0 {
		t.Error("filter-negative path should skip the local walk")
	}
	if g.Stats.RemoteLatencySum == 0 || eng.Now() == start {
		t.Error("remote latency not accounted")
	}
}

func TestFalsePositivePaysDoublePath(t *testing.T) {
	g, eng, remote := testGPM(t)
	// Force a false positive: seed the filter with a VPN that is not in the
	// local page table.
	g.ReseedFilter(0, []vm.VPN{100})
	var done bool
	g.Translate(0, addr(100), func(vm.PTE) { done = true })
	eng.Run()
	if !done {
		t.Fatal("translation never completed")
	}
	if g.Stats.FalsePositives != 1 {
		t.Errorf("false positives = %d, want 1", g.Stats.FalsePositives)
	}
	if remote.calls != 1 {
		t.Errorf("remote calls = %d, want 1", remote.calls)
	}
	if g.Stats.LocalWalks != 1 {
		t.Errorf("local walks = %d, want 1 (wasted walk)", g.Stats.LocalWalks)
	}
}

func TestL2MSHRCoalescesConcurrentMisses(t *testing.T) {
	g, eng, remote := testGPM(t)
	done := 0
	// Two CUs request the same remote page in the same cycle.
	g.Translate(0, addr(100), func(vm.PTE) { done++ })
	g.Translate(1, addr(100), func(vm.PTE) { done++ })
	eng.Run()
	if done != 2 {
		t.Fatalf("completions = %d", done)
	}
	if remote.calls != 1 {
		t.Errorf("remote calls = %d, want 1 (coalesced)", remote.calls)
	}
}

func TestDataAccessLocalVsRemote(t *testing.T) {
	g, eng, _ := testGPM(t)
	pteLocal := vm.PTE{VPN: 5, PFN: 1005, Owner: 0, Valid: true}
	pteRemote := vm.PTE{VPN: 100, PFN: 1100, Owner: 1, Valid: true}
	var tLocal, tRemote sim.VTime
	g.Access(0, addr(5), pteLocal, func() { tLocal = eng.Now() })
	eng.Run()
	base := eng.Now()
	g.Access(0, addr(100), pteRemote, func() { tRemote = eng.Now() - base })
	eng.Run()
	if g.Stats.LocalAccesses != 1 || g.Stats.RemoteAccesses != 1 {
		t.Fatalf("access stats %+v", g.Stats)
	}
	if tRemote <= tLocal {
		t.Errorf("remote access (%d) should be slower than local (%d)", tRemote, tLocal)
	}
}

func TestDataCachesFilterRepeats(t *testing.T) {
	g, eng, _ := testGPM(t)
	pte := vm.PTE{VPN: 5, PFN: 1005, Owner: 0, Valid: true}
	g.Access(0, addr(5), pte, func() {})
	eng.Run()
	reads := g.hbm.Reads
	g.Access(0, addr(5), pte, func() {})
	eng.Run()
	if g.hbm.Reads != reads {
		t.Error("second access to same line should hit L1 cache")
	}
}

func TestCUEngineCompletesTrace(t *testing.T) {
	g, eng, _ := testGPM(t)
	var trace []vm.VAddr
	for v := vm.VPN(1); v < 33; v++ {
		trace = append(trace, addr(v))
	}
	g.LoadTrace(0, trace)
	g.LoadTrace(1, trace[:8])
	finished := false
	g.Start(4, func(id int, at sim.VTime) {
		finished = true
		if id != 0 {
			t.Errorf("finish id = %d", id)
		}
	})
	eng.Run()
	if !finished {
		t.Fatal("GPM never finished")
	}
	if g.Stats.OpsIssued != 40 || g.Stats.OpsCompleted != 40 {
		t.Errorf("ops issued=%d completed=%d, want 40", g.Stats.OpsIssued, g.Stats.OpsCompleted)
	}
	if g.Outstanding() != 0 {
		t.Errorf("outstanding = %d at end", g.Outstanding())
	}
	if g.Stats.FinishTime == 0 {
		t.Error("finish time not recorded")
	}
}

func TestEmptyTraceFinishesImmediately(t *testing.T) {
	g, eng, _ := testGPM(t)
	finished := false
	g.Start(4, func(int, sim.VTime) { finished = true })
	eng.Run()
	if !finished {
		t.Fatal("empty GPM never finished")
	}
}

func TestMLPBoundsOutstanding(t *testing.T) {
	g, eng, _ := testGPM(t)
	// All remote, slow path: outstanding must never exceed MLP per CU.
	var trace []vm.VAddr
	for v := vm.VPN(65); v < 129; v++ {
		trace = append(trace, addr(v))
	}
	g.LoadTrace(0, trace)
	g.Start(1, func(int, sim.VTime) {})
	maxOut := 0
	for eng.Step() {
		if o := g.Outstanding(); o > maxOut {
			maxOut = o
		}
	}
	if maxOut > 4 {
		t.Errorf("outstanding peaked at %d, MLP is 4", maxOut)
	}
	if maxOut < 2 {
		t.Errorf("outstanding peaked at %d; MLP never exploited", maxOut)
	}
}

func TestProbeAuxAndInstall(t *testing.T) {
	g, eng, _ := testGPM(t)
	k := tlb.Key{VPN: 200}
	var hit bool
	g.ProbeAux(k, 18, PeerFunc(func(_ vm.PTE, _ xlat.PushOrigin, ok bool) { hit = ok }))
	eng.Run()
	if hit {
		t.Fatal("probe hit on empty aux cache")
	}
	g.InstallAux(vm.PTE{VPN: 200, PFN: 9, Valid: true}, xlat.PushPrefetch, eng.Now())
	var origin xlat.PushOrigin
	var pte vm.PTE
	g.ProbeAux(k, 18, PeerFunc(func(p vm.PTE, o xlat.PushOrigin, ok bool) { hit, pte, origin = ok, p, o }))
	eng.Run()
	if !hit || pte.PFN != 9 || origin != xlat.PushPrefetch {
		t.Fatalf("probe after install: hit=%v pte=%+v origin=%v", hit, pte, origin)
	}
	if g.Stats.ProbesServed != 2 || g.Stats.ProbeHits != 1 {
		t.Errorf("probe stats %+v", g.Stats)
	}
}

func TestProbeL2TLB(t *testing.T) {
	g, eng, _ := testGPM(t)
	// Warm the L2 TLB via a local translation.
	g.Translate(0, addr(5), func(vm.PTE) {})
	eng.Run()
	var hit bool
	g.ProbeL2TLB(tlb.Key{VPN: 5}, PeerFunc(func(_ vm.PTE, _ xlat.PushOrigin, ok bool) { hit = ok }))
	eng.Run()
	if !hit {
		t.Error("L2 TLB probe missed a resident translation")
	}
}

func TestWalkForPeer(t *testing.T) {
	g, eng, _ := testGPM(t)
	var found bool
	var pte vm.PTE
	g.WalkForPeer(tlb.Key{VPN: 10}, PeerFunc(func(p vm.PTE, _ xlat.PushOrigin, ok bool) { pte, found = p, ok }))
	eng.Run()
	if !found || pte.PFN != 1010 {
		t.Fatalf("peer walk: found=%v pte=%+v", found, pte)
	}
	var missFound bool
	g.WalkForPeer(tlb.Key{VPN: 999}, PeerFunc(func(_ vm.PTE, _ xlat.PushOrigin, ok bool) { missFound = ok }))
	eng.Run()
	if missFound {
		t.Error("peer walk found unmapped page")
	}
}

func TestAuxEvictionKeepsFilterInSync(t *testing.T) {
	cfg := tlb.Config{Sets: 1, Ways: 2, MSHRs: 4, Latency: 1}
	a := NewAuxCache(cfg)
	p := func(v vm.VPN) vm.PTE { return vm.PTE{VPN: v, PFN: vm.PFN(v), Valid: true} }
	a.Install(p(1), xlat.PushDemand)
	a.Install(p(2), xlat.PushDemand)
	a.Install(p(3), xlat.PushDemand) // evicts 1
	if a.MightHave(tlb.Key{VPN: 1}) {
		t.Error("filter still claims evicted entry (no collision expected at this occupancy)")
	}
	if !a.MightHave(tlb.Key{VPN: 2}) || !a.MightHave(tlb.Key{VPN: 3}) {
		t.Error("filter lost resident entries")
	}
	if a.Len() != 2 {
		t.Errorf("aux len = %d", a.Len())
	}
}

// When the L2 TLB MSHR file is exhausted, later misses must stall and then
// resume as registers free — with no request lost.
func TestL2TLBMSHRExhaustionRecovers(t *testing.T) {
	eng := sim.NewEngine()
	cfg := config.MI100GPM()
	cfg.NumCUs = 2
	cfg.MLP = 64
	cfg.L2TLB.MSHRs = 2 // tiny: force stalls
	localPT := vm.NewPageTable()
	remote := &fakeRemote{table: map[vm.VPN]vm.PTE{}, eng: eng, delay: 300}
	for v := vm.VPN(100); v < 150; v++ {
		remote.table[v] = vm.PTE{VPN: v, PFN: vm.PFN(v), Owner: 1, Valid: true}
	}
	g := New(eng, 0, geom.XY(1, 1), cfg, vm.Page4K, localPT)
	g.Remote = remote
	g.ReqPool = xlat.NewRequestPool()
	id := uint64(0)
	g.NextReqID = func() uint64 { id++; return id }
	done := 0
	for v := vm.VPN(100); v < 150; v++ {
		g.Translate(0, addr(v), func(vm.PTE) { done++ })
	}
	eng.Run()
	if done != 50 {
		t.Fatalf("completed %d of 50 with exhausted MSHRs", done)
	}
	if g.Stats.MSHRRetries == 0 {
		t.Error("no stalls recorded despite 2 MSHRs and 50 concurrent misses")
	}
}

// Same for the data-side L2 cache MSHRs.
func TestL2DataMSHRExhaustionRecovers(t *testing.T) {
	g, eng, _ := testGPM(t)
	done := 0
	// 40 distinct remote lines against 64 MSHRs via the remote fetch path;
	// shrink by issuing to lines that all miss while fetch takes 200 cycles.
	for i := 0; i < 40; i++ {
		pte := vm.PTE{VPN: 100, PFN: 1100, Owner: 1, Valid: true}
		va := addr(100) + vm.VAddr(i*64)
		g.Access(0, va, pte, func() { done++ })
	}
	eng.Run()
	if done != 40 {
		t.Fatalf("completed %d of 40", done)
	}
}

func TestShootdownClearsAllStructures(t *testing.T) {
	g, eng, _ := testGPM(t)
	// Warm every structure: local translation (L1/L2/LLTLB), aux install.
	g.Translate(0, addr(5), func(vm.PTE) {})
	eng.Run()
	g.InstallAux(vm.PTE{VPN: 5, PFN: 1, Valid: true}, xlat.PushDemand, eng.Now())
	keys := []tlb.Key{{VPN: 5}}
	dropped := g.Shootdown(keys)
	if dropped < 3 {
		t.Errorf("dropped %d entries, want >= 3 (L1, L2, aux at least)", dropped)
	}
	// Every structure must now miss.
	if _, _, ok := g.Aux().Probe(tlb.Key{VPN: 5}); ok {
		t.Error("aux still holds shot-down entry")
	}
	if g.Aux().MightHave(tlb.Key{VPN: 5}) {
		t.Error("aux filter still claims shot-down entry")
	}
	// A fresh translation must re-walk (L1/L2 cleared).
	walks := g.Stats.LocalWalks
	g.Translate(0, addr(5), func(vm.PTE) {})
	eng.Run()
	if g.Stats.LocalWalks != walks+1 {
		t.Error("translation after shootdown did not re-walk")
	}
}

func TestShootdownSyncsLocalFilter(t *testing.T) {
	g, eng, _ := testGPM(t)
	// Unmap page 5 from the local table, then shoot it down: the cuckoo
	// filter must stop claiming it so future requests go remote directly.
	g.localPT.(*vm.PageTable).Remove(5)
	g.Shootdown([]tlb.Key{{VPN: 5}})
	g.Translate(0, addr(5), func(vm.PTE) {})
	eng.Run()
	if g.Stats.FilterPositive != 0 {
		t.Error("filter still positive for unmapped, shot-down page")
	}
}

// A remote translation issued before a shootdown of its page and completing
// after this GPM processed its share must not refill a TLB with the old
// frame: nothing would ever invalidate it. The op still uses the frame once.
func TestNoFillAfterShootdownRace(t *testing.T) {
	g, eng, remote := testGPM(t)
	remote.delay = 1000
	shot := NewShootdowns()
	g.Shootdowns = shot
	k := tlb.Key{VPN: 100}
	var got vm.PTE
	g.Translate(0, addr(100), func(p vm.PTE) { got = p })
	// The whole shootdown falls while the request is in flight.
	eng.PostAt(500, sim.HandlerFunc(func() {
		shot.Begin([]tlb.Key{k})
		g.Shootdown([]tlb.Key{k})
		shot.End([]tlb.Key{k}, eng.Now())
	}), sim.EventArg{})
	eng.Run()
	if got.PFN != 1100 {
		t.Fatalf("op got PFN %d, want the in-flight frame 1100", got.PFN)
	}
	if _, ok := g.l2TLB.Peek(k); ok {
		t.Error("L2 TLB took a translation that raced a shootdown")
	}
	if _, ok := g.l1TLBs[0].Peek(k); ok {
		t.Error("L1 TLB took a translation that raced a shootdown")
	}
	g.InstallAux(remote.table[100], xlat.PushDemand, 400)
	if _, _, ok := g.Aux().Probe(k); ok {
		t.Error("aux cache took a push read before the shootdown ended")
	}

	// A translation issued after the shootdown ended fills as usual.
	g.Translate(0, addr(100), func(vm.PTE) {})
	eng.Run()
	if _, ok := g.l2TLB.Peek(k); !ok {
		t.Error("L2 TLB refused a translation issued after the shootdown")
	}
}
