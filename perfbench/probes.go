package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hdpat"
	"hdpat/internal/cache"
	"hdpat/internal/config"
	"hdpat/internal/cuckoo"
	"hdpat/internal/geom"
	"hdpat/internal/gpm"
	"hdpat/internal/iommu"
	"hdpat/internal/noc"
	"hdpat/internal/service"
	"hdpat/internal/sim"
	"hdpat/internal/tlb"
	"hdpat/internal/vm"
	"hdpat/internal/xlat"
)

// Layer probes time calls into one module's public functions, outside any
// workload: the per-call cost of each hot-path layer on its own. Each probe
// times probeReps batches after one warm-up batch and reports the median.
const probeReps = 5

// probeHeapDepth is the number of pending events the kernel probe keeps
// queued: near the peak depth of a Table I run at ops budget 32 (4.6 k to
// 5.0 k events for hdpat/PR and baseline/SPMV).
const probeHeapDepth = 4096

// perOp times batch (which performs some operations and returns how many)
// and returns the median nanoseconds per operation. It collects the
// workload's garbage first, so a probe never pays for it.
func perOp(batch func() int) float64 {
	runtime.GC()
	batch()
	var v []float64
	for i := 0; i < probeReps; i++ {
		start := time.Now()
		n := batch()
		v = append(v, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(v)
}

// runProbes times every layer probe. A probe whose simulated outcome is
// wrong (a lost completion, an unexpected hit or miss) counts as a failed
// check.
func runProbes(b *bench) (map[string]float64, error) {
	out := map[string]float64{}
	check := func(name string, err error) {
		b.attempted++
		if err != nil {
			b.fail("probe %s: %v", name, err)
		}
	}
	out["sim.ns_per_event"] = probeKernel()
	for _, p := range []struct {
		name, routing string
		burst         int
	}{
		{"xy_free", noc.RoutingXY, 1}, {"xy_contended", noc.RoutingXY, 32},
		{"deflect_free", noc.RoutingDeflect, 1}, {"deflect_contended", noc.RoutingDeflect, 32},
	} {
		ns, err := probeNoC(p.routing, p.burst)
		check("noc."+p.name, err)
		out["noc.ns_per_hop."+p.name] = ns
	}
	for _, path := range []string{"walk", "redirect", "revisit"} {
		ns, err := probeIOMMU(path)
		check("iommu."+path, err)
		out["iommu.ns_per_request."+path] = ns
	}
	for _, hit := range []bool{true, false} {
		ns, err := probeTranslate(hit)
		name := map[bool]string{true: "hit", false: "miss"}[hit]
		check("gpm.translate."+name, err)
		out["gpm.ns_per_translate."+name] = ns
	}
	out["tlb.ns_per_lookup"] = probeTLB()
	out["cuckoo.ns_per_contains"] = probeCuckoo()
	out["cache.ns_per_access"] = probeCache()
	out["xlat.ns_per_lease"] = probeLease()
	put, get, err := probeStore(filepath.Join(b.work, "probe-store"))
	if err != nil {
		return nil, err
	}
	out["service.store_put_us"], out["service.store_get_us"] = put, get
	speedup, err := probeShards(b.seed)
	check("sim.shard_speedup", err)
	out["sim.shard_speedup"] = speedup
	return out, nil
}

// relay is a self-rescheduling event: each dispatch posts the next one a
// pseudo-random 1..64 cycles ahead, so the heap keeps its depth.
type relay struct {
	eng  *sim.Engine
	left int
	rng  uint64
}

func (r *relay) Event(sim.EventArg) {
	r.left--
	if r.left == 0 {
		r.eng.Stop()
	}
	r.rng = r.rng*6364136223846793005 + 1442695040888963407
	r.eng.PostAt(r.eng.Now()+1+sim.VTime(r.rng>>58), r, sim.EventArg{})
}

// probeKernel times PostAt + dispatch through RunUntil at a fixed heap
// depth.
func probeKernel() float64 {
	eng := sim.NewEngine()
	r := &relay{eng: eng, rng: 1}
	for i := 0; i < probeHeapDepth; i++ {
		eng.PostAt(sim.VTime(i%64), r, sim.EventArg{})
	}
	const n = 200_000
	return perOp(func() int {
		r.left = n
		eng.RunUntil(sim.Infinity)
		return n
	})
}

// counter counts typed deliveries.
type counter struct{ n int }

func (c *counter) Event(sim.EventArg) { c.n++ }

// probeNoC times SendH across the Table I mesh corner to corner (12 hops).
// Free sends one small message at a time; contended launches bursts of 4 KB
// messages in the same cycle, so links are busy when later messages reach
// them (XY queues behind them, deflection misroutes around them).
func probeNoC(routing string, burst int) (float64, error) {
	eng := sim.NewEngine()
	cfg := noc.DefaultConfig()
	cfg.Routing = routing
	mesh := noc.New(eng, geom.NewMesh(7, 7), cfg)
	src, dst := geom.XY(0, 0), geom.XY(6, 6)
	size := xlat.ReqBytes
	if burst > 1 {
		size = 4096
	}
	var sink counter
	var err error
	ns := perOp(func() int {
		hops := mesh.Stats.HopsTotal
		sent := sink.n
		for round := 0; round < 256/burst; round++ {
			for i := 0; i < burst; i++ {
				mesh.SendH(src, dst, size, &sink, sim.EventArg{})
			}
			eng.Run()
		}
		if sink.n-sent != 256 {
			err = fmt.Errorf("delivered %d of 256 messages", sink.n-sent)
		}
		return int(mesh.Stats.HopsTotal - hops)
	})
	return ns, err
}

// completer counts completions and drops the creator reference, as a GPM
// does in RequestDone.
type completer struct{ n int }

func (c *completer) RequestDone(req *xlat.Request, _ xlat.Result) {
	c.n++
	req.Unref()
}

// probeIOMMU times Submit through to the response delivered at the
// requester on the Table I mesh, for one path:
//   - walk: distinct pages, every request walks;
//   - redirect: the redirection table holds every page, every request is
//     redirected at admission;
//   - revisit: one walker and batches of one page, so one request walks and
//     the rest are served from the PW-queue by revisit.
func probeIOMMU(path string) (float64, error) {
	const pages, batch = 4096, 64
	eng := sim.NewEngine()
	layout := geom.NewMesh(7, 7)
	mesh := noc.New(eng, layout, noc.DefaultConfig())
	global := vm.NewPageTable()
	for v := vm.VPN(1); v <= pages; v++ {
		global.Insert(vm.PTE{VPN: v, PFN: vm.PFN(v + 5000), Owner: int(v) % 48, Valid: true})
	}
	cfg := config.DefaultIOMMU()
	switch path {
	case "redirect":
		cfg.RedirectEntries = pages
	case "revisit":
		cfg.Walkers = 1
		cfg.Revisit = true
	}
	io := iommu.New(eng, cfg, layout.CPU, mesh, global)
	gpm0 := geom.XY(0, 0)
	io.GPMCoord = func(int) geom.Coord { return gpm0 }
	if path == "redirect" {
		for v := vm.VPN(1); v <= pages; v++ {
			io.RT().Insert(tlb.Key{VPN: v}, 1)
		}
		io.Redirect = func(req *xlat.Request, gpm int) {
			req.Complete(xlat.Result{PTE: vm.PTE{VPN: req.VPN}, Source: xlat.SourceRedirect})
		}
	}
	pool := xlat.NewRequestPool()
	var done completer
	var id uint64
	next := vm.VPN(0)
	ns := perOp(func() int {
		for i := 0; i < batch; i++ {
			if path != "revisit" || i == 0 {
				next = next%pages + 1
			}
			id++
			io.Submit(pool.Get(id, 0, next, 0, eng.Now(), &done), false)
		}
		eng.Run()
		return batch
	})
	var err error
	switch {
	case done.n != int(io.Stats.Requests):
		err = fmt.Errorf("%d completions for %d requests", done.n, io.Stats.Requests)
	case path == "walk" && io.Stats.Walks != io.Stats.Requests,
		path == "redirect" && io.Stats.RTRedirects != io.Stats.Requests,
		path == "revisit" && io.Stats.Revisits == 0:
		err = fmt.Errorf("path not taken: %+v", io.Stats)
	}
	return ns, err
}

// remoteStub completes a remote translation at once; the translate probes
// stay local, so it only catches filter false positives.
type remoteStub struct{}

func (remoteStub) Name() string { return "stub" }
func (remoteStub) Translate(req *xlat.Request) {
	req.Complete(xlat.Result{PTE: vm.PTE{VPN: req.VPN, Valid: true}})
}

// probeTranslate times gpm.Translate through to its callback on a Table I
// GPM. The hit ladder translates one warmed address (an L1 TLB hit); the
// miss ladder cycles through more local pages than the L1, L2 and
// last-level TLBs hold, so each translation walks the local page table.
func probeTranslate(hit bool) (float64, error) {
	const pages, batch, rounds = 16384, 16, 128
	eng := sim.NewEngine()
	local := vm.NewPageTable()
	vpns := make([]vm.VPN, 0, pages)
	for v := vm.VPN(1); v <= pages; v++ {
		local.Insert(vm.PTE{VPN: v, PFN: vm.PFN(v + 1000), Valid: true})
		vpns = append(vpns, v)
	}
	g := gpm.New(eng, 0, geom.XY(1, 1), config.MI100GPM(), vm.Page4K, local)
	g.ReseedFilter(0, vpns)
	g.Remote = remoteStub{}
	var id uint64
	g.NextReqID = func() uint64 { id++; return id }
	var n int
	done := func(vm.PTE) { n++ }
	next := vm.VPN(1)
	ns := perOp(func() int {
		for round := 0; round < rounds; round++ {
			for i := 0; i < batch; i++ {
				if !hit {
					next = next%pages + 1
				}
				g.Translate(0, vm.Page4K.Base(next), done)
			}
			eng.Run()
		}
		return rounds * batch
	})
	var err error
	st := g.Stats
	switch {
	case n != (probeReps+1)*rounds*batch:
		err = fmt.Errorf("%d callbacks for %d translations", n, (probeReps+1)*rounds*batch)
	case hit && st.L1TLBHits < uint64(probeReps*rounds*batch):
		err = fmt.Errorf("hit ladder missed the L1 TLB: %+v", st)
	case !hit && st.LocalWalks < uint64(probeReps*rounds*batch):
		err = fmt.Errorf("miss ladder hit a TLB: %+v", st)
	}
	return ns, err
}

// probeTLB times Lookup on a full Table I L2 TLB over keys half of which
// are resident.
func probeTLB() float64 {
	cfg := config.MI100GPM().L2TLB
	t := tlb.New(cfg)
	entries := cfg.Sets * cfg.Ways
	for v := 0; v < entries; v++ {
		t.Insert(vm.PTE{VPN: vm.VPN(v), Valid: true})
	}
	var k int
	return perOp(func() int {
		const n = 100_000
		for i := 0; i < n; i++ {
			k = (k + 7) % (2 * entries)
			t.Lookup(tlb.Key{VPN: vm.VPN(k)})
		}
		return n
	})
}

// probeCuckoo times Contains on a half-loaded filter over keys half of which
// were inserted.
func probeCuckoo() float64 {
	const keys = 4096
	f := cuckoo.New(2 * keys)
	for k := uint64(0); k < keys; k++ {
		f.Insert(k)
	}
	var k uint64
	return perOp(func() int {
		const n = 200_000
		for i := 0; i < n; i++ {
			k = (k + 13) % (2 * keys)
			f.Contains(k)
		}
		return n
	})
}

// probeCache times a Table I L2 cache access — Lookup, and Insert on a miss
// — over a working set twice the cache's line count.
func probeCache() float64 {
	cfg := config.MI100GPM().L2Cache
	c := cache.New(cfg)
	lines := uint64(2 * cfg.SizeBytes / cache.LineSize)
	var line uint64
	return perOp(func() int {
		const n = 100_000
		for i := 0; i < n; i++ {
			line = (line + 97) % lines
			if !c.Lookup(line) {
				c.Insert(line)
			}
		}
		return n
	})
}

// probeLease times one RequestPool.Get followed by the Unref that returns
// the request to the pool.
func probeLease() float64 {
	pool := xlat.NewRequestPool()
	var done completer
	return perOp(func() int {
		const n = 200_000
		for i := 0; i < n; i++ {
			pool.Get(uint64(i), 0, vm.VPN(i), 0, 0, &done).Unref()
		}
		return n
	})
}

// probeStore times the daemon's content-addressed store: Put of distinct
// 16 KiB objects (written, fsynced and indexed) and Get of each, in
// microseconds per call.
func probeStore(dir string) (putUs, getUs float64, err error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	st, err := service.OpenStore(dir, nil)
	if err != nil {
		return 0, 0, err
	}
	blob := make([]byte, 16<<10)
	var digests []string
	var seq uint64
	putNs := perOp(func() int {
		const n = 32
		for i := 0; i < n; i++ {
			seq++
			for j := 0; j < 8; j++ {
				blob[j] = byte(seq >> (8 * j))
			}
			d, _, perr := st.Put(blob)
			if perr != nil && err == nil {
				err = perr
			}
			digests = append(digests, d)
		}
		return n
	})
	getNs := perOp(func() int {
		for _, d := range digests {
			if _, gerr := st.Get(d); gerr != nil && err == nil {
				err = gerr
			}
		}
		return len(digests)
	})
	return putNs / 1e3, getNs / 1e3, err
}

// probeShards returns the wall-time ratio of the serial kernel to
// WithDomains(nproc) on the Table I hdpat/PR cell (median of three each,
// alternating). Both must produce the same result.
func probeShards(seed int64) (float64, error) {
	cfg := hdpat.DefaultConfig()
	spec := hdpat.RunSpec{Scheme: "hdpat", Benchmark: "PR"}
	base := []hdpat.Option{hdpat.WithOpsBudget(batchOps), hdpat.WithSeed(seed)}
	var serial, sharded []float64
	var want, got string
	for i := 0; i < 3; i++ {
		for _, domains := range []int{1, runtime.NumCPU()} {
			start := time.Now()
			res, err := hdpat.Simulate(cfg, spec, append(base, hdpat.WithDomains(domains))...)
			wall := time.Since(start).Seconds()
			if err != nil {
				return 0, err
			}
			if domains == 1 {
				serial, want = append(serial, wall), digestResult(res)
			} else {
				sharded, got = append(sharded, wall), digestResult(res)
			}
		}
	}
	var err error
	if got != want {
		err = fmt.Errorf("sharded digest %.12s != serial %.12s", got, want)
	}
	return median(serial) / median(sharded), err
}
