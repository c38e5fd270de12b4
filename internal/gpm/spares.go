package gpm

import (
	"hdpat/internal/cache"
	"hdpat/internal/config"
	"hdpat/internal/cuckoo"
	"hdpat/internal/dram"
	"hdpat/internal/geom"
	"hdpat/internal/sim"
	"hdpat/internal/tlb"
	"hdpat/internal/vm"
)

// hierarchy is the part of a GPM that ensure materializes and a header
// keeps from one run to the next: the per-CU L1 TLBs and caches, the L2
// TLB and its MSHR file, the last-level TLB, the auxiliary cache, the
// local-page-table cuckoo filter, the GMMU walkers and the memory stack —
// together nearly all of a materialized GPM's bytes — and the freelists and
// wait queues its traffic grows.
type hierarchy struct {
	l1TLBs   []*tlb.TLB
	l2TLB    *tlb.TLB
	l2MSHR   *tlb.MSHR
	filter   *cuckoo.Filter
	llTLB    *tlb.TLB
	aux      *AuxCache
	l1Caches []*cache.Cache
	l2Cache  *cache.Cache
	walkers  *sim.Pool
	hbm      *dram.HBM

	// ops recycles finished memory-operation state machines, peers the
	// peer-facing service legs.
	ops   sim.Freelist[op]
	peers sim.Freelist[peerOp]
	// l2TLBWait queues translation misses stalled on a full L2 TLB MSHR
	// file; they resume as registers free (no polling).
	l2TLBWait sim.Queue[*op]
	// l2DataWait queues data misses stalled on full L2 cache MSHRs.
	l2DataWait sim.Queue[*op]
}

// newHierarchy builds every structure for cfg except the local filter,
// whose size depends on the run's page placement (see ensure).
func newHierarchy(cfg config.GPM) hierarchy {
	h := hierarchy{
		l1TLBs:   make([]*tlb.TLB, cfg.NumCUs),
		l2TLB:    tlb.New(cfg.L2TLB),
		l2MSHR:   tlb.NewMSHR(cfg.L2TLB.MSHRs),
		llTLB:    tlb.New(cfg.GMMUCache),
		aux:      NewAuxCache(cfg.AuxTLB),
		l1Caches: make([]*cache.Cache, cfg.NumCUs),
		l2Cache:  cache.New(cfg.L2Cache),
		walkers:  sim.NewPool(cfg.GMMUWalkers),
		hbm:      dram.New(cfg.HBM),
	}
	for i := range cfg.NumCUs {
		h.l1TLBs[i] = tlb.New(cfg.L1TLB)
		h.l1Caches[i] = cache.New(cfg.L1VCache)
	}
	return h
}

// reset returns every structure but the local filter to its new state and
// drops the references a finished run left in them: MSHR waiters and
// stalled ops (pooled ops of that run). The freelists keep their objects,
// which hold nothing once released. The filter holds no references; ensure
// refits it to the next GPM's page count.
func (h *hierarchy) reset() {
	h.l2TLBWait.Clear()
	h.l2DataWait.Clear()
	for _, t := range h.l1TLBs {
		t.Reset()
	}
	h.l2TLB.Reset()
	h.l2MSHR.Reset()
	h.llTLB.Reset()
	h.aux.reset()
	for _, c := range h.l1Caches {
		c.Reset()
	}
	h.l2Cache.Reset()
	h.walkers.Reset()
	h.hbm.Reset()
}

// Headers returns the headers of a run's GPMs, GPM i on tile coords[i]
// with configuration cfg and page size ps. kept are the headers the last
// run handed back with Reclaim, or nil. When kept are of the same tiles,
// configuration and page size, they are the run's headers: GPM i gets back
// its own header with the local page table it had, and the CU array and
// hierarchy it grew, with wait queues and waiter lists already sized for
// its traffic. Otherwise the headers are new, header i with local page
// table local(i) and the CU array and hierarchy kept[i] kept, if built for
// cfg. Hand a run kept headers only with the page placement whose owner
// views they hold.
func Headers(kept []*GPM, eng *sim.Engine, coords []geom.Coord, cfg config.GPM, ps vm.PageSize, local func(int) LocalTable) []*GPM {
	if sameShape(kept, coords, cfg, ps) {
		for _, g := range kept {
			g.eng = eng
		}
		return kept
	}
	gpms := make([]*GPM, len(coords))
	for i, c := range coords {
		gpms[i] = New(eng, i, c, cfg, ps, local(i))
		if i < len(kept) && kept[i].cfg == cfg {
			gpms[i].hierarchy, gpms[i].cus = kept[i].hierarchy, kept[i].cus
		}
	}
	return gpms
}

// sameShape reports whether gpms are the headers of a run on coords with
// configuration cfg and page size ps.
func sameShape(gpms []*GPM, coords []geom.Coord, cfg config.GPM, ps vm.PageSize) bool {
	if len(gpms) != len(coords) || len(gpms) == 0 || gpms[0].cfg != cfg || gpms[0].ps != ps {
		return false
	}
	for i, g := range gpms {
		if g.Coord != coords[i] {
			return false
		}
	}
	return true
}

// Reclaim readies the headers of a finished run for Headers to hand to the
// next; the caller must not use them otherwise. Each header that
// materialized keeps its CU array and hierarchy, reset; the others keep
// neither, so the headers never hold more hierarchies than their last run
// used: after a large wafer, a small one releases the surplus. Call it only
// after a run that ran to completion or to its cycle limit.
func Reclaim(gpms []*GPM) {
	for _, g := range gpms {
		g.release()
	}
}

// release readies a finished run's header for the next run of its shape:
// the run's wiring, counters and latency distribution go, and the header
// is unmaterialized again, so the next run fits and seeds its filter. It
// keeps its local page table. A header that materialized keeps its CU
// array, emptied, and its hierarchy, reset; one that did not keeps
// neither.
func (g *GPM) release() {
	h, cus, lat := g.hierarchy, g.cus, g.remoteLat
	if g.mat {
		h.reset()
		clear(cus)
	} else {
		h, cus = hierarchy{}, nil
	}
	lat.Reset()
	*g = GPM{ID: g.ID, Coord: g.Coord, cfg: g.cfg, ps: g.ps, hierarchy: h, localPT: g.localPT, cus: cus, remoteLat: lat}
}
