package gpm

import (
	"hdpat/internal/cache"
	"hdpat/internal/config"
	"hdpat/internal/cuckoo"
	"hdpat/internal/tlb"
)

// hierarchy is the part of a GPM that ensure materializes and a finished
// run can hand to the next: the per-CU L1 TLBs and caches, the L2 TLB and
// its MSHR file, the last-level TLB, the auxiliary cache and the
// local-page-table cuckoo filter. Together they are nearly all of a
// materialized GPM's bytes.
type hierarchy struct {
	l1TLBs   []*tlb.TLB
	l2TLB    *tlb.TLB
	l2MSHR   *tlb.MSHR
	filter   *cuckoo.Filter
	llTLB    *tlb.TLB
	aux      *AuxCache
	l1Caches []*cache.Cache
	l2Cache  *cache.Cache
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
	}
	for i := range cfg.NumCUs {
		h.l1TLBs[i] = tlb.New(cfg.L1TLB)
		h.l1Caches[i] = cache.New(cfg.L1VCache)
	}
	return h
}

// reset returns every structure but the local filter to its new state and
// drops the references a finished run left in them: MSHR waiters (pooled
// ops of that run). The filter holds no references; ensure refits it to
// the next GPM's page count.
func (h *hierarchy) reset() {
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
}

// Spares is a store of GPM hierarchies that successive runs on one
// goroutine hand to each other, so a batch worker allocates and zeroes a
// GPM's TLBs, caches and filters once rather than once per run. A GPM with
// a non-nil Spares field takes a spare at materialization; the system
// builder returns the run's hierarchies with Reclaim once the run is over.
// A GPM whose Spares is nil builds new. A store is not safe for
// concurrent use.
type Spares struct {
	free []spare
}

// spare is a reset hierarchy and the configuration it was built for.
type spare struct {
	cfg config.GPM
	h   hierarchy
}

// Len returns the number of spares held.
func (s *Spares) Len() int { return len(s.free) }

// take removes and returns the most recently returned spare built for cfg;
// a nil store has none.
func (s *Spares) take(cfg config.GPM) (hierarchy, bool) {
	if s == nil {
		return hierarchy{}, false
	}
	for i := len(s.free) - 1; i >= 0; i-- {
		if s.free[i].cfg == cfg {
			h := s.free[i].h
			copy(s.free[i:], s.free[i+1:])
			s.free[len(s.free)-1] = spare{}
			s.free = s.free[:len(s.free)-1]
			return h, true
		}
	}
	return hierarchy{}, false
}

// Reclaim resets and takes back the hierarchies of a finished run's
// materialized GPMs, which must not be used afterwards, and returns how
// many it took. It then trims the store to that many spares, dropping the
// oldest first, so a store never holds more than its last run used: after
// a large wafer, a small one releases the surplus. Call it only after a
// run that ran to completion or to its cycle limit; a cancelled or
// panicked run hands back nothing.
func (s *Spares) Reclaim(gpms []*GPM) int {
	used := 0
	for _, g := range gpms {
		if !g.mat {
			continue
		}
		used++
		g.hierarchy.reset()
		s.free = append(s.free, spare{cfg: g.cfg, h: g.hierarchy})
		g.hierarchy = hierarchy{}
	}
	if surplus := len(s.free) - used; surplus > 0 {
		n := copy(s.free, s.free[surplus:])
		clear(s.free[n:])
		s.free = s.free[:n]
	}
	return used
}
