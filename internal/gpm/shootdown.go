package gpm

import (
	"hdpat/internal/sim"
	"hdpat/internal/tlb"
)

// Shootdown invalidates every cached translation for the given keys: the
// per-CU L1 TLBs, the shared L2 TLB, the last-level TLB, the auxiliary
// cache (with its cuckoo filter kept in sync by the eviction hook), and the
// local-page-table cuckoo filter. It returns how many entries were dropped
// in total. The paper's scope needs this only when memory is freed (§II-A);
// the page-migration extension reuses it per migrated page.
func (g *GPM) Shootdown(keys []tlb.Key) int {
	// Materialize rather than short-circuit: the filter must reflect local
	// page-table removals even if this GPM has seen no traffic yet, or a
	// later seed would resurrect a mapping the table no longer has.
	g.ensure()
	n := 0
	for _, k := range keys {
		for _, l1 := range g.l1TLBs {
			if l1.Invalidate(k) {
				n++
			}
		}
		if g.l2TLB.Invalidate(k) {
			n++
		}
		if g.llTLB.Invalidate(k) {
			n++
		}
		if _, had := g.aux.tlb.Peek(k); had {
			g.aux.tlb.Invalidate(k)
			g.aux.filter.Delete(filterKey(k))
			delete(g.aux.origins, k)
			n++
		}
		// If the page was local, its filter membership must go too, or the
		// filter would promise a mapping the table no longer has.
		if g.localPT != nil && !g.localPT.Contains(k.VPN) {
			g.filter.Delete(filterKey(k))
		}
	}
	return n
}

// Shootdowns is the wafer-wide ledger of TLB shootdowns in flight: for each
// page, how many are pending and when the last one was acknowledged by every
// GPM. A GPM invalidates its own copies when its shootdown message arrives,
// but a translation read elsewhere before then — a peer's L2 TLB or aux
// cache, or the page table before the repoint — can still be in flight,
// and would outlive the shootdown if a TLB or aux cache took it. So no fill
// may take a translation of a page whose shootdown was pending at any point
// while the translation was in flight (Raced). The op that asked for it
// still uses the frame once: the in-flight race that the xlat.bad-pfn
// migration law in internal/check accepts.
type Shootdowns struct {
	pages map[tlb.Key]shootdown
}

type shootdown struct {
	pending int
	ended   sim.VTime
}

// NewShootdowns returns an empty ledger.
func NewShootdowns() *Shootdowns {
	return &Shootdowns{pages: make(map[tlb.Key]shootdown)}
}

// Begin marks a shootdown of keys in flight.
func (s *Shootdowns) Begin(keys []tlb.Key) {
	for _, k := range keys {
		st := s.pages[k]
		st.pending++
		s.pages[k] = st
	}
}

// End marks a shootdown of keys acknowledged wafer-wide at cycle now.
func (s *Shootdowns) End(keys []tlb.Key, now sim.VTime) {
	for _, k := range keys {
		st := s.pages[k]
		st.pending--
		st.ended = now
		s.pages[k] = st
	}
}

// Raced reports whether a shootdown of k was pending at any point since
// cycle since, when a translation of k read then was put in flight. A nil
// ledger (no shootdown yet) reports false.
func (s *Shootdowns) Raced(k tlb.Key, since sim.VTime) bool {
	if s == nil {
		return false
	}
	st, ok := s.pages[k]
	return ok && (st.pending > 0 || st.ended >= since)
}

// ShootdownLatency returns the cycles a GPM spends processing an
// invalidation of n keys: a fixed decode cost plus per-key port occupancy.
func ShootdownLatency(n int) sim.VTime {
	return 8 + sim.VTime(n)*2
}
