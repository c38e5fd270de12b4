package gpm

import (
	"hdpat/internal/cuckoo"
	"hdpat/internal/tlb"
	"hdpat/internal/vm"
	"hdpat/internal/xlat"
)

// AuxCache is the auxiliary translation store a caching-layer GPM exposes to
// its peers: a TLB-like structure carved out of the GMMU cache space
// (§IV-B/F: "due to the limited space of GMMU, GPM cannot afford remote page
// table replication") plus a cuckoo filter kept exactly in sync with its
// contents so peer probes can be answered quickly and negatively without a
// full lookup (Fig 9). Each entry remembers how it arrived — demand push or
// proactive delivery — so hits can be attributed for the Fig 16 breakdown.
type AuxCache struct {
	tlb     *tlb.TLB
	filter  *cuckoo.Filter
	origins map[tlb.Key]xlat.PushOrigin
}

// NewAuxCache creates an auxiliary cache with the given TLB geometry.
func NewAuxCache(cfg tlb.Config) *AuxCache {
	a := &AuxCache{
		tlb:     tlb.New(cfg),
		filter:  cuckoo.New(cfg.Sets * cfg.Ways * 2),
		origins: make(map[tlb.Key]xlat.PushOrigin),
	}
	a.tlb.OnEvict = func(p vm.PTE) {
		k := tlb.Key{PID: p.PID, VPN: p.VPN}
		a.filter.Delete(filterKey(k))
		delete(a.origins, k)
	}
	return a
}

func filterKey(k tlb.Key) uint64 {
	return uint64(k.VPN) ^ uint64(k.PID)<<48
}

// reset empties the cache, its filter and its origins and zeroes its
// counters, so it behaves as a NewAuxCache of the same geometry. The map
// keeps its buckets.
func (a *AuxCache) reset() {
	a.tlb.Reset()
	a.filter.Reset()
	clear(a.origins)
}

// Install stores a pushed PTE with its origin, keeping the filter in sync.
func (a *AuxCache) Install(pte vm.PTE, origin xlat.PushOrigin) {
	k := tlb.Key{PID: pte.PID, VPN: pte.VPN}
	if _, had := a.tlb.Peek(k); !had {
		a.filter.Insert(filterKey(k))
	}
	a.origins[k] = origin
	a.tlb.Insert(pte)
}

// MightHave is the fast cuckoo-filter check a probe performs first;
// false positives possible, false negatives not.
func (a *AuxCache) MightHave(k tlb.Key) bool {
	return a.filter.Contains(filterKey(k))
}

// Probe looks up k, reporting the entry and how it originally arrived.
func (a *AuxCache) Probe(k tlb.Key) (vm.PTE, xlat.PushOrigin, bool) {
	pte, ok := a.tlb.Lookup(k)
	if !ok {
		return vm.PTE{}, 0, false
	}
	return pte, a.origins[k], true
}

// Len returns resident entry count.
func (a *AuxCache) Len() int { return a.tlb.Len() }

// Stats exposes the underlying TLB counters.
func (a *AuxCache) Stats() tlb.Stats { return a.tlb.Stats }
