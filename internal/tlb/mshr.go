package tlb

import (
	"hdpat/internal/mshr"
	"hdpat/internal/vm"
)

// Filler receives an MSHR completion: the translation outcome for the key a
// miss was registered under. Waiters are long-lived components or pooled
// per-request state machines, so registering a miss allocates nothing —
// this replaced the previous per-miss func(vm.PTE, bool) callback.
type Filler interface {
	Fill(pte vm.PTE, found bool)
}

// FillerFunc adapts a closure to Filler for cold paths and tests.
type FillerFunc func(pte vm.PTE, found bool)

// Fill implements Filler.
func (f FillerFunc) Fill(pte vm.PTE, found bool) { f(pte, found) }

// MSHR is a miss-status holding register file: it tracks outstanding misses
// so that concurrent requests for the same page coalesce into one downstream
// request, and it bounds miss-level parallelism — when all registers are
// occupied, further misses stall, the behaviour that motivates the
// redirection table's advantage over an IOMMU-side TLB (§V-E, Fig 19).
type MSHR struct {
	cap  int
	regs mshr.File[Key, Filler]

	// Stats
	Allocated uint64
	Merged    uint64
	Stalled   uint64
	PeakUsed  int
}

// NewMSHR creates a file with capacity registers.
func NewMSHR(capacity int) *MSHR {
	return &MSHR{cap: capacity}
}

// Capacity returns the register count.
func (m *MSHR) Capacity() int { return m.cap }

// Used returns the number of occupied registers.
func (m *MSHR) Used() int { return m.regs.Len() }

// Allocate registers a miss on k waking w at completion.
//
//	primary=true  — a new register was allocated; the caller must issue the
//	                downstream request and later call Complete.
//	primary=false, ok=true — merged into an existing register; w fills when
//	                the primary completes, no downstream request needed.
//	ok=false      — MSHR file full; the miss must stall and retry.
func (m *MSHR) Allocate(k Key, w Filler) (primary, ok bool) {
	primary, ok = m.regs.Allocate(k, w, m.cap)
	switch {
	case primary:
		m.Allocated++
		m.PeakUsed = max(m.PeakUsed, m.regs.Len())
	case ok:
		m.Merged++
	default:
		m.Stalled++
	}
	return primary, ok
}

// Complete resolves the register for k, filling every merged waiter with
// the outcome, primary first. Unknown keys are ignored (the register may
// have been flushed).
func (m *MSHR) Complete(k Key, pte vm.PTE, found bool) {
	ws := m.regs.Take(k)
	for _, w := range ws {
		w.Fill(pte, found)
	}
	m.regs.Release(ws)
}

// Waiters returns how many fillers (primary + merged) wait on k.
func (m *MSHR) Waiters(k Key) int { return m.regs.Waiters(k) }

// Reset empties the file and zeroes its statistics, dropping every waiter
// unwoken, so it behaves as NewMSHR(Capacity()).
func (m *MSHR) Reset() {
	m.regs.Reset()
	m.Allocated, m.Merged, m.Stalled, m.PeakUsed = 0, 0, 0, 0
}
