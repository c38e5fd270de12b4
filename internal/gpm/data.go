package gpm

import (
	"hdpat/internal/cache"
	"hdpat/internal/sim"
	"hdpat/internal/vm"
)

// LineFetcher retrieves a cacheline from the owner GPM's memory on behalf of
// requester; the line arrives via requester.FillLine. The system builder
// implements it over the mesh with pooled fetch state machines.
type LineFetcher interface {
	FetchLine(requester *GPM, owner int, line uint64)
}

// Access performs the data access for a translated address: per-CU L1,
// shared L2, then local HBM or a remote fetch from the owner GPM at
// cacheline granularity (§II-A zero-copy). done fires when the data is
// available to the CU. The closure-compat form of the op state machine
// (op.go).
func (g *GPM) Access(cu int, va vm.VAddr, pte vm.PTE, done func()) {
	g.ensure()
	o := g.getOp(cu, va)
	o.doneD = done
	o.startAccess(pte)
}

// Event implements sim.Handler: the GPM's only typed event is an L2 data
// fill (arg.A is the line), posted at HBM completion or remote arrival.
func (g *GPM) Event(arg sim.EventArg) { g.fillL2(arg.A) }

// FillLine delivers a remotely fetched cacheline (LineFetcher completion).
func (g *GPM) FillLine(line uint64) { g.fillL2(line) }

// fillL2 completes an outstanding L2 data miss, then drains stalled accesses
// while MSHR registers remain free. Waiters that hit the freshly filled line
// or merge into another register do not consume a register, so the loop
// keeps waking until one allocates or the queue empties — this is what
// prevents stranding when the last outstanding miss completes.
func (g *GPM) fillL2(line uint64) {
	g.l2Cache.Fill(line)
	for g.l2DataWait.Len() > 0 && g.l2Cache.OutstandingMisses() < g.cfg.L2Cache.MSHRs {
		g.l2DataWait.Pop().stepD2()
	}
}

// ServeLine services a remote cacheline fetch against this GPM's HBM and
// fires h.Event(arg) when the line is read; the system's fetch path routes
// requests here and carries the response back.
func (g *GPM) ServeLine(line uint64, h sim.Handler, arg sim.EventArg) {
	g.ensure()
	doneAt := g.hbm.Access(g.eng.Now(), cache.LineSize)
	g.eng.PostAt(doneAt, h, arg)
}
