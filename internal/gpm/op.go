package gpm

import (
	"hdpat/internal/cache"
	"hdpat/internal/sim"
	"hdpat/internal/tlb"
	"hdpat/internal/vm"
)

// opState names the stage an in-flight memory operation resumes at when its
// next event fires. The states mirror, one for one, the closure chain they
// replaced (Translate → translateL2 → checkFilter → LLTLB → walk, then
// Access → L2 → fill), so the event schedule — and therefore every result —
// is unchanged; only the per-step closure allocations are gone.
type opState uint8

const (
	opL1       opState = iota // L1 TLB lookup after its latency
	opL2                      // shared L2 TLB lookup after its latency
	opFilter                  // cuckoo filter decision
	opLL                      // last-level GMMU cache lookup
	opWalkDone                // local page-table walk completed
	opRetryL2                 // woken after stalling on a full L2 TLB MSHR file
	opD1                      // L1 data cache lookup
	opD2                      // shared L2 data access body
)

// op is one memory operation in flight: a pooled state machine that is its
// own event handler (sim.Handler), TLB MSHR waiter (tlb.Filler) and data
// MSHR waiter (cache.Waiter). The phases are strictly sequential, so one
// object can wear all three hats without conflict. CU-issued ops run
// translate → access → opDone end to end; the exported Translate/Access
// closure wrappers set doneT/doneD instead and stop after their phase.
type op struct {
	g     *GPM
	cu    int
	va    vm.VAddr
	k     tlb.Key
	line  uint64
	owner int
	state opState

	doneT func(vm.PTE) // compat completion for Translate(); nil on the CU path
	doneD func()       // compat completion for Access(); nil on the CU path
}

// getOp leases an op from the GPM's free list.
func (g *GPM) getOp(cu int, va vm.VAddr) *op {
	var o *op
	if n := len(g.opFree); n > 0 {
		o = g.opFree[n-1]
		g.opFree = g.opFree[:n-1]
	} else {
		o = new(op)
	}
	*o = op{g: g, cu: cu, va: va}
	return o
}

// putOp recycles a finished op. Ops are freed exactly once, at the end of
// their last phase; no event or MSHR entry may reference them afterwards.
func (g *GPM) putOp(o *op) {
	*o = op{}
	g.opFree = append(g.opFree, o)
}

// Event resumes the operation at its recorded stage.
func (o *op) Event(sim.EventArg) {
	switch o.state {
	case opL1:
		o.stepL1()
	case opL2:
		o.stepL2()
	case opFilter:
		o.stepFilter()
	case opLL:
		o.stepLL()
	case opWalkDone:
		o.stepWalkDone()
	case opRetryL2:
		o.tryL2()
	case opD1:
		o.stepD1()
	case opD2:
		o.stepD2()
	}
}

// --- Translation phase ------------------------------------------------------

// startTranslate begins the translation walk for o.va.
func (o *op) startTranslate() {
	g := o.g
	o.k = tlb.Key{PID: 0, VPN: g.ps.VPNOf(o.va)}
	o.state = opL1
	g.eng.Post(g.l1TLBs[o.cu].Latency(), o, sim.EventArg{})
}

func (o *op) stepL1() {
	g := o.g
	if pte, ok := g.l1TLBs[o.cu].Lookup(o.k); ok {
		g.Stats.L1TLBHits++
		o.translated(pte)
		return
	}
	o.tryL2()
}

// tryL2 attempts to register the miss at the shared L2 TLB; also the resume
// point after an MSHR-full stall.
func (o *op) tryL2() {
	g := o.g
	primary, ok := g.l2MSHR.Allocate(o.k, o)
	if !ok {
		// MSHR file full: the request stalls at the L2 TLB boundary and
		// resumes when a register frees.
		g.Stats.MSHRRetries++
		g.l2TLBWait = append(g.l2TLBWait, o)
		return
	}
	if !primary {
		return // coalesced into an earlier miss; Fill wakes us
	}
	o.state = opL2
	g.eng.Post(g.l2TLB.Latency(), o, sim.EventArg{})
}

func (o *op) stepL2() {
	g := o.g
	if pte, ok := g.l2TLB.Lookup(o.k); ok {
		g.Stats.L2TLBHits++
		g.completeL2(o.k, pte, true)
		return
	}
	o.state = opFilter
	g.eng.Post(g.cfg.CuckooLatency, o, sim.EventArg{})
}

// stepFilter consults the cuckoo filter (§II-B): negative answers bypass the
// whole local path; positives proceed through LLTLB and GMMU, with false
// positives paying the doubled-latency penalty before going remote.
func (o *op) stepFilter() {
	g := o.g
	if !g.filter.Contains(filterKey(o.k)) {
		g.Stats.FilterNegative++
		o.goRemote()
		return
	}
	g.Stats.FilterPositive++
	o.state = opLL
	g.eng.Post(g.llTLB.Latency(), o, sim.EventArg{})
}

func (o *op) stepLL() {
	g := o.g
	if pte, ok := g.llTLB.Lookup(o.k); ok {
		g.Stats.LLTLBHits++
		g.finishLocal(o.k, pte)
		return
	}
	// GMMU page-table walk over the local table, modelling walker pool
	// contention (the same pool WalkForPeer shares).
	g.Stats.LocalWalks++
	start := g.walkers.Acquire(g.eng.Now(), g.cfg.WalkCycles)
	o.state = opWalkDone
	g.eng.PostAt(start+g.cfg.WalkCycles, o, sim.EventArg{})
}

func (o *op) stepWalkDone() {
	g := o.g
	pte, found := g.localPT.Lookup(o.k.VPN)
	if found {
		g.llTLB.Insert(pte)
		g.finishLocal(o.k, pte)
		return
	}
	g.Stats.FalsePositives++
	o.goRemote()
}

// goRemote hands the translation to the active scheme via a pooled request.
// The GPM is the request's Completer; its RequestDone drops the creator
// reference after filling the L2 TLB.
func (o *op) goRemote() {
	g := o.g
	g.Stats.RemoteRequests++
	req := g.ReqPool.Get(g.NextReqID(), o.k.PID, o.k.VPN, g.ID, g.eng.Now(), g)
	g.Remote.Translate(req)
}

// Fill implements tlb.Filler: the L2 TLB MSHR resolved this op's key.
// completeL2 passes found false for a translation that raced a shootdown:
// the op uses it without filling its L1 TLB.
func (o *op) Fill(pte vm.PTE, found bool) {
	if found {
		o.g.l1TLBs[o.cu].Insert(pte)
	}
	o.translated(pte)
}

// translated ends the translation phase: hand back to a Translate() caller,
// or continue into the data access on the CU path.
func (o *op) translated(pte vm.PTE) {
	if o.doneT != nil {
		done := o.doneT
		o.g.putOp(o)
		done(pte)
		return
	}
	o.startAccess(pte)
}

// --- Data phase -------------------------------------------------------------

// startAccess begins the data access once the translation is known.
func (o *op) startAccess(pte vm.PTE) {
	g := o.g
	pa := g.ps.Translate(o.va, pte.PFN)
	o.line = cache.LineOf(pa)
	o.owner = pte.Owner
	o.state = opD1
	g.eng.Post(g.l1Caches[o.cu].Latency(), o, sim.EventArg{})
}

func (o *op) stepD1() {
	g := o.g
	if g.l1Caches[o.cu].Lookup(o.line) {
		o.accessDone()
		return
	}
	o.state = opD2
	g.eng.Post(g.l2Cache.Latency(), o, sim.EventArg{})
}

// stepD2 is the post-latency L2 access body. It runs synchronously from the
// fillL2 drain loop too, so the loop can observe register consumption
// between waiters.
func (o *op) stepD2() {
	g := o.g
	if g.l2Cache.Lookup(o.line) {
		g.l1Caches[o.cu].Insert(o.line)
		o.accessDone()
		return
	}
	primary, ok := g.l2Cache.MissTrack(o.line, o)
	if !ok {
		// L2 MSHRs exhausted: stall at the L2 boundary; resume when a
		// register frees.
		g.Stats.MSHRRetries++
		g.l2DataWait = append(g.l2DataWait, o)
		return
	}
	if !primary {
		return
	}
	if o.owner == g.ID {
		g.Stats.LocalAccesses++
		doneAt := g.hbm.Access(g.eng.Now(), cache.LineSize)
		// The fill event targets the GPM itself (its Event is fillL2), not
		// the op: merged waiters ride the same fill.
		g.eng.PostAt(doneAt, g, sim.EventArg{A: o.line})
		return
	}
	g.Stats.RemoteAccesses++
	g.Fetch.FetchLine(g, o.owner, o.line)
}

// LineFilled implements cache.Waiter: the L2 data miss for o.line resolved.
func (o *op) LineFilled(uint64) {
	o.g.l1Caches[o.cu].Insert(o.line)
	o.accessDone()
}

// accessDone ends the data phase and recycles the op.
func (o *op) accessDone() {
	if o.doneD != nil {
		done := o.doneD
		o.g.putOp(o)
		done()
		return
	}
	g, cu := o.g, o.cu
	g.putOp(o)
	g.opDone(cu)
}
