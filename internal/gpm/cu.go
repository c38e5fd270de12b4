package gpm

import (
	"hdpat/internal/sim"
	"hdpat/internal/vm"
)

// cuState is the issue engine of one compute unit: it walks its address
// trace with bounded memory-level parallelism (cfg.MLP outstanding ops) and
// a fixed issue gap modelling the kernel's compute intensity. It is its own
// event handler — issue wake-ups and gap ticks post the cuState itself, so
// the steady-state issue loop allocates nothing.
type cuState struct {
	g          *GPM
	idx        int
	trace      []vm.VAddr
	next       int
	inflight   int
	stalled    bool      // true when issue is waiting for an op to retire
	stallSince sim.VTime // cycle the current stall began, for stall accounting
	armed      bool      // an issue event is scheduled
}

// Event implements sim.Handler: every event posted on a CU is an issue tick.
func (c *cuState) Event(sim.EventArg) { c.g.issue(c.idx) }

// LoadTrace assigns the address trace CU cu will execute. All traces must be
// loaded before Start; the issue machinery holds pointers into g.cus.
func (g *GPM) LoadTrace(cu int, trace []vm.VAddr) {
	if len(trace) == 0 && len(g.cus) == 0 {
		// Nothing to run and nothing built yet: an all-idle GPM never grows
		// its CU array (or the rest of its hierarchy — see ensure).
		return
	}
	for len(g.cus) < g.cfg.NumCUs {
		g.cus = append(g.cus, cuState{})
	}
	g.cus[cu].trace = trace
}

// Start launches all CUs. gap is the per-CU issue interval in cycles;
// onFinish fires once, when the last op of the last CU completes. A GPM
// whose CUs all have empty traces finishes immediately.
func (g *GPM) Start(gap sim.VTime, onFinish func(id int, at sim.VTime)) {
	if gap < 1 {
		gap = 1
	}
	g.gap = gap
	g.onFinish = onFinish
	if len(g.cus) > 0 {
		for len(g.cus) < g.cfg.NumCUs {
			g.cus = append(g.cus, cuState{})
		}
	}
	g.running = 0
	for i := range g.cus {
		g.cus[i].g = g
		g.cus[i].idx = i
		if len(g.cus[i].trace) > 0 {
			g.running++
		}
	}
	if g.running == 0 {
		// Idle GPM: finish immediately (same event time as the eager
		// layout) without materializing anything.
		fin := g.onFinish
		g.eng.Post(0, sim.HandlerFunc(func() { fin(g.ID, g.eng.Now()) }), sim.EventArg{})
		return
	}
	g.ensure()
	for i := range g.cus {
		if len(g.cus[i].trace) > 0 {
			// Stagger CU start cycles slightly to avoid artificial lockstep.
			g.cus[i].armed = true
			g.eng.Post(sim.VTime(i%8), &g.cus[i], sim.EventArg{})
		}
	}
}

func (g *GPM) issue(cu int) {
	c := &g.cus[cu]
	c.armed = false
	if c.next >= len(c.trace) {
		return
	}
	if c.inflight >= g.cfg.MLP {
		c.stalled = true
		c.stallSince = g.eng.Now()
		return
	}
	va := c.trace[c.next]
	c.next++
	c.inflight++
	g.Stats.OpsIssued++
	// Launch the op end to end: translate, then access, then opDone — no
	// per-op callbacks on this path.
	g.getOp(cu, va).startTranslate()
	if c.next < len(c.trace) {
		c.armed = true
		g.eng.Post(g.gap, c, sim.EventArg{})
	}
}

func (g *GPM) opDone(cu int) {
	c := &g.cus[cu]
	c.inflight--
	g.Stats.OpsCompleted++
	if c.stalled && !c.armed {
		stalled := uint64(g.eng.Now() - c.stallSince)
		g.Stats.CUStallCycles += stalled
		c.stalled = false
		c.armed = true
		g.eng.Post(0, c, sim.EventArg{})
	}
	if c.next >= len(c.trace) && c.inflight == 0 {
		g.running--
		if g.running == 0 {
			g.Stats.FinishTime = g.eng.Now()
			g.onFinish(g.ID, g.eng.Now())
		}
	}
}

// Outstanding reports total in-flight ops across CUs (for tests).
func (g *GPM) Outstanding() int {
	n := 0
	for i := range g.cus {
		n += g.cus[i].inflight
	}
	return n
}
