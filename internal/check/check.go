// Package check is the opt-in simulation invariant checker: a passive
// observer that rides the existing observation seams — the tracer's typed
// spans (trace.Sink), the IOMMU request hook, the engine's periodic sampler
// and the mesh's link visitor — and cross-checks the simulator's conservation
// laws at run end. It adds no hot-path branches of its own: every signal it
// consumes already exists for metrics, tracing or attribution, so a checked
// run is byte-identical to an unchecked one.
//
// # Invariants
//
// Streaming (checked as spans arrive):
//
//   - request.double-complete: a request's completion span is seen at most
//     once; a duplicate means a lifecycle completed twice.
//   - sampler.lost-window: sampler boundaries arrive strictly in order,
//     exactly one window apart — a gap means time-series windows were
//     silently dropped.
//   - xlat.bad-pfn: via Scheme, every remote translation's completion carries
//     a mapped page. A frame other than the page's current mapping is held
//     as a suspect and resolved at settle (below).
//
// At settle (Finish with Final.Settled):
//
//   - request.conservation: completions equal issued remote requests.
//   - request.dropped: every request that reached the IOMMU completed.
//   - iommu.queue-settle: admission+PW-queue depth and busy walkers are zero.
//   - iommu.conservation: every IOMMU submission terminates in exactly one of
//     the six terminal counters (TLB hit, MSHR merge, walk, revisit,
//     redirect, skipped-completed).
//   - noc.byte-hops: NoC ByteHops equals the bytes observed crossing links
//     hop by hop — both sides accrue per actual link traversal, so the law
//     holds for any routing policy, minimal paths or not.
//   - noc.hops-lower-bound: HopsTotal is at least the sum of Manhattan
//     distances over all messages (routing-aware: equality is additionally
//     required, and Deflections must be zero, when Final.ExactHops marks the
//     routing minimal, as XY is).
//   - noc.deflections: the deflected hops observed crossing links equal
//     Stats.Deflections, and the observed hop count equals HopsTotal.
//   - attr.accounting: summed request-span latency equals the GPMs'
//     RemoteLatencySum, and an attached attribution breakdown is exact
//     (stage sums equal the total, nothing clipped or left unfinished).
//   - sampler.lost-window: no boundary at or before the final cycle is
//     missing.
//   - xlat.bad-pfn: a stale frame is legitimate only as a race with a
//     migration of its page (OnMigration): the PTE's owner is the GPM the
//     page left, and the request was issued before the migration ended.
//   - xlat.stale-entry: via Final.Entries, every valid entry of every
//     materialized GPM's L1, L2 and last-level TLB and auxiliary cache, and
//     of the IOMMU TLB, holds its page's current mapping (frame and owner).
//     A stale entry serving only local hits never reaches xlat.bad-pfn, which
//     sees remote completions; this sweep sees it.
//
// Always (Finish):
//
//   - noc.link-busy: no link's accumulated busy cycles exceed elapsed time.
//
// Violations are collected, not panicked: Finish returns them joined into one
// error (match with errors.Is(err, ErrInvariant)), each naming the invariant,
// the request ID where one applies, and the cycle.
package check

import (
	"errors"
	"fmt"
	"sort"

	"hdpat/internal/attr"
	"hdpat/internal/iommu"
	"hdpat/internal/noc"
	"hdpat/internal/sim"
	"hdpat/internal/vm"
	"hdpat/internal/xlat"
)

// ErrInvariant is the sentinel every Violation matches via errors.Is.
var ErrInvariant = errors.New("simulation invariant violated")

// maxRecorded bounds how many violations are kept verbatim; the total count
// is always exact.
const maxRecorded = 32

// Violation is one invariant breach.
type Violation struct {
	// Invariant names the broken invariant ("request.double-complete", ...).
	Invariant string
	// Req is the request ID involved, 0 when the invariant is not
	// per-request.
	Req uint64
	// Cycle is the simulated time the violation was detected at.
	Cycle uint64
	// Detail is a human-readable explanation.
	Detail string
}

// Error formats the violation naming the invariant, request and cycle.
func (v Violation) Error() string {
	if v.Req != 0 {
		return fmt.Sprintf("invariant %s: %s (req %d, cycle %d)", v.Invariant, v.Detail, v.Req, v.Cycle)
	}
	return fmt.Sprintf("invariant %s: %s (cycle %d)", v.Invariant, v.Detail, v.Cycle)
}

// Is matches ErrInvariant, so errors.Is works through errors.Join.
func (v Violation) Is(target error) bool { return target == ErrInvariant }

// Final is the end-of-run state Finish cross-checks the streamed
// observations against.
type Final struct {
	// Cycle is the engine clock at the end of the run (after draining).
	Cycle uint64
	// Settled is false when a cycle limit cut the run with work in flight;
	// conservation checks that only hold at quiescence are skipped then.
	Settled bool
	// QueueDepth and WalkersBusy are the IOMMU's waiting and in-service
	// counts at the end of the run.
	QueueDepth  int
	WalkersBusy int
	// IOMMU and NoC are the final component stats.
	IOMMU iommu.Stats
	NoC   noc.Stats
	// ExactHops marks the routing policy minimal (XY): every message takes
	// exactly Manhattan(src, dst) hops, so HopsTotal must equal
	// ManhattanTotal and no hop may be deflected. Leave false for
	// non-minimal policies (deflection), where only the lower bound holds.
	ExactHops bool
	// RemoteReqs and RemoteLatencySum aggregate gpm.Stats across GPMs.
	RemoteReqs       uint64
	RemoteLatencySum uint64
	// Breakdown, when non-nil, is the attribution result to check for
	// exactness.
	Breakdown *attr.Breakdown
	// Entries, when non-nil, walks every cached translation for the
	// xlat.stale-entry sweep; Global is the page table they must agree
	// with. Like the link probe, the walk only reads: it must not
	// materialize a GPM.
	Entries func(EntryVisitor)
	Global  *vm.PageTable
}

// EntryVisitor receives one cached translation: the GPM holding it (-1 for
// the IOMMU), its level (gpm.TLBLevels, or "tlb" for the IOMMU) and the
// entry.
type EntryVisitor func(gpm int, level string, pte vm.PTE)

// Checker accumulates observations from the seams it is attached to. It is
// not goroutine-safe: like the tracer and collector it belongs to one engine.
type Checker struct {
	window uint64

	completed  map[uint64]struct{}
	arrived    map[uint64]struct{}
	nComplete  uint64
	latencySum uint64
	hopBytes   uint64
	hopCount   uint64
	hopDefl    uint64
	nextSample uint64

	linkProbe func(attr.LinkVisitor)

	// stale holds completions whose frame was not the page's mapping, and
	// moved the end of the latest migration of each page away from each
	// GPM; Finish matches them at settle.
	stale []staleFrame
	moved map[pageFrom]uint64

	violations []Violation
	nViolated  uint64
}

// New returns an empty checker expecting a sampler boundary every window
// cycles; 0 disables the sampler-coverage invariant.
func New(window uint64) *Checker {
	return &Checker{
		window:     window,
		nextSample: window,
		completed:  make(map[uint64]struct{}),
		arrived:    make(map[uint64]struct{}),
		moved:      make(map[pageFrom]uint64),
	}
}

// violate adds one violation (bounded; the count stays exact).
func (c *Checker) violate(inv string, req, cycle uint64, format string, args ...any) {
	c.nViolated++
	if len(c.violations) < maxRecorded {
		c.violations = append(c.violations, Violation{Invariant: inv, Req: req, Cycle: cycle, Detail: fmt.Sprintf(format, args...)})
	}
}

// Err joins the recorded violations into one error, nil when clean. When more
// violations occurred than were recorded, a summary line notes the overflow.
func (c *Checker) Err() error {
	if c.nViolated == 0 {
		return nil
	}
	errs := make([]error, 0, len(c.violations)+1)
	for _, v := range c.violations {
		errs = append(errs, v)
	}
	if c.nViolated > uint64(len(c.violations)) {
		errs = append(errs, fmt.Errorf("%w: %d further violations not recorded",
			ErrInvariant, c.nViolated-uint64(len(c.violations))))
	}
	return errors.Join(errs...)
}

// IOMMURequest implements iommu.RequestHook: every request reaching the
// IOMMU must eventually complete (checked at settle).
func (c *Checker) IOMMURequest(now sim.VTime, req *xlat.Request) {
	c.arrived[req.ID] = struct{}{}
}

// OnRequest sees one completed translation lifecycle (trace.Sink). Each
// request ID may complete exactly once.
func (c *Checker) OnRequest(start, end uint64, req uint64, source, gpm int) {
	c.nComplete++
	c.latencySum += end - start
	if _, dup := c.completed[req]; dup {
		c.violate("request.double-complete", req, end, "request completed more than once")
		return
	}
	c.completed[req] = struct{}{}
}

// OnQueue implements trace.Sink; queue residency carries no invariant of its
// own beyond what attribution already checks.
func (c *Checker) OnQueue(stage string, start, end uint64, req uint64) {}

// OnWalk implements trace.Sink.
func (c *Checker) OnWalk(start, end uint64, req, vpn uint64) {}

// OnHop accumulates observed link traffic (trace.Sink): at settle the byte
// sum must equal NoC ByteHops, the hop count must equal HopsTotal and the
// deflected count must equal Stats.Deflections — all three accrue per
// actual link traversal on both sides, so the laws are routing-independent.
func (c *Checker) OnHop(start, end uint64, fromX, fromY, toX, toY, size int, deflected bool) {
	c.hopBytes += uint64(size)
	c.hopCount++
	if deflected {
		c.hopDefl++
	}
}

// OnMigration records one completed page migration (trace.Sink): a
// completion that raced it may carry the page's frame under from.
func (c *Checker) OnMigration(start, end uint64, vpn uint64, from, to int) {
	k := pageFrom{vpn, from}
	c.moved[k] = max(c.moved[k], end)
}

// Sample receives one sampler boundary. Boundaries must arrive in order,
// exactly one window apart — anything else means a dropped or duplicated
// time-series window.
func (c *Checker) Sample(at uint64) {
	if c.window == 0 {
		return
	}
	if at != c.nextSample {
		c.violate("sampler.lost-window", 0, at,
			"sampler boundary %d fired, expected %d", at, c.nextSample)
	}
	if at >= c.nextSample {
		c.nextSample = at + c.window
	}
}

// Probes wires the end-of-run link occupancy walk (noc.Mesh.VisitLinks
// adapted). May be nil.
func (c *Checker) Probes(links func(attr.LinkVisitor)) {
	c.linkProbe = links
}

// Finish runs the end-of-run conservation checks against f and returns every
// violation collected over the run joined into one error (nil when the run
// was clean). Checks that only hold at quiescence are skipped when the run
// was cut (f.Settled false).
func (c *Checker) Finish(f Final) error {
	if f.Settled {
		if f.QueueDepth != 0 || f.WalkersBusy != 0 {
			c.violate("iommu.queue-settle", 0, f.Cycle,
				"IOMMU not quiescent at settle: queue depth %d, walkers busy %d",
				f.QueueDepth, f.WalkersBusy)
		}
		s := f.IOMMU
		terminal := s.TLBHits + s.MSHRMerged + s.Walks + s.Revisits + s.RTRedirects + s.SkippedCompleted
		if s.Requests != terminal {
			c.violate("iommu.conservation", 0, f.Cycle,
				"%d IOMMU submissions vs %d terminal outcomes (tlb %d + merged %d + walks %d + revisits %d + redirects %d + skipped %d)",
				s.Requests, terminal, s.TLBHits, s.MSHRMerged, s.Walks, s.Revisits, s.RTRedirects, s.SkippedCompleted)
		}
		if c.nComplete != f.RemoteReqs {
			c.violate("request.conservation", 0, f.Cycle,
				"%d completions observed for %d issued remote requests", c.nComplete, f.RemoteReqs)
		}
		var dropped []uint64
		for id := range c.arrived {
			if _, ok := c.completed[id]; !ok {
				dropped = append(dropped, id)
			}
		}
		sort.Slice(dropped, func(i, j int) bool { return dropped[i] < dropped[j] })
		for _, id := range dropped {
			c.violate("request.dropped", id, f.Cycle,
				"request reached the IOMMU but never completed")
		}
		if c.hopBytes != f.NoC.ByteHops {
			c.violate("noc.byte-hops", 0, f.Cycle,
				"NoC ByteHops %d but %d bytes observed crossing links", f.NoC.ByteHops, c.hopBytes)
		}
		if c.hopCount != f.NoC.HopsTotal {
			c.violate("noc.deflections", 0, f.Cycle,
				"NoC HopsTotal %d but %d hops observed crossing links", f.NoC.HopsTotal, c.hopCount)
		}
		if c.hopDefl != f.NoC.Deflections {
			c.violate("noc.deflections", 0, f.Cycle,
				"NoC Deflections %d but %d deflected hops observed", f.NoC.Deflections, c.hopDefl)
		}
		if f.NoC.HopsTotal < f.NoC.ManhattanTotal {
			c.violate("noc.hops-lower-bound", 0, f.Cycle,
				"HopsTotal %d below the Manhattan lower bound %d", f.NoC.HopsTotal, f.NoC.ManhattanTotal)
		}
		if f.ExactHops {
			if f.NoC.HopsTotal != f.NoC.ManhattanTotal {
				c.violate("noc.hops-lower-bound", 0, f.Cycle,
					"minimal routing took %d hops for a Manhattan total of %d", f.NoC.HopsTotal, f.NoC.ManhattanTotal)
			}
			if f.NoC.Deflections != 0 {
				c.violate("noc.hops-lower-bound", 0, f.Cycle,
					"minimal routing recorded %d deflections", f.NoC.Deflections)
			}
		}
		if c.latencySum != f.RemoteLatencySum {
			c.violate("attr.accounting", 0, f.Cycle,
				"request spans sum to %d cycles, RemoteLatencySum is %d", c.latencySum, f.RemoteLatencySum)
		}
		if b := f.Breakdown; b != nil {
			var stageSum uint64
			for _, st := range attr.StageOrder {
				stageSum += b.Stage(st).Sum
			}
			if total := b.Stage(attr.StageTotal).Sum; stageSum != total {
				c.violate("attr.accounting", 0, f.Cycle,
					"attribution stages sum to %d, total is %d", stageSum, total)
			}
			if b.Clipped != 0 || b.Unfinished != 0 {
				c.violate("attr.accounting", 0, f.Cycle,
					"attribution ledger not exact at settle: %d clipped, %d unfinished", b.Clipped, b.Unfinished)
			}
		}
		if c.window > 0 && c.nextSample <= f.Cycle {
			c.violate("sampler.lost-window", 0, f.Cycle,
				"sampler boundary %d never fired by final cycle %d", c.nextSample, f.Cycle)
		}
		for _, sf := range c.stale {
			// A race needs a migration of the page away from the frame's
			// owner that ended after the request was issued.
			if sf.issued >= c.moved[pageFrom{sf.vpn, sf.owner}] {
				c.violate("xlat.bad-pfn", sf.req, sf.cycle,
					"vpn %#x: pfn %#x of GPM %d from %v, want %#x; no migration from GPM %d ended after the issue at cycle %d",
					sf.vpn, sf.pfn, sf.owner, sf.source, sf.want, sf.owner, sf.issued)
			}
		}
		if f.Entries != nil {
			f.Entries(func(gpm int, level string, pte vm.PTE) {
				want, ok := f.Global.Lookup(pte.VPN)
				if ok && want.PFN == pte.PFN && want.Owner == pte.Owner {
					return
				}
				where := fmt.Sprintf("GPM %d %s", gpm, level)
				if gpm < 0 {
					where = "IOMMU " + level
				}
				if !ok {
					c.violate("xlat.stale-entry", 0, f.Cycle, "%s caches unmapped vpn %#x", where, uint64(pte.VPN))
					return
				}
				c.violate("xlat.stale-entry", 0, f.Cycle,
					"%s caches vpn %#x as pfn %#x of GPM %d, mapped to pfn %#x of GPM %d",
					where, uint64(pte.VPN), uint64(pte.PFN), pte.Owner, uint64(want.PFN), want.Owner)
			})
		}
	}
	if c.linkProbe != nil {
		c.linkProbe(func(x, y int, dir string, busy uint64) {
			if busy > f.Cycle {
				c.violate("noc.link-busy", 0, f.Cycle,
					"link x%dy%d.%s busy %d cycles in a %d-cycle run", x, y, dir, busy, f.Cycle)
			}
		})
	}
	return c.Err()
}

// pageFrom names a page and a GPM it migrated away from.
type pageFrom struct {
	vpn  uint64
	from int
}

// staleFrame is a completion whose frame was not its page's mapping.
type staleFrame struct {
	req, vpn, pfn, want, issued, cycle uint64
	owner                              int
	source                             xlat.Source
}

// Scheme wraps a remote translator so that Checker sees every completion:
// an unmapped page is a violation at once, and a frame other than the
// page's current mapping is held until Finish, which accepts it only as a
// race with a migration of that page (see xlat.bad-pfn). Every scheme,
// migrating or not, is wrapped the same way.
type Scheme struct {
	Inner   xlat.RemoteTranslator
	Global  *vm.PageTable
	Eng     *sim.Engine
	Checker *Checker
}

// Name returns the wrapped scheme's name.
func (s *Scheme) Name() string { return s.Inner.Name() }

// Translate forwards the request through a proxy that checks the completion
// against the global page table before completing the real request.
func (s *Scheme) Translate(req *xlat.Request) {
	proxy := xlat.NewRequest(req.ID, req.PID, req.VPN, req.Requester, req.Issued, func(res xlat.Result) {
		c, cycle := s.Checker, uint64(s.Eng.Now())
		want, ok := s.Global.Lookup(req.VPN)
		if !ok {
			c.violate("xlat.bad-pfn", req.ID, cycle, "vpn %#x: completed but unmapped", uint64(req.VPN))
		} else if want.PFN != res.PTE.PFN {
			c.stale = append(c.stale, staleFrame{
				req: req.ID, vpn: uint64(req.VPN), pfn: uint64(res.PTE.PFN), want: uint64(want.PFN),
				owner: res.PTE.Owner, issued: uint64(req.Issued), cycle: cycle, source: res.Source,
			})
		}
		req.Complete(res)
	})
	s.Inner.Translate(proxy)
}
