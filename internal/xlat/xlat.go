// Package xlat defines the types shared between the GPM, IOMMU and the
// translation schemes: the remote translation request, its completion
// result, the taxonomy of "who served this translation" used by Fig 16, and
// the wire-message size constants charged against the mesh.
package xlat

import (
	"fmt"

	"hdpat/internal/sim"
	"hdpat/internal/vm"
)

// Message sizes in bytes, charged against NoC bandwidth. A translation
// request carries a VPN plus routing metadata; a response carries a PTE;
// pushes batch one PTE per entry. Data traffic moves whole cachelines.
const (
	ReqBytes      = 16
	RespBytes     = 16
	MissRespBytes = 8
	PushPTEBytes  = 16
	DataReqBytes  = 16
	DataRespBytes = 72 // 64 B line + header
)

// Source says which mechanism ultimately produced a translation, the
// categories of the Fig 16 breakdown.
type Source int

const (
	// SourceIOMMU: resolved by an IOMMU page-table walk (including walks
	// whose response was batched by the PW-queue revisit).
	SourceIOMMU Source = iota
	// SourcePeer: hit in an auxiliary GPM cache reached by the concentric
	// probe, where the entry had been installed by a demand push.
	SourcePeer
	// SourceProactive: hit on an entry that reached its location via
	// proactive page-entry delivery (prefetch).
	SourceProactive
	// SourceRedirect: served via the IOMMU redirection table pointing the
	// request at a peer GPM.
	SourceRedirect
	// SourceOwner: served by the page owner's GMMU (Trans-FW).
	SourceOwner
	// SourceNeighbor: served by a mesh neighbour's L2 TLB (Valkyrie).
	SourceNeighbor
	// SourceRoute: served by an intermediate GPM on the route toward the
	// IOMMU (route-based caching ablation).
	SourceRoute

	numSources
)

// NumSources is the number of distinct Source values.
const NumSources = int(numSources)

var sourceNames = [...]string{
	"iommu", "peer", "proactive", "redirect", "owner", "neighbor", "route",
}

func (s Source) String() string {
	if int(s) < len(sourceNames) {
		return sourceNames[s]
	}
	return "unknown"
}

// Offloaded reports whether the source counts as offloaded from the IOMMU
// walker path (the paper's 42.1 % claim counts everything except walks).
func (s Source) Offloaded() bool { return s != SourceIOMMU }

// Result is the outcome of a remote translation.
type Result struct {
	PTE    vm.PTE
	Source Source
}

// Request is one remote translation request: a GPM failed to translate VPN
// locally and asks the active scheme to resolve it. Exactly one Complete
// call wins; late responses (a concurrent layer probe losing the race, a
// stale IOMMU response after a peer hit) are dropped, mirroring how the
// requesting GMMU's MSHR entry is freed by the first fill.
//
// # Pooling lifetime
//
// Requests on the hot path come from a per-run RequestPool and recycle once
// every in-flight leg has let go (docs/performance.md spells out the rules):
//
//   - The creator holds the first reference; each additional asynchronous
//     leg that will later read request fields (a concentric probe chain, an
//     in-flight mesh hop carrying the request, a pending IOMMU job) takes
//     one with Ref and drops it with Unref when the leg ends.
//   - Completion (Complete/CompleteIf) marks the request completed and
//     advances the generation; it does NOT free. The object returns to the
//     pool only when the last reference unwinds, so late legs — the
//     SkippedCompleted walk skip, a losing probe, a stale poll — still read
//     coherent fields.
//   - Anything that may outlive the last reference must not touch the
//     request at all: capture the generation with Gen at spawn time and
//     finish through CompleteIf/CompletedFor, which a recycled object
//     rejects by generation mismatch.
type Request struct {
	ID        uint64
	PID       vm.PID
	VPN       vm.VPN
	Requester int // GPM index
	Issued    sim.VTime

	done func(Result)
	c    Completer

	// completed marks a delivered result; the first Complete sets it.
	completed bool

	// Attempt counts translation lookups performed on behalf of this
	// request before resolution (peer probes, walk), for diagnostics.
	Attempt int

	pool     *RequestPool // nil for unpooled requests (NewRequest)
	refs     int32
	gen      uint32
	released bool
}

// Completer receives a pooled request's result. It is the typed counterpart
// of the done closure: one long-lived implementation (the issuing GPM)
// serves every request, so the completion path allocates nothing.
type Completer interface {
	RequestDone(req *Request, res Result)
}

// RequestPool recycles Request objects within one simulation run as a
// plain freelist: a run executes on one goroutine, so leasing and releasing
// need no synchronisation. Pools are deliberately per-run, not global: a
// global pool would hand an object recycled by one run to a parallel batch
// worker while a stale reader from the first run still held the pointer.
type RequestPool struct {
	free []*Request
}

// NewRequestPool returns an empty pool.
func NewRequestPool() *RequestPool { return &RequestPool{} }

// Get leases a request for one translation. The caller (the issuing GPM)
// holds the initial reference and drops it with Unref at the end of its
// RequestDone.
func (p *RequestPool) Get(id uint64, pid vm.PID, vpn vm.VPN, requester int, issued sim.VTime, c Completer) *Request {
	var r *Request
	if n := len(p.free); n > 0 {
		r = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		r = new(Request)
	}
	gen := r.gen // survives recycling; everything else is reset
	*r = Request{ID: id, PID: pid, VPN: vpn, Requester: requester,
		Issued: issued, c: c, pool: p, refs: 1, gen: gen}
	return r
}

// poolChecks arms the released-request tripwire: with checks on, touching a
// request after its last reference unwound panics instead of silently
// corrupting a recycled object. Test builds switch it on via SetPoolChecks;
// it costs one predictable branch per operation otherwise.
var poolChecks bool

// SetPoolChecks toggles released-request mutation panics (test builds).
func SetPoolChecks(on bool) { poolChecks = on }

// checkLive panics if the request was already released back to its pool.
func (r *Request) checkLive(op string) {
	if poolChecks && r.released {
		panic(fmt.Sprintf("xlat: %s on released request (id=%d gen=%d)", op, r.ID, r.gen))
	}
}

// NewRequest builds an unpooled request; done is invoked exactly once at
// completion. The cold-path constructor: validation proxies and tests use
// it, hot components lease from a RequestPool instead.
func NewRequest(id uint64, pid vm.PID, vpn vm.VPN, requester int, issued sim.VTime, done func(Result)) *Request {
	return &Request{ID: id, PID: pid, VPN: vpn, Requester: requester, Issued: issued, done: done, refs: 1}
}

// Gen returns the request's generation, captured by legs that may outlive
// the object (see CompleteIf).
func (r *Request) Gen() uint32 { return r.gen }

// Ref takes one reference on behalf of an asynchronous leg that will read
// request fields later. Balance with Unref when the leg ends.
func (r *Request) Ref() {
	r.checkLive("Ref")
	r.refs++
}

// Unref drops one reference. When the last one unwinds the generation
// advances (invalidating every outstanding CompleteIf/CompletedFor token)
// and the object returns to its pool.
func (r *Request) Unref() {
	r.checkLive("Unref")
	r.refs--
	if r.refs > 0 {
		return
	}
	if r.refs < 0 {
		panic(fmt.Sprintf("xlat: Unref underflow (id=%d)", r.ID))
	}
	r.gen++
	r.released = true
	if r.pool != nil {
		r.pool.free = append(r.pool.free, r)
	}
}

// Complete delivers the result; only the first call has effect.
// It reports whether this call was the winning one.
func (r *Request) Complete(res Result) bool {
	r.checkLive("Complete")
	if r.completed {
		return false
	}
	r.completed = true
	if r.c != nil {
		r.c.RequestDone(r, res)
	} else {
		r.done(res)
	}
	return true
}

// CompleteIf is Complete for legs that hold no reference: gen was captured
// while the request was provably live, and a mismatch means the object was
// recycled (or the leg's request completed and the pointer now belongs to a
// different translation) — the delivery is dropped, exactly like a losing
// Complete race.
func (r *Request) CompleteIf(gen uint32, res Result) bool {
	if gen != r.gen || r.completed {
		return false
	}
	return r.Complete(res)
}

// Completed reports whether a result was already delivered. Only holders of
// a reference may call it; reference-free legs use CompletedFor.
func (r *Request) Completed() bool {
	r.checkLive("Completed")
	return r.completed
}

// CompletedFor reports whether the translation identified by gen is over —
// either completed, or recycled out from under a reference-free observer.
func (r *Request) CompletedFor(gen uint32) bool {
	return gen != r.gen || r.completed
}

// RemoteTranslator is a translation scheme: the strategy a GPM invokes when
// a virtual page cannot be translated locally. Implementations are the
// baseline (straight to the IOMMU), HDPAT and its ablations, and the
// Trans-FW / Valkyrie / Barre comparators.
type RemoteTranslator interface {
	// Name identifies the scheme in results tables.
	Name() string
	// Translate resolves req, eventually calling req.Complete.
	Translate(req *Request)
}

// PushOrigin distinguishes how a PTE reached an auxiliary cache, so a later
// hit can be attributed to peer caching vs proactive delivery (Fig 16).
type PushOrigin int

const (
	// PushDemand: pushed after a demand walk whose access count crossed
	// the selective-caching threshold.
	PushDemand PushOrigin = iota
	// PushPrefetch: delivered proactively for a not-yet-requested VPN.
	PushPrefetch
)

// SourceOf maps a push origin to the serving source it produces on a hit.
func (o PushOrigin) SourceOf() Source {
	if o == PushPrefetch {
		return SourceProactive
	}
	return SourcePeer
}
