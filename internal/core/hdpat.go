package core

import (
	"hdpat/internal/config"
	"hdpat/internal/geom"
	"hdpat/internal/gpm"
	"hdpat/internal/sim"
	"hdpat/internal/vm"
	"hdpat/internal/xlat"
)

// HDPAT is the full scheme: on a local miss the requester computes the
// unique caching GPM per concentric layer (clustering + rotation) and
// probes them — concurrently by default, the earliest positive response
// winning; the innermost layer forwards its miss to the IOMMU, whose
// redirection table, PW-queue revisit and proactive delivery are wired in
// through the Push/Redirect hooks.
type HDPAT struct {
	f      *Fabric
	cfg    config.HDPAT
	layers *geom.Layers

	// Stats.
	Probes     uint64
	ProbeHits  uint64
	ToIOMMU    uint64
	RedirectOK uint64
	RedirectNo uint64
}

// NewHDPAT builds the scheme and installs the IOMMU hooks. The IOMMU's own
// configuration (redirection entries, revisit, prefetch degree) governs
// which of the complementary mechanisms are active, so the same constructor
// serves the cluster/redirect/prefetch ablations.
func NewHDPAT(f *Fabric, cfg config.HDPAT) *HDPAT {
	s := &HDPAT{f: f, cfg: cfg, layers: geom.NewLayers(f.Layout, cfg.Layers, cfg.Clusters)}
	f.IOMMU.Push = s.push
	f.IOMMU.Redirect = s.redirect
	return s
}

// Name implements xlat.RemoteTranslator.
func (s *HDPAT) Name() string { return "hdpat" }

// Layers exposes the concentric structure (for tests and tools).
func (s *HDPAT) Layers() *geom.Layers { return s.layers }

// Translate implements xlat.RemoteTranslator.
func (s *HDPAT) Translate(req *xlat.Request) {
	n := s.layers.NumLayers()
	if n == 0 {
		s.sendToIOMMU(req)
		return
	}
	if s.cfg.SequentialLayers {
		s.probeLayer(req, n-1, true)
		return
	}
	// Concurrent probes to every layer's responsible GPM (§IV-D: "requests
	// are sent concurrently to all concentric layers, and the earliest
	// response is returned"). Only the innermost layer escalates its miss.
	for l := 0; l < n; l++ {
		s.probeLayer(req, l, false)
	}
}

// probeLayer sends the request to layer l's home GPM for the VPN.
// sequential selects inward forwarding on a miss (layer l-1 next); in
// concurrent mode only layer 0 escalates, and outer-layer misses die.
func (s *HDPAT) probeLayer(req *xlat.Request, l int, sequential bool) {
	home := s.layers.Home(l, uint64(req.VPN))
	from := s.f.CoordOf(req.Requester)
	if sequential && l < s.layers.NumLayers()-1 {
		// Inward forwarding: the request is at the previous layer's GPM.
		from = s.layers.Home(l+1, uint64(req.VPN))
	}
	s.Probes++
	s.sendProbe(from, home, probe{s: s, req: req, target: s.f.GPMAt(home), layer: l,
		sequential: sequential, state: probeArrive})
}

// probe states: what a leg does when its next event fires.
const (
	probeArrive    = iota // reached a layer's home GPM: probe its aux cache
	redirectArrive        // reached the GPM the redirection table named: probe it
	redirectBounce        // a failed redirect is back at the CPU tile: walk
)

// probe is one HDPAT probe leg: the request's transit to a layer's home GPM
// (or to the GPM the redirection table named), the aux probe there, and
// what its answer leads to. A pooled state machine, it is its own
// sim.Handler for the transits and its own gpm.PeerWaiter for the probe,
// so a leg allocates nothing; it holds one request reference from its send
// to its last step.
type probe struct {
	s          *HDPAT
	req        *xlat.Request
	target     *gpm.GPM
	layer      int
	sequential bool
	state      uint8
}

// sendProbe leases a leg set to p, takes its request reference and sends
// it from one tile to the other.
func (s *HDPAT) sendProbe(from, to geom.Coord, p probe) {
	p.req.Ref()
	leg := s.f.probes.Get()
	*leg = p
	s.f.Mesh.SendH(from, to, xlat.ReqBytes, leg, sim.EventArg{})
}

// Event implements sim.Handler: the leg's transit arrived.
func (p *probe) Event(sim.EventArg) {
	if p.state != redirectBounce {
		p.target.ProbeAux(keyOf(p.req), p.s.cfg.AuxProbeLatency, p)
		return
	}
	// A stale redirection-table entry: drop it and walk.
	s, req := p.s, p.req
	s.f.probes.Put(p)
	if rt := s.f.IOMMU.RT(); rt != nil {
		rt.Remove(keyOf(req))
	}
	s.f.IOMMU.Submit(req, true)
	req.Unref()
}

// PeerDone implements gpm.PeerWaiter: the aux probe answered.
func (p *probe) PeerDone(pte vm.PTE, origin xlat.PushOrigin, ok bool) {
	s, req, home := p.s, p.req, p.target.Coord
	if p.state == redirectArrive && !ok {
		// The redirect missed: bounce the request back for a real walk,
		// on the same leg.
		s.RedirectNo++
		p.state = redirectBounce
		s.f.Mesh.SendH(home, s.f.Layout.CPU, xlat.ReqBytes, p, sim.EventArg{})
		return
	}
	redirected, l, sequential := p.state == redirectArrive, p.layer, p.sequential
	s.f.probes.Put(p)
	switch {
	case redirected:
		s.RedirectOK++
		s.f.Respond(home, req, xlat.Result{PTE: pte, Source: xlat.SourceRedirect})
	case ok:
		s.ProbeHits++
		s.f.Respond(home, req, xlat.Result{PTE: pte, Source: origin.SourceOf()})
	case l == 0:
		s.ToIOMMU++
		s.f.ToIOMMU(home, req, false)
	case sequential:
		s.probeLayer(req, l-1, true)
	default:
		// Concurrent mode: an outer-layer miss is simply dropped; the
		// inner layers or the IOMMU will answer.
	}
	req.Unref()
}

func (s *HDPAT) sendToIOMMU(req *xlat.Request) {
	s.ToIOMMU++
	s.f.ToIOMMU(s.f.CoordOf(req.Requester), req, false)
}

// push implements the IOMMU Push hook: install the PTE in its home GPM of
// each concentric layer (one copy per layer, §IV-F); prefetched PTEs go to
// the innermost layer only, bounding proactive cache pressure. Returns the
// innermost home for the redirection table.
func (s *HDPAT) push(pte vm.PTE, origin xlat.PushOrigin) (int, bool) {
	n := s.layers.NumLayers()
	if n == 0 {
		return 0, false
	}
	if origin == xlat.PushPrefetch {
		n = 1
	}
	innermost := -1
	for l := 0; l < n; l++ {
		home := s.layers.Home(l, uint64(pte.VPN))
		target := s.f.GPMAt(home)
		m := s.f.pushes.Get()
		*m = pushMsg{f: s.f, target: target, pte: pte, origin: origin, read: s.f.Eng.Now()}
		s.f.Mesh.SendH(s.f.Layout.CPU, home, xlat.PushPTEBytes, m, sim.EventArg{})
		if l == 0 {
			innermost = target.ID
		}
	}
	return innermost, true
}

// pushMsg is one pushed PTE on its way to a home GPM, pooled. read is the
// cycle the IOMMU read the PTE.
type pushMsg struct {
	f      *Fabric
	target *gpm.GPM
	pte    vm.PTE
	origin xlat.PushOrigin
	read   sim.VTime
}

// Event implements sim.Handler: install the PTE at its home.
func (m *pushMsg) Event(sim.EventArg) {
	target, pte, origin, read := m.target, m.pte, m.origin, m.read
	m.f.pushes.Put(m)
	target.InstallAux(pte, origin, read)
}

// redirect implements the IOMMU Redirect hook (§IV-F operational flow):
// forward the request to the GPM the redirection table names; a stale entry
// bounces the request back for a real walk and drops the entry.
func (s *HDPAT) redirect(req *xlat.Request, gpmID int) {
	// The IOMMU job releases its reference as soon as Redirect returns, so
	// the redirect leg carries its own.
	target := s.f.GPMs[gpmID]
	s.sendProbe(s.f.Layout.CPU, target.Coord, probe{s: s, req: req, target: target, state: redirectArrive})
}
