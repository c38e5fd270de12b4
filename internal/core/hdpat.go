package core

import (
	"hdpat/internal/config"
	"hdpat/internal/geom"
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
	target := s.f.At(home)
	from := s.f.CoordOf(req.Requester)
	if sequential && l < s.layers.NumLayers()-1 {
		// Inward forwarding: the request is at the previous layer's GPM.
		from = s.layers.Home(l+1, uint64(req.VPN))
	}
	s.Probes++
	req.Ref() // probe leg: transit plus aux-probe callback
	s.f.Mesh.Send(from, home, xlat.ReqBytes, func() {
		target.ProbeAux(keyOf(req), s.cfg.AuxProbeLatency, func(pte vm.PTE, origin xlat.PushOrigin, ok bool) {
			defer req.Unref()
			if ok {
				s.ProbeHits++
				s.f.Respond(home, req, xlat.Result{PTE: pte, Source: origin.SourceOf()})
				return
			}
			if l == 0 {
				s.ToIOMMU++
				s.f.ToIOMMU(home, req, false)
				return
			}
			if sequential {
				s.probeLayer(req, l-1, true)
			}
			// Concurrent mode: an outer-layer miss is simply dropped; the
			// inner layers or the IOMMU will answer.
		})
	})
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
		target := s.f.At(home)
		p := pte
		s.f.Mesh.Send(s.f.Layout.CPU, home, xlat.PushPTEBytes, func() {
			target.InstallAux(p, origin)
		})
		if l == 0 {
			innermost = target.ID
		}
	}
	return innermost, true
}

// redirect implements the IOMMU Redirect hook (§IV-F operational flow):
// forward the request to the GPM the redirection table names; a stale entry
// bounces the request back for a real walk and drops the entry.
func (s *HDPAT) redirect(req *xlat.Request, gpmID int) {
	target := s.f.GPMs[gpmID]
	cpu := s.f.Layout.CPU
	// The IOMMU job releases its reference as soon as Redirect returns, so
	// the redirect legs carry their own.
	req.Ref()
	s.f.Mesh.Send(cpu, target.Coord, xlat.ReqBytes, func() {
		target.ProbeAux(keyOf(req), s.cfg.AuxProbeLatency, func(pte vm.PTE, _ xlat.PushOrigin, ok bool) {
			if ok {
				s.RedirectOK++
				s.f.Respond(target.Coord, req, xlat.Result{PTE: pte, Source: xlat.SourceRedirect})
				req.Unref()
				return
			}
			s.RedirectNo++
			s.f.Mesh.Send(target.Coord, cpu, xlat.ReqBytes, func() {
				if rt := s.f.IOMMU.RT(); rt != nil {
					rt.Remove(keyOf(req))
				}
				s.f.IOMMU.Submit(req, true)
				req.Unref()
			})
		})
	})
}
