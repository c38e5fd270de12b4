package core

import (
	"hdpat/internal/config"
	"hdpat/internal/geom"
	"hdpat/internal/gpm"
	"hdpat/internal/sim"
	"hdpat/internal/vm"
	"hdpat/internal/xlat"
)

// Route is the route-based caching ablation (§IV-B): the request hops
// toward the CPU along its XY path, each intermediate GPM attempting the
// translation from its auxiliary store; on the eventual IOMMU response the
// path GPMs cache the PTE. Its two documented weaknesses — up to five
// attempts of added latency and unbounded PTE duplication — emerge directly.
type Route struct {
	f   *Fabric
	lat config.HDPAT // AuxProbeLatency governs per-hop attempt cost

	Attempts uint64
	Hits     uint64
}

// NewRoute builds the route-based ablation.
func NewRoute(f *Fabric, cfg config.HDPAT) *Route { return &Route{f: f, lat: cfg} }

// Name implements xlat.RemoteTranslator.
func (s *Route) Name() string { return "route" }

// Translate implements xlat.RemoteTranslator.
func (s *Route) Translate(req *xlat.Request) {
	src := s.f.CoordOf(req.Requester)
	path := s.f.Layout.XYPath(src, s.f.Layout.CPU)
	s.step(req, src, path, 0)
}

func (s *Route) step(req *xlat.Request, cur geom.Coord, path []geom.Coord, i int) {
	next := path[i]
	req.Ref() // hop leg: transit plus aux-probe callback
	s.f.Mesh.SendH(cur, next, xlat.ReqBytes, sim.HandlerFunc(func() {
		if next == s.f.Layout.CPU {
			s.f.IOMMU.Submit(req, false)
			// On response, fill the path caches (return-path installs).
			s.fillOnReturn(req, path)
			req.Unref()
			return
		}
		g := s.f.GPMAt(next)
		s.Attempts++
		g.ProbeAux(keyOf(req), s.lat.AuxProbeLatency, gpm.PeerFunc(func(pte vm.PTE, _ xlat.PushOrigin, ok bool) {
			defer req.Unref()
			if ok {
				s.Hits++
				s.f.Respond(next, req, xlat.Result{PTE: pte, Source: xlat.SourceRoute})
				return
			}
			s.step(req, next, path, i+1)
		}))
	}), sim.EventArg{})
}

// fillOnReturn installs the translation into every GPM on the path once the
// IOMMU answers: the response passes each tile on its way back, so each
// path GPM receives the PTE after its hop distance from the CPU.
func (s *Route) fillOnReturn(req *xlat.Request, path []geom.Coord) {
	hop := s.f.Mesh.Config().HopLatency
	s.f.fillOnCompletion(req, func(e vm.PTE, read sim.VTime) {
		for i, c := range path {
			if c == s.f.Layout.CPU {
				continue
			}
			g := s.f.GPMAt(c)
			delay := hop * sim.VTime(len(path)-1-i)
			s.f.Eng.Post(delay, sim.HandlerFunc(func() { g.CacheOnPath(e, read) }), sim.EventArg{})
		}
	})
}

// Concentric is the concentric-caching ablation (§IV-C): one attempt per
// concentric layer — at the layer GPM nearest to the requester — forwarding
// inward on a miss, with no clustering: every layer GPM caches everything it
// serves, so duplication within a layer is unbounded.
type Concentric struct {
	f      *Fabric
	cfg    config.HDPAT
	layers *geom.Layers

	Attempts uint64
	Hits     uint64
}

// NewConcentric builds the concentric-only ablation.
func NewConcentric(f *Fabric, cfg config.HDPAT) *Concentric {
	return &Concentric{f: f, cfg: cfg, layers: geom.NewLayers(f.Layout, cfg.Layers, cfg.Clusters)}
}

// Name implements xlat.RemoteTranslator.
func (s *Concentric) Name() string { return "concentric" }

// nearestInLayer returns the layer-l tile closest (Manhattan) to c.
func (s *Concentric) nearestInLayer(l int, c geom.Coord) geom.Coord {
	best := s.layers.LayerTiles(l)[0]
	bd := c.Manhattan(best)
	for _, t := range s.layers.LayerTiles(l)[1:] {
		if d := c.Manhattan(t); d < bd {
			best, bd = t, d
		}
	}
	return best
}

// Translate implements xlat.RemoteTranslator.
func (s *Concentric) Translate(req *xlat.Request) {
	n := s.layers.NumLayers()
	if n == 0 {
		s.f.ToIOMMU(s.f.CoordOf(req.Requester), req, false)
		return
	}
	s.attempt(req, s.f.CoordOf(req.Requester), n-1)
}

func (s *Concentric) attempt(req *xlat.Request, from geom.Coord, l int) {
	target := s.nearestInLayer(l, from)
	g := s.f.GPMAt(target)
	req.Ref() // attempt leg: transit plus aux-probe callback
	s.f.Mesh.SendH(from, target, xlat.ReqBytes, sim.HandlerFunc(func() {
		s.Attempts++
		g.ProbeAux(keyOf(req), s.cfg.AuxProbeLatency, gpm.PeerFunc(func(pte vm.PTE, _ xlat.PushOrigin, ok bool) {
			defer req.Unref()
			if ok {
				s.Hits++
				s.f.Respond(target, req, xlat.Result{PTE: pte, Source: xlat.SourcePeer})
				return
			}
			if l > 0 {
				s.attempt(req, target, l-1)
				return
			}
			s.f.ToIOMMU(target, req, false)
			// The attempting GPMs cache the eventual translation
			// (unclustered: every server duplicates).
			s.f.fillOnCompletion(req, g.CacheOnPath)
		}))
	}), sim.EventArg{})
}

// Distributed is the straightforward distributed-caching baseline of §V-A:
// the caching GPMs are split into two symmetric groups either side of the
// CPU; a requester probes its group's nearest member, then goes straight to
// the IOMMU — no cross-group lookup, rotation, or redirection.
type Distributed struct {
	f   *Fabric
	cfg config.HDPAT
	// groupPeer[id] is the designated cache peer of GPM id.
	groupPeer []int

	Probes uint64
	Hits   uint64
}

// NewDistributed builds the distributed-caching baseline. It uses the same
// number of caching GPMs as the concentric setup (the tiles of the C rings)
// split into west/east groups by X coordinate relative to the CPU.
func NewDistributed(f *Fabric, cfg config.HDPAT) *Distributed {
	layers := geom.NewLayers(f.Layout, cfg.Layers, cfg.Clusters)
	var west, east []geom.Coord
	for l := 0; l < layers.NumLayers(); l++ {
		for _, t := range layers.LayerTiles(l) {
			if t.X <= f.Layout.CPU.X {
				west = append(west, t)
			} else {
				east = append(east, t)
			}
		}
	}
	s := &Distributed{f: f, cfg: cfg, groupPeer: make([]int, len(f.GPMs))}
	for _, g := range f.GPMs {
		group := west
		if g.Coord.X > f.Layout.CPU.X {
			group = east
		}
		if len(group) == 0 {
			group = append(west, east...)
		}
		best, bd := group[0], g.Coord.Manhattan(group[0])
		for _, t := range group[1:] {
			// A GPM may be its own nearest peer if it is a caching tile.
			if d := g.Coord.Manhattan(t); d < bd {
				best, bd = t, d
			}
		}
		s.groupPeer[g.ID] = f.GPMAt(best).ID
	}
	return s
}

// Name implements xlat.RemoteTranslator.
func (s *Distributed) Name() string { return "distributed" }

// Translate implements xlat.RemoteTranslator.
func (s *Distributed) Translate(req *xlat.Request) {
	peer := s.f.GPMs[s.groupPeer[req.Requester]]
	from := s.f.CoordOf(req.Requester)
	s.Probes++
	req.Ref() // probe leg: transit plus aux-probe callback
	s.f.Mesh.SendH(from, peer.Coord, xlat.ReqBytes, sim.HandlerFunc(func() {
		peer.ProbeAux(keyOf(req), s.cfg.AuxProbeLatency, gpm.PeerFunc(func(pte vm.PTE, _ xlat.PushOrigin, ok bool) {
			defer req.Unref()
			if ok {
				s.Hits++
				s.f.Respond(peer.Coord, req, xlat.Result{PTE: pte, Source: xlat.SourcePeer})
				return
			}
			s.f.ToIOMMU(peer.Coord, req, false)
			// The peer caches the eventual translation for its group.
			s.f.fillOnCompletion(req, peer.CacheOnPath)
		}))
	}), sim.EventArg{})
}
