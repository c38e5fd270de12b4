// Package schemes implements the translation comparators the paper
// evaluates against (§V-A): the naive centralized baseline, Trans-FW
// (remote-forwarded page table walks), Valkyrie (inter-TLB locality among
// mesh neighbours) and Barre (PW-queue coalescing at the IOMMU). Each is a
// faithful reimplementation of the cited paper's core mechanism at the
// fidelity of this simulator; see DESIGN.md §4.
package schemes

import (
	"hdpat/internal/core"
	"hdpat/internal/geom"
	"hdpat/internal/gpm"
	"hdpat/internal/sim"
	"hdpat/internal/tlb"
	"hdpat/internal/vm"
	"hdpat/internal/xlat"
)

// Naive sends every remote translation to the central IOMMU: the baseline
// configuration all results are normalised to.
type Naive struct {
	f *Fabric
}

// Fabric is re-exported so callers need only one import.
type Fabric = core.Fabric

// NewNaive builds the baseline scheme.
func NewNaive(f *Fabric) *Naive { return &Naive{f: f} }

// Name implements xlat.RemoteTranslator.
func (s *Naive) Name() string { return "baseline" }

// Translate implements xlat.RemoteTranslator.
func (s *Naive) Translate(req *xlat.Request) {
	s.f.ToIOMMU(s.f.CoordOf(req.Requester), req, false)
}

// Barre is the naive routing plus the IOMMU PW-queue revisit: identical
// pending walks coalesce when a walker completes. The revisit itself lives
// in the IOMMU (cfg.Revisit); this scheme only names the configuration.
type Barre struct {
	Naive
}

// NewBarre builds the Barre comparator; the caller must enable
// IOMMU.Revisit in the configuration.
func NewBarre(f *Fabric) *Barre { return &Barre{Naive{f: f}} }

// Name implements xlat.RemoteTranslator.
func (s *Barre) Name() string { return "barre" }

// TransFW models Trans-FW (HPCA'23) at this paper's characterisation:
// Trans-FW short-circuits the *memory accesses of the page table walk* by
// forwarding pointer chases to the GPU holding the page-table pages, so
// walks complete faster — but translation requests still route through the
// centralized IOMMU and its 16 walkers ("remote address translation
// requests still burden the IOMMU", §V-B). The walk-latency reduction is
// configured in wafer.ConfigFor (500 -> 300 cycles: the three leaf levels
// no longer cross the wafer); the routing here is the baseline's.
type TransFW struct {
	Naive
}

// NewTransFW builds the Trans-FW comparator; the caller configures the
// reduced IOMMU walk latency.
func NewTransFW(f *Fabric) *TransFW { return &TransFW{Naive{f: f}} }

// Name implements xlat.RemoteTranslator.
func (s *TransFW) Name() string { return "transfw" }

// OwnerFW is an extension scheme (not in the paper): it forwards the whole
// translation to the page's owner GPM, computable under the deterministic
// block placement, whose GMMU walks its local page table — bypassing the
// IOMMU entirely. It shows what a fully distributed walk fabric would buy:
// its costs (owner GMMU walker contention on hot partitions, cross-wafer
// hop distance) and its substantial aggregate walker parallelism both
// surface naturally.
type OwnerFW struct {
	f *Fabric

	// Stats.
	Forwarded uint64
	Fallback  uint64
}

// NewOwnerFW builds the owner-forwarding extension scheme.
func NewOwnerFW(f *Fabric) *OwnerFW { return &OwnerFW{f: f} }

// Name implements xlat.RemoteTranslator.
func (s *OwnerFW) Name() string { return "ownerfw" }

// Translate implements xlat.RemoteTranslator.
func (s *OwnerFW) Translate(req *xlat.Request) {
	owner, ok := s.f.Placement.OwnerOf(req.VPN)
	from := s.f.CoordOf(req.Requester)
	if !ok || owner == req.Requester {
		// Unmapped or supposedly-local page: let the IOMMU sort it out.
		s.Fallback++
		s.f.ToIOMMU(from, req, false)
		return
	}
	s.Forwarded++
	target := s.f.GPMs[owner]
	req.Ref() // forward leg: transit plus the peer walk
	s.f.Mesh.SendH(from, target.Coord, xlat.ReqBytes, sim.HandlerFunc(func() {
		target.WalkForPeer(key(req), gpm.PeerFunc(func(pte vm.PTE, _ xlat.PushOrigin, found bool) {
			defer req.Unref()
			if found {
				s.f.Respond(target.Coord, req, xlat.Result{PTE: pte, Source: xlat.SourceOwner})
				return
			}
			s.Fallback++
			s.f.ToIOMMU(target.Coord, req, false)
		}))
	}), sim.EventArg{})
}

// Valkyrie exploits inter-TLB locality (PACT'20): before burdening the
// IOMMU, the requester probes the shared L2 TLBs of its mesh neighbours;
// only if all of them miss does the request travel to the CPU.
type Valkyrie struct {
	f *Fabric

	// Stats.
	Probes uint64
	Hits   uint64
}

// NewValkyrie builds the Valkyrie comparator.
func NewValkyrie(f *Fabric) *Valkyrie { return &Valkyrie{f: f} }

// Name implements xlat.RemoteTranslator.
func (s *Valkyrie) Name() string { return "valkyrie" }

// Translate implements xlat.RemoteTranslator.
func (s *Valkyrie) Translate(req *xlat.Request) {
	from := s.f.CoordOf(req.Requester)
	var neighbours []geom.Coord
	for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
		c := geom.XY(from.X+d[0], from.Y+d[1])
		if s.f.Layout.Contains(c) && s.f.GPMAt(c) != nil {
			neighbours = append(neighbours, c)
		}
	}
	if len(neighbours) == 0 {
		s.f.ToIOMMU(from, req, false)
		return
	}
	misses := 0
	total := len(neighbours)
	for _, nb := range neighbours {
		nb := nb
		target := s.f.GPMAt(nb)
		s.Probes++
		req.Ref() // probe leg: transit, L2 probe and possible miss response
		s.f.Mesh.SendH(from, nb, xlat.ReqBytes, sim.HandlerFunc(func() {
			target.ProbeL2TLB(key(req), gpm.PeerFunc(func(pte vm.PTE, _ xlat.PushOrigin, ok bool) {
				if ok {
					s.Hits++
					s.f.Respond(nb, req, xlat.Result{PTE: pte, Source: xlat.SourceNeighbor})
					req.Unref()
					return
				}
				// Miss responses return to the requester; after the last
				// one, escalate to the IOMMU.
				s.f.Mesh.SendH(nb, from, xlat.MissRespBytes, sim.HandlerFunc(func() {
					misses++
					if misses == total && !req.Completed() {
						s.f.ToIOMMU(from, req, false)
					}
					req.Unref()
				}), sim.EventArg{})
			}))
		}), sim.EventArg{})
	}
}

func key(req *xlat.Request) tlb.Key {
	return tlb.Key{PID: req.PID, VPN: req.VPN}
}
