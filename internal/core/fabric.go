// Package core implements the paper's contribution: the HDPAT translation
// scheme — concentric auxiliary caching with quadrant clustering and
// rotation (§IV-C/D/E), wired to the IOMMU's redirection table and
// proactive delivery (§IV-F/G) — together with the weaker peer-caching
// designs the ablation study walks through (route-based, concentric-only,
// and the distributed-caching baseline of §V-A).
package core

import (
	"hdpat/internal/geom"
	"hdpat/internal/gpm"
	"hdpat/internal/iommu"
	"hdpat/internal/noc"
	"hdpat/internal/sim"
	"hdpat/internal/tlb"
	"hdpat/internal/vm"
	"hdpat/internal/xlat"
)

// Fabric bundles the assembled wafer hardware a scheme operates over.
type Fabric struct {
	Eng    *sim.Engine
	Mesh   *noc.Mesh
	Layout *geom.Layout
	GPMs   []*gpm.GPM // indexed by GPM id
	IOMMU  *iommu.IOMMU
	// Placement provides owner arithmetic (Trans-FW needs OwnerOf).
	Placement *vm.Placement

	byCoord map[geom.Coord]*gpm.GPM
	msgFree []*reqMsg
	// shot is the shootdown ledger, made at the first Shootdown and shared
	// with every GPM; nil until then, so runs that never shoot down pay
	// only a nil check per fill.
	shot *gpm.Shootdowns
}

// reqMsg phases: what happens when the message reaches its destination.
const (
	msgSubmit           = iota // deliver the request to the IOMMU
	msgSubmitNoRedirect        // same, bypassing the redirection table
	msgRespond                 // complete the request at its requester
)

// reqMsg is a pooled mesh message carrying a request (or its result) so the
// two hottest fabric transits — scheme→IOMMU and responder→requester — post
// no closure per message. The carrier holds one reference on the request for
// the duration of the transit; delivery hands off (Submit and Respond take
// their own references) and releases it.
type reqMsg struct {
	f    *Fabric
	req  *xlat.Request
	res  xlat.Result
	kind uint8
}

// Event implements sim.Handler: the message arrived.
func (m *reqMsg) Event(sim.EventArg) {
	f, req, res, kind := m.f, m.req, m.res, m.kind
	*m = reqMsg{}
	f.msgFree = append(f.msgFree, m)
	switch kind {
	case msgSubmit:
		f.IOMMU.Submit(req, false)
	case msgSubmitNoRedirect:
		f.IOMMU.Submit(req, true)
	case msgRespond:
		req.Complete(res)
	}
	req.Unref()
}

// sendReq leases a carrier holding one transit reference and sends it.
func (f *Fabric) sendReq(from, to geom.Coord, size int, req *xlat.Request, res xlat.Result, kind uint8) {
	req.Ref()
	var m *reqMsg
	if n := len(f.msgFree); n > 0 {
		m = f.msgFree[n-1]
		f.msgFree = f.msgFree[:n-1]
	} else {
		m = new(reqMsg)
	}
	*m = reqMsg{f: f, req: req, res: res, kind: kind}
	f.Mesh.SendH(from, to, size, m, sim.EventArg{})
}

// Finish completes Fabric construction after GPMs are populated.
func (f *Fabric) Finish() {
	f.byCoord = make(map[geom.Coord]*gpm.GPM, len(f.GPMs))
	for _, g := range f.GPMs {
		f.byCoord[g.Coord] = g
	}
}

// GPMAt returns the GPM on a tile (nil for the CPU tile).
func (f *Fabric) GPMAt(c geom.Coord) *gpm.GPM { return f.byCoord[c] }

// CoordOf returns GPM id's tile.
func (f *Fabric) CoordOf(id int) geom.Coord { return f.GPMs[id].Coord }

// ToIOMMU routes a request from its requester to the CPU tile and submits it.
func (f *Fabric) ToIOMMU(from geom.Coord, req *xlat.Request, noRedirect bool) {
	kind := uint8(msgSubmit)
	if noRedirect {
		kind = msgSubmitNoRedirect
	}
	f.sendReq(from, f.Layout.CPU, xlat.ReqBytes, req, xlat.Result{}, kind)
}

// Respond carries a translation result from a serving tile back to the
// requester and completes the request there.
func (f *Fabric) Respond(from geom.Coord, req *xlat.Request, res xlat.Result) {
	f.sendReq(from, f.CoordOf(req.Requester), xlat.RespBytes, req, res, msgRespond)
}

// fillOnCompletion passes the global page-table entry of req's page, and
// the cycle it was read, to fill once req completes; an unmapped page calls
// nothing. The request carries no shadow callback, so completion is
// observed by polling the (monotonic) completed flag at hop latency; the
// poll loop holds a reference so the pooled request cannot recycle under
// it, released as soon as the VPN has been read out.
func (f *Fabric) fillOnCompletion(req *xlat.Request, fill func(vm.PTE, sim.VTime)) {
	hop := f.Mesh.Config().HopLatency
	req.Ref()
	var poll sim.HandlerFunc
	poll = func() {
		if !req.Completed() {
			f.Eng.Post(hop, poll, sim.EventArg{})
			return
		}
		vpn := req.VPN
		req.Unref()
		if e, ok := f.Placement.Global().Lookup(vpn); ok {
			fill(e, f.Eng.Now())
		}
	}
	f.Eng.Post(hop, poll, sim.EventArg{})
}

// keyOf builds the TLB key of a request.
func keyOf(req *xlat.Request) tlb.Key { return tlb.Key{PID: req.PID, VPN: req.VPN} }

// Shootdown performs a wafer-wide TLB shootdown for the given pages: the
// IOMMU purges its redirection table and counters, then broadcasts an
// invalidation to every GPM over the mesh; each GPM invalidates its TLB
// hierarchy and auxiliary cache and acknowledges. done fires when the last
// acknowledgement arrives back at the CPU tile, receiving the total number
// of cached entries dropped. From the call to the last acknowledgement the
// pages are pending in the shootdown ledger, so no GPM fills a translation
// of them that was in flight meanwhile. The paper needs this only when
// freeing memory (§II-A); the page-migration extension issues one per
// migrated page.
func (f *Fabric) Shootdown(pid vm.PID, vpns []vm.VPN, done func(dropped int)) {
	keys := make([]tlb.Key, len(vpns))
	for i, v := range vpns {
		keys[i] = tlb.Key{PID: pid, VPN: v}
	}
	if f.shot == nil {
		f.shot = gpm.NewShootdowns()
		for _, g := range f.GPMs {
			g.Shootdowns = f.shot
		}
	}
	f.shot.Begin(keys)
	f.IOMMU.Invalidate(keys)
	// One invalidation message per GPM, sized by the key list.
	msgBytes := 16 + 8*len(keys)
	pending := len(f.GPMs)
	dropped := 0
	cpu := f.Layout.CPU
	for _, g := range f.GPMs {
		g := g
		f.Mesh.SendH(cpu, g.Coord, msgBytes, sim.HandlerFunc(func() {
			f.Eng.Post(gpm.ShootdownLatency(len(keys)), sim.HandlerFunc(func() {
				dropped += g.Shootdown(keys)
				f.Mesh.SendH(g.Coord, cpu, 8, sim.HandlerFunc(func() {
					pending--
					if pending > 0 {
						return
					}
					f.shot.End(keys, f.Eng.Now())
					if done != nil {
						done(dropped)
					}
				}), sim.EventArg{})
			}), sim.EventArg{})
		}), sim.EventArg{})
	}
}
