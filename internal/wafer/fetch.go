package wafer

import (
	"hdpat/internal/gpm"
	"hdpat/internal/noc"
	"hdpat/internal/sim"
	"hdpat/internal/xlat"
)

// fetcher implements gpm.LineFetcher over the mesh: a remote cacheline
// fetch is a request message to the owner, an HBM read there, and a
// response message back, carried by one pooled lineFetch state machine
// instead of a nested closure per stage.
type fetcher struct {
	mesh *noc.Mesh
	gpms []*gpm.GPM
	free []*lineFetch
}

// lineFetch phases, advanced by each Event delivery.
const (
	fetchReqArrived  = iota // request message reached the owner tile
	fetchHBMDone            // owner HBM read finished
	fetchRespArrived        // response message reached the requester
)

type lineFetch struct {
	f         *fetcher
	requester *gpm.GPM
	owner     *gpm.GPM
	line      uint64
	state     uint8
}

// FetchLine implements gpm.LineFetcher.
func (f *fetcher) FetchLine(requester *gpm.GPM, owner int, line uint64) {
	var lf *lineFetch
	if n := len(f.free); n > 0 {
		lf = f.free[n-1]
		f.free = f.free[:n-1]
	} else {
		lf = new(lineFetch)
	}
	*lf = lineFetch{f: f, requester: requester, owner: f.gpms[owner], line: line}
	f.mesh.SendH(requester.Coord, lf.owner.Coord, xlat.DataReqBytes, lf, sim.EventArg{})
}

// Event advances the fetch through its three legs.
func (lf *lineFetch) Event(sim.EventArg) {
	switch lf.state {
	case fetchReqArrived:
		lf.state = fetchHBMDone
		lf.owner.ServeLine(lf.line, lf, sim.EventArg{})
	case fetchHBMDone:
		lf.state = fetchRespArrived
		lf.f.mesh.SendH(lf.owner.Coord, lf.requester.Coord, xlat.DataRespBytes, lf, sim.EventArg{})
	case fetchRespArrived:
		f, requester, line := lf.f, lf.requester, lf.line
		*lf = lineFetch{}
		f.free = append(f.free, lf)
		requester.FillLine(line)
	}
}
