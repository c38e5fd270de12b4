// Routing policies: the per-hop decision seam of the mesh. The fabric —
// sparse link slab, serialisation debt, stats, tracing, the transfer freelist —
// lives in Mesh; a Router only picks the next tile for an in-flight
// transfer. Two policies ship: dimension-ordered XY (buffered links, the
// Table I default) and bufferless deflection routing, where a tile whose
// productive output is contended misroutes the message onto a free port
// instead of buffering it (cf. "Bufferless NOC Simulation of Large
// Multicore System on GPU Hardware", PAPERS.md).
package noc

import (
	"hdpat/internal/geom"
	"hdpat/internal/sim"
)

// Routing policy names accepted by Config.Routing. The empty string selects
// XY, so zero-value configurations keep their pre-seam behaviour.
const (
	// RoutingXY is dimension-ordered XY routing over buffered links:
	// minimal paths, messages wait for contended links.
	RoutingXY = "xy"
	// RoutingDeflect is bufferless deflection routing: a message finding
	// every productive output busy is misrouted onto a free port instead of
	// waiting, with age-based priority as the livelock guard. Paths are no
	// longer minimal, so hop counts are accounted per actual hop.
	RoutingDeflect = "deflect"
)

// RoutingNames lists the routing policies in presentation order.
func RoutingNames() []string { return []string{RoutingXY, RoutingDeflect} }

// ValidRouting reports whether name selects a built-in routing policy. The
// empty string is valid and means RoutingXY.
func ValidRouting(name string) bool {
	return name == "" || name == RoutingXY || name == RoutingDeflect
}

// Router decides each hop of an in-flight message. Implementations read
// fabric state (link occupancy probes) but never mutate it: occupancy,
// accounting and scheduling stay in transfer.step, so every policy shares
// one serialisation and stats model. route is called only while
// t.cur != t.dst and must return a tile adjacent to t.cur inside the mesh;
// deflected marks a hop that moved the message off a productive (distance-
// reducing) direction.
type Router interface {
	// Name returns the policy's Config.Routing name.
	Name() string
	route(m *Mesh, t *transfer, now sim.VTime) (next geom.Coord, deflected bool)
}

// routerFor resolves cfg.Routing. Unknown names panic: the public entry
// points reject them earlier with a typed config.ValidationError, so
// reaching here is an internal wiring bug, not user input.
func routerFor(cfg Config) Router {
	switch cfg.Routing {
	case "", RoutingXY:
		return xyRouter{}
	case RoutingDeflect:
		age := cfg.HopLatency
		if age < 1 {
			age = 1
		}
		return deflectRouter{ageCap: deflectAgeHops * age}
	}
	panic("noc: unknown routing policy " + cfg.Routing)
}

// xyRouter is dimension-ordered XY routing, computed incrementally by
// nextHop. It never deflects: a contended link is waited for, which is what
// makes every path Manhattan-length.
type xyRouter struct{}

func (xyRouter) Name() string { return RoutingXY }

func (xyRouter) route(m *Mesh, t *transfer, now sim.VTime) (geom.Coord, bool) {
	return nextHop(t.cur, t.dst), false
}

// deflectAgeHops is the age cap of the deflection livelock guard, in units
// of the hop latency: a message older than this stops misrouting and waits
// for its productive port like an XY message would, so it acquires the link
// in FIFO (nextFree) order and monotonically closes on its destination.
// 64 hop-latencies is far past the diameter of any supported mesh, so young
// traffic keeps the bufferless behaviour while stragglers are guaranteed
// delivery.
const deflectAgeHops = 64

// deflectRouter is bufferless deflection routing. Productive directions
// (those reducing the Manhattan distance, X resolved first like XY) are
// preferred; when every productive output link is busy at decision time the
// message is deflected onto the first free misroute port in fixed
// east/west/south/north order. Age-based priority guards against livelock:
// once a message's age exceeds ageCap it claims its productive port
// unconditionally. All link reads are non-materializing probes, so an idle
// neighbourhood costs nothing.
type deflectRouter struct {
	ageCap sim.VTime
}

func (deflectRouter) Name() string { return RoutingDeflect }

// neighbor returns cur's adjacent tile in direction dir.
func neighbor(cur geom.Coord, dir int) geom.Coord {
	switch dir {
	case dirEast:
		cur.X++
	case dirWest:
		cur.X--
	case dirSouth:
		cur.Y++
	default:
		cur.Y--
	}
	return cur
}

func (r deflectRouter) route(m *Mesh, t *transfer, now sim.VTime) (geom.Coord, bool) {
	cur, dst := t.cur, t.dst
	// Productive directions in XY preference order (X first); route is only
	// called while cur != dst, so there is at least one.
	var prod [2]int
	np := 0
	switch {
	case dst.X > cur.X:
		prod[np] = dirEast
		np++
	case dst.X < cur.X:
		prod[np] = dirWest
		np++
	}
	switch {
	case dst.Y > cur.Y:
		prod[np] = dirSouth
		np++
	case dst.Y < cur.Y:
		prod[np] = dirNorth
		np++
	}
	// Livelock guard: an old message takes its preferred productive port
	// even when busy, waiting in link FIFO order like an XY message.
	if now-t.born >= r.ageCap {
		return neighbor(cur, prod[0]), false
	}
	id := m.layout.NodeID(cur)
	for i := 0; i < np; i++ {
		if m.linkFreeAt(id, prod[i], now) {
			return neighbor(cur, prod[i]), false
		}
	}
	// Every productive output is contended: deflect onto the first free
	// in-mesh misroute port. Fixed direction order keeps the policy
	// deterministic.
	for d := 0; d < 4; d++ {
		if d == prod[0] || (np == 2 && d == prod[1]) {
			continue
		}
		n := neighbor(cur, d)
		if !m.layout.Contains(n) {
			continue
		}
		if m.linkFreeAt(id, d, now) {
			return n, true
		}
	}
	// Nothing is free in any direction; wait on the preferred productive
	// port rather than queueing a guaranteed misroute.
	return neighbor(cur, prod[0]), false
}
