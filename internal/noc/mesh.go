// Package noc models the wafer's interposer mesh network (Table I:
// 768 GB/s per link, 32-cycle latency per link). Each directed link
// serialises traffic at the link bandwidth; a message traverses its path
// hop by hop, paying serialisation plus the fixed hop latency at each
// link. This produces the geometry-dependent latency and the multi-hop
// bandwidth consumption that §III identifies as central to the
// wafer-scale translation problem. The per-hop direction decision is a
// pluggable Router policy (router.go): dimension-ordered XY by default,
// bufferless deflection routing as the cheap-at-scale alternative.
package noc

import (
	"fmt"

	"hdpat/internal/geom"
	"hdpat/internal/sim"
	"hdpat/internal/stats"
	"hdpat/internal/trace"
)

// Config describes the mesh links. At 1 GHz, 768 GB/s is 768 B/cycle.
// Routing selects the per-hop policy by name (RoutingXY, RoutingDeflect);
// the empty string means XY.
type Config struct {
	HopLatency    sim.VTime
	BytesPerCycle float64
	Routing       string
}

// DefaultConfig matches Table I.
func DefaultConfig() Config {
	return Config{HopLatency: 32, BytesPerCycle: 768}
}

// Stats aggregates network activity. ByteHops, HopsTotal and MaxHops count
// actual link traversals, accumulated per hop as messages move — under XY
// routing that equals the Manhattan precomputation, under deflection it can
// exceed it. ManhattanTotal is the routing-independent lower bound (billed
// at send), so HopsTotal >= ManhattanTotal always, with equality exactly
// when no message was misrouted.
type Stats struct {
	Messages       uint64
	ByteHops       uint64 // sum over hops of message size: the traffic metric of §V-D
	HopsTotal      uint64
	MaxHops        int
	Deflections    uint64 // hops taken off a productive direction (bufferless routing)
	ManhattanTotal uint64 // sum over messages of Manhattan(src, dst)
}

// linkSlab holds the state of materialized links in structure-of-arrays
// form: three parallel slices, four consecutive entries (one per direction)
// per materialized tile. nextFree/busy mirror sim.Line's fields; debt is
// the fractional serialisation carry. Slabs grow only when a tile first
// sends, so an idle region of a giant wafer costs zero link bytes.
type linkSlab struct {
	nextFree []sim.VTime
	busy     []sim.VTime
	debt     []float64
}

// grow appends one zeroed 4-link block and returns its base index.
func (s *linkSlab) grow() int32 {
	base := int32(len(s.busy))
	s.nextFree = append(s.nextFree, 0, 0, 0, 0)
	s.busy = append(s.busy, 0, 0, 0, 0)
	s.debt = append(s.debt, 0, 0, 0, 0)
	return base
}

// noLink marks a tile whose output links have never carried traffic.
const noLink = int32(-1)

// Mesh is the wafer network. It is driven by the shared simulation engine.
type Mesh struct {
	cfg    Config
	eng    *sim.Engine
	layout *geom.Mesh
	// tile[i] is the base index of tile i's 4-link block inside slab, or
	// noLink while the tile has never sent.
	tile   []int32
	slab   linkSlab
	router Router
	Stats  Stats

	// Trace, when non-nil, receives one span per link traversal.
	Trace *trace.Tracer

	// hops is the distribution of hops per delivered message.
	hops stats.Histogram

	// free recycles in-flight transfer state machines; a transfer lives
	// from SendH until final delivery, one event per hop, no allocation per
	// hop or per message in steady state. The mesh belongs to one run on
	// one goroutine, so a plain freelist suffices.
	free []*transfer
}

// direction indices
const (
	dirEast = iota
	dirWest
	dirSouth
	dirNorth
)

// New builds the network over the given wafer layout. Link state is
// sparse: only the tile index array is sized by topology; the per-link
// slab entries materialize on first traffic. The routing policy is fixed
// at construction from cfg.Routing; unknown names panic (config.Validate
// rejects them on every public path first).
func New(eng *sim.Engine, layout *geom.Mesh, cfg Config) *Mesh {
	m := &Mesh{cfg: cfg, eng: eng, layout: layout, tile: make([]int32, layout.NumTiles()), router: routerFor(cfg)}
	for i := range m.tile {
		m.tile[i] = noLink
	}
	return m
}

// Router returns the active routing policy.
func (m *Mesh) Router() Router { return m.router }

// linkIndex returns the slab index of tile id's output link in direction
// dir, materializing the tile's 4-link block on first use.
func (m *Mesh) linkIndex(id, dir int) int {
	base := m.tile[id]
	if base == noLink {
		base = m.slab.grow()
		m.tile[id] = base
	}
	return int(base) + dir
}

// linkProbe reports one directed link's busy cycles and fractional debt
// without materializing it; ok is false while the link is untouched.
// Test-only observability into the sparse representation.
func (m *Mesh) linkProbe(id, dir int) (busy sim.VTime, debt float64, ok bool) {
	base := m.tile[id]
	if base == noLink {
		return 0, 0, false
	}
	return m.slab.busy[int(base)+dir], m.slab.debt[int(base)+dir], true
}

// linkFreeAt reports whether tile id's output link in direction dir is free
// at time now, without materializing it: an untouched link is free by
// definition. Routers use this to probe contention cheaply.
func (m *Mesh) linkFreeAt(id, dir int, now sim.VTime) bool {
	base := m.tile[id]
	if base == noLink {
		return true
	}
	return m.slab.nextFree[int(base)+dir] <= now
}

// dirNames label the four directed output links in exposition series.
var dirNames = [4]string{"e", "w", "s", "n"}

// Hops returns the distribution of hops per delivered message, a message
// between GPMs on one tile counting zero.
func (m *Mesh) Hops() *stats.Histogram { return &m.hops }

// Layout returns the wafer geometry the mesh routes over.
func (m *Mesh) Layout() *geom.Mesh { return m.layout }

// Config returns the link parameters.
func (m *Mesh) Config() Config { return m.cfg }

func dirOf(from, to geom.Coord) int {
	switch {
	case to.X == from.X+1 && to.Y == from.Y:
		return dirEast
	case to.X == from.X-1 && to.Y == from.Y:
		return dirWest
	case to.X == from.X && to.Y == from.Y+1:
		return dirSouth
	case to.X == from.X && to.Y == from.Y-1:
		return dirNorth
	}
	panic(fmt.Sprintf("noc: %v -> %v is not a single hop", from, to))
}

// nextHop returns the next tile on the dimension-ordered XY route from cur
// toward dst: resolve the X dimension first, then Y — the same step order
// geom.XYPath materialises, computed incrementally so routing never builds a
// path slice.
func nextHop(cur, dst geom.Coord) geom.Coord {
	switch {
	case dst.X > cur.X:
		cur.X++
	case dst.X < cur.X:
		cur.X--
	case dst.Y > cur.Y:
		cur.Y++
	default:
		cur.Y--
	}
	return cur
}

// transfer is one in-flight message: a pooled state machine whose Event
// fires at each hop arrival. cur is the tile the message has reached; the
// final arrival recycles the transfer and hands off to its (h, arg)
// completion. hops counts actual link traversals so far; born is the send
// time, read by age-based routing policies.
type transfer struct {
	m        *Mesh
	cur, dst geom.Coord
	size     int
	hops     int
	born     sim.VTime
	h        sim.Handler
	arg      sim.EventArg
}

// Event advances the message: deliver if it has reached dst, otherwise take
// the next link. Delivery settles the per-message stats that need the
// final hop count — MaxHops and the hops histogram.
func (t *transfer) Event(sim.EventArg) {
	if t.cur == t.dst {
		m, h, arg, hops := t.m, t.h, t.arg, t.hops
		if hops > m.Stats.MaxHops {
			m.Stats.MaxHops = hops
		}
		m.hops.Add(uint64(hops))
		*t = transfer{}
		m.free = append(m.free, t)
		h.Event(arg)
		return
	}
	t.step()
}

// step asks the routing policy for the next tile, occupies the chosen
// output link and schedules the arrival at the far end. Byte-hops, hop
// counts and deflections accrue here, per actual hop, so the accounting is
// exact for any Router, minimal paths or not.
func (t *transfer) step() {
	m := t.m
	now := m.eng.Now()
	next, deflected := m.router.route(m, t, now)
	s, li := &m.slab, m.linkIndex(m.layout.NodeID(t.cur), dirOf(t.cur, next))
	// Serialisation: accumulate fractional cycles so small messages still
	// consume bandwidth in aggregate.
	s.debt[li] += float64(t.size) / m.cfg.BytesPerCycle
	hold := sim.VTime(0)
	if s.debt[li] >= 1 {
		whole := sim.VTime(s.debt[li])
		s.debt[li] -= float64(whole)
		hold = whole
	}
	// Inline sim.Line.Occupy over the slab entry: start at max(now,
	// nextFree), hold the link, accumulate busy cycles.
	start := now
	if s.nextFree[li] > start {
		start = s.nextFree[li]
	}
	end := start + hold
	s.nextFree[li] = end
	s.busy[li] += hold
	arrive := end + m.cfg.HopLatency
	st := &m.Stats
	st.HopsTotal++
	st.ByteHops += uint64(t.size)
	if deflected {
		st.Deflections++
	}
	t.hops++
	if m.Trace != nil {
		m.Trace.HopSpan(uint64(now), uint64(arrive), t.cur.X, t.cur.Y, next.X, next.Y, t.size, deflected)
	}
	t.cur = next
	m.eng.PostAt(arrive, t, sim.EventArg{})
}

// SendH routes a message of `size` bytes from src to dst; h.Event(arg) fires
// at the arrival time. src == dst delivers after a single local forwarding
// delay of one cycle (an on-tile loopback, no link consumed). Nothing is
// allocated per message in steady state.
func (m *Mesh) SendH(src, dst geom.Coord, size int, h sim.Handler, arg sim.EventArg) {
	st, eng := &m.Stats, m.eng
	st.Messages++
	man := src.Manhattan(dst) // == len(XYPath): the minimal-path hop count
	st.ManhattanTotal += uint64(man)
	if man == 0 {
		m.hops.Add(0)
		eng.Post(1, h, arg)
		return
	}
	var t *transfer
	if n := len(m.free); n > 0 {
		t = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		t = new(transfer)
	}
	*t = transfer{m: m, cur: src, dst: dst, size: size, born: eng.Now(), h: h, arg: arg}
	t.step()
}

// VisitLinks calls fn for every materialized directed output link with its
// tile coordinate, direction label ("e", "w", "s", "n") and accumulated
// busy cycles, in deterministic tile-major order. Links that never carried
// traffic are not materialized and not visited — their busy cycles are
// identically zero, so every consumer (attribution sampler, heatmap
// builders, conservation checks) observes the same totals as an eager
// walk. Like everything else in the observability layer it is read-only.
func (m *Mesh) VisitLinks(fn func(c geom.Coord, dir string, busy sim.VTime)) {
	for i := range m.tile {
		base := m.tile[i]
		if base == noLink {
			continue
		}
		c := m.layout.CoordOf(i)
		for d := 0; d < 4; d++ {
			fn(c, dirNames[d], m.slab.busy[int(base)+d])
		}
	}
}

// LatencyLowerBound returns the zero-load latency between two tiles: hops x
// hop latency (serialisation excluded). Useful for analytical checks.
func (m *Mesh) LatencyLowerBound(src, dst geom.Coord) sim.VTime {
	return sim.VTime(src.Manhattan(dst)) * m.cfg.HopLatency
}

// LinkUtilization returns the total busy cycles across all links,
// for coarse congestion reporting.
func (m *Mesh) LinkUtilization() sim.VTime {
	var t sim.VTime
	for _, b := range m.slab.busy {
		t += b
	}
	return t
}
