// Routing-seam tests: the XY policy is pinned step-for-step against the
// geometric reference path, the deflection policy is checked against its
// delivery and accounting laws (every message arrives; HopsTotal ==
// ManhattanTotal + 2 x Deflections, since each misroute moves one hop away
// from the destination and must be paid back), and the fabric's link
// visitor (VisitLinks) is pinned deterministic.
package noc

import (
	"fmt"
	"math/rand"
	"testing"

	"hdpat/internal/geom"
	"hdpat/internal/sim"
)

// stepXY walks nextHop from src until dst, returning the visited sequence
// (excluding src, including dst) — the incremental router's trajectory.
func stepXY(t *testing.T, src, dst geom.Coord) []geom.Coord {
	t.Helper()
	var path []geom.Coord
	c := src
	for steps := 0; c != dst; steps++ {
		if steps > 1000 {
			t.Fatalf("nextHop(%v -> %v) did not converge", src, dst)
		}
		c = nextHop(c, dst)
		path = append(path, c)
	}
	return path
}

// Property: the incremental nextHop decision, iterated, reproduces the
// reference geom.XYPath element for element — the XY router is exactly
// dimension-ordered minimal routing, never an off-by-one of it.
func TestNextHopMatchesXYPath(t *testing.T) {
	layout := geom.NewMesh(9, 8)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 2000; i++ {
		src := geom.XY(rng.Intn(9), rng.Intn(8))
		dst := geom.XY(rng.Intn(9), rng.Intn(8))
		want := layout.XYPath(src, dst)
		got := stepXY(t, src, dst)
		if len(got) != len(want) {
			t.Fatalf("%v -> %v: stepped %d hops, XYPath has %d", src, dst, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%v -> %v: hop %d is %v, XYPath says %v", src, dst, j, got[j], want[j])
			}
		}
		if len(got) != src.Manhattan(dst) {
			t.Fatalf("%v -> %v: %d hops, Manhattan %d", src, dst, len(got), src.Manhattan(dst))
		}
	}
}

// FuzzNextHopXYPath is the fuzz-shaped form of the property above; the
// corpus seeds cover same-tile, same-row, same-column and both diagonals.
func FuzzNextHopXYPath(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(6), uint8(6))
	f.Add(uint8(3), uint8(3), uint8(3), uint8(3))
	f.Add(uint8(0), uint8(5), uint8(6), uint8(5))
	f.Add(uint8(2), uint8(0), uint8(2), uint8(6))
	f.Add(uint8(6), uint8(6), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, sx, sy, dx, dy uint8) {
		const w, h = 7, 7
		layout := geom.NewMesh(w, h)
		src := geom.XY(int(sx)%w, int(sy)%h)
		dst := geom.XY(int(dx)%w, int(dy)%h)
		want := layout.XYPath(src, dst)
		got := stepXY(t, src, dst)
		if len(got) != len(want) {
			t.Fatalf("%v -> %v: stepped %d hops, XYPath has %d", src, dst, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%v -> %v: hop %d is %v, XYPath says %v", src, dst, j, got[j], want[j])
			}
		}
	})
}

func TestRoutingNames(t *testing.T) {
	for _, name := range []string{"", RoutingXY, RoutingDeflect} {
		if !ValidRouting(name) {
			t.Errorf("ValidRouting(%q) = false", name)
		}
	}
	if ValidRouting("torus") {
		t.Error("ValidRouting accepted an unknown policy")
	}
	if len(RoutingNames()) != 2 {
		t.Errorf("RoutingNames() = %v", RoutingNames())
	}
	defer func() {
		if recover() == nil {
			t.Error("routerFor did not panic on an unknown routing name")
		}
	}()
	routerFor(Config{Routing: "torus"})
}

// mkDeflect builds a deflection-routed mesh with enough serialisation cost
// per message that same-cycle sends contend for output ports.
func mkDeflect(w, h int) (*sim.Engine, *Mesh) {
	eng := sim.NewEngine()
	layout := geom.NewMesh(w, h)
	return eng, New(eng, layout, Config{HopLatency: 4, BytesPerCycle: 64, Routing: RoutingDeflect})
}

// An uncontended message under deflection takes the minimal path at the
// exact XY zero-load latency: the policies only diverge under contention.
func TestDeflectUncontendedMatchesXYLatency(t *testing.T) {
	eng, m := mkDeflect(7, 7)
	var arrived sim.VTime
	src, dst := geom.XY(1, 5), geom.XY(5, 0)
	m.SendH(src, dst, 16, sim.HandlerFunc(func() { arrived = eng.Now() }), sim.EventArg{})
	eng.Run()
	// 16 B at 64 B/cycle is sub-cycle debt on every link: zero-load exactly.
	if want := m.LatencyLowerBound(src, dst); arrived != want {
		t.Errorf("arrival at %d, want %d", arrived, want)
	}
	if m.Stats.Deflections != 0 {
		t.Errorf("uncontended message deflected %d times", m.Stats.Deflections)
	}
	if m.Stats.HopsTotal != uint64(src.Manhattan(dst)) {
		t.Errorf("HopsTotal = %d, want %d", m.Stats.HopsTotal, src.Manhattan(dst))
	}
}

// deflectLaws asserts the policy's accounting invariants on a finished run.
func deflectLaws(t *testing.T, m *Mesh) {
	t.Helper()
	st := m.Stats
	if st.HopsTotal < st.ManhattanTotal {
		t.Errorf("HopsTotal %d below Manhattan bound %d", st.HopsTotal, st.ManhattanTotal)
	}
	// Every misroute steps exactly one hop away from the destination (the
	// productive directions are excluded from the misroute probe), so the
	// surplus over the Manhattan bound is exactly two hops per deflection.
	if st.HopsTotal != st.ManhattanTotal+2*st.Deflections {
		t.Errorf("HopsTotal %d != ManhattanTotal %d + 2 x %d deflections",
			st.HopsTotal, st.ManhattanTotal, st.Deflections)
	}
}

// Contending same-cycle sends over one shared output port deflect the
// losers instead of queueing them — and still deliver every message.
func TestDeflectContentionDeflectsAndDelivers(t *testing.T) {
	eng, m := mkDeflect(5, 5)
	src, dst := geom.XY(0, 2), geom.XY(4, 2)
	const n = 16
	delivered := 0
	for i := 0; i < n; i++ {
		// 256 B at 64 B/cycle: each message holds the east port 4 cycles,
		// so the burst saturates the row and losers must misroute.
		m.SendH(src, dst, 256, sim.HandlerFunc(func() { delivered++ }), sim.EventArg{})
	}
	eng.Run()
	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
	if m.Stats.Deflections == 0 {
		t.Error("saturated row produced no deflections")
	}
	deflectLaws(t, m)
}

// Heavy random all-to-all congestion must still settle (the age guard
// parks over-age messages on their preferred port instead of letting them
// orbit) with every message delivered and the accounting laws intact.
func TestDeflectHeavyCongestionSettles(t *testing.T) {
	eng, m := mkDeflect(5, 5)
	layout := m.Layout()
	rng := rand.New(rand.NewSource(3))
	const n = 2000
	delivered := 0
	for i := 0; i < n; i++ {
		src := layout.CoordOf(rng.Intn(layout.NumTiles()))
		dst := layout.CoordOf(rng.Intn(layout.NumTiles()))
		m.SendH(src, dst, rng.Intn(256)+1, sim.HandlerFunc(func() { delivered++ }), sim.EventArg{})
	}
	eng.Run()
	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
	deflectLaws(t, m)
}

// A deflection mesh with the age cap forced to its floor degenerates to
// FIFO waits almost immediately — delivery and accounting must hold there
// too, pinning the guard path itself.
func TestDeflectAgeGuardFloorStillDelivers(t *testing.T) {
	eng, m := mkDeflect(5, 5)
	m.router = &deflectRouter{ageCap: 1}
	src, dst := geom.XY(0, 2), geom.XY(4, 2)
	const n = 16
	delivered := 0
	for i := 0; i < n; i++ {
		m.SendH(src, dst, 256, sim.HandlerFunc(func() { delivered++ }), sim.EventArg{})
	}
	eng.Run()
	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
	deflectLaws(t, m)
}

// fixedRun drives a fixed traffic pattern on a 4x4 mesh — messages in every
// direction, sizes that leave fractional serialisation debt — and returns
// the mesh after the run.
func fixedRun(t *testing.T) *Mesh {
	t.Helper()
	eng := sim.NewEngine()
	m := New(eng, geom.NewMesh(4, 4), Config{HopLatency: 32, BytesPerCycle: 64})
	sends := []struct {
		src, dst geom.Coord
		size     int
	}{
		{geom.XY(0, 0), geom.XY(3, 3), 128},
		{geom.XY(3, 3), geom.XY(0, 0), 128},
		{geom.XY(1, 0), geom.XY(1, 3), 64},
		{geom.XY(2, 3), geom.XY(2, 0), 64},
		{geom.XY(0, 1), geom.XY(3, 1), 192},
		{geom.XY(3, 2), geom.XY(0, 2), 192},
	}
	delivered := 0
	for _, s := range sends {
		m.SendH(s.src, s.dst, s.size, sim.HandlerFunc(func() { delivered++ }), sim.EventArg{})
	}
	eng.Run()
	if delivered != len(sends) {
		t.Fatalf("delivered %d of %d", delivered, len(sends))
	}
	return m
}

// visitOrder renders one VisitLinks walk as strings for comparison.
func visitOrder(m *Mesh) []string {
	var out []string
	m.VisitLinks(func(c geom.Coord, dir string, busy sim.VTime) {
		out = append(out, fmt.Sprintf("%d,%d,%s,%d", c.X, c.Y, dir, busy))
	})
	return out
}

// VisitLinks walks tile-major over the sparse link slab: the order is
// deterministic across runs and strictly tile-ordered, never in slab
// (materialization) order.
func TestVisitLinksDeterministic(t *testing.T) {
	a := visitOrder(fixedRun(t))
	b := visitOrder(fixedRun(t))
	if len(a) == 0 || len(a)%4 != 0 {
		t.Fatalf("visited %d links, want a positive multiple of 4", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("visit %d differs across identical runs: %q vs %q", i, a[i], b[i])
		}
	}
	// Tile-major: each materialized tile contributes its four directions
	// consecutively in e, w, s, n order, with tile IDs strictly increasing.
	layout := geom.NewMesh(4, 4)
	lastID := -1
	for i := 0; i < len(a); i += 4 {
		var x, y int
		var dir string
		var busy sim.VTime
		if _, err := fmt.Sscanf(a[i], "%d,%d,%1s,%d", &x, &y, &dir, &busy); err != nil {
			t.Fatal(err)
		}
		id := layout.NodeID(geom.XY(x, y))
		if id <= lastID {
			t.Fatalf("tile %d visited after %d: not tile-major", id, lastID)
		}
		lastID = id
		for d, want := range dirNames {
			var dx, dy int
			var got string
			if _, err := fmt.Sscanf(a[i+d], "%d,%d,%1s,", &dx, &dy, &got); err != nil {
				t.Fatal(err)
			}
			if dx != x || dy != y || got != want {
				t.Fatalf("visit %d = %q, want tile (%d,%d) dir %s", i+d, a[i+d], x, y, want)
			}
		}
	}
}
