package noc

import (
	"math/rand"
	"testing"

	"hdpat/internal/geom"
	"hdpat/internal/sim"
)

func mkMesh() (*sim.Engine, *Mesh) {
	eng := sim.NewEngine()
	layout := geom.NewMesh(7, 7)
	return eng, New(eng, layout, Config{HopLatency: 32, BytesPerCycle: 768})
}

func TestZeroLoadLatency(t *testing.T) {
	eng, m := mkMesh()
	var arrived sim.VTime
	src, dst := geom.XY(0, 0), geom.XY(3, 3)
	m.SendH(src, dst, 16, sim.HandlerFunc(func() { arrived = eng.Now() }), sim.EventArg{})
	eng.Run()
	want := m.LatencyLowerBound(src, dst) // 6 hops x 32 = 192
	if arrived != want {
		t.Errorf("arrival at %d, want %d", arrived, want)
	}
}

func TestLocalLoopback(t *testing.T) {
	eng, m := mkMesh()
	var arrived sim.VTime
	c := geom.XY(2, 2)
	m.SendH(c, c, 64, sim.HandlerFunc(func() { arrived = eng.Now() }), sim.EventArg{})
	eng.Run()
	if arrived != 1 {
		t.Errorf("loopback at %d, want 1", arrived)
	}
}

func TestSerialisationUnderLoad(t *testing.T) {
	eng := sim.NewEngine()
	layout := geom.NewMesh(3, 3)
	// 64 B/cycle: each 64 B message occupies a link for a full cycle.
	m := New(eng, layout, Config{HopLatency: 10, BytesPerCycle: 64})
	src, dst := geom.XY(0, 1), geom.XY(1, 1)
	var times []sim.VTime
	for i := 0; i < 4; i++ {
		m.SendH(src, dst, 64, sim.HandlerFunc(func() { times = append(times, eng.Now()) }), sim.EventArg{})
	}
	eng.Run()
	// First message: serialise 1 cycle + 10 latency = 11; then one per cycle.
	want := []sim.VTime{11, 12, 13, 14}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestOppositeDirectionsIndependent(t *testing.T) {
	eng := sim.NewEngine()
	layout := geom.NewMesh(3, 3)
	m := New(eng, layout, Config{HopLatency: 10, BytesPerCycle: 64})
	a, b := geom.XY(0, 1), geom.XY(1, 1)
	var ta, tb sim.VTime
	m.SendH(a, b, 64, sim.HandlerFunc(func() { ta = eng.Now() }), sim.EventArg{})
	m.SendH(b, a, 64, sim.HandlerFunc(func() { tb = eng.Now() }), sim.EventArg{})
	eng.Run()
	if ta != 11 || tb != 11 {
		t.Errorf("opposite-direction sends interfered: %d, %d", ta, tb)
	}
}

func TestStats(t *testing.T) {
	eng, m := mkMesh()
	m.SendH(geom.XY(0, 0), geom.XY(2, 0), 100, sim.HandlerFunc(func() {}), sim.EventArg{})
	eng.Run()
	if m.Stats.Messages != 1 {
		t.Errorf("Messages = %d", m.Stats.Messages)
	}
	if m.Stats.ByteHops != 200 {
		t.Errorf("ByteHops = %d, want 200", m.Stats.ByteHops)
	}
	if m.Stats.MaxHops != 2 || m.Stats.HopsTotal != 2 {
		t.Errorf("hops: max=%d total=%d", m.Stats.MaxHops, m.Stats.HopsTotal)
	}
}

func TestManySendsAllDeliver(t *testing.T) {
	eng, m := mkMesh()
	layout := m.Layout()
	delivered := 0
	n := 0
	for _, src := range layout.GPMs() {
		for _, dst := range []geom.Coord{layout.CPU, geom.XY(0, 0), geom.XY(6, 6)} {
			if src == dst {
				continue
			}
			n++
			m.SendH(src, dst, 32, sim.HandlerFunc(func() { delivered++ }), sim.EventArg{})
		}
	}
	eng.Run()
	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
}

func TestFarLinkCongestionRaisesLatency(t *testing.T) {
	eng := sim.NewEngine()
	layout := geom.NewMesh(7, 7)
	m := New(eng, layout, Config{HopLatency: 32, BytesPerCycle: 8})
	// Hammer a single column path; later messages must arrive strictly later
	// than zero-load latency.
	src, dst := geom.XY(0, 3), geom.XY(6, 3)
	var last sim.VTime
	const n = 100
	for i := 0; i < n; i++ {
		m.SendH(src, dst, 64, sim.HandlerFunc(func() { last = eng.Now() }), sim.EventArg{})
	}
	eng.Run()
	zeroLoad := m.LatencyLowerBound(src, dst)
	if last <= zeroLoad+sim.VTime(n/2) {
		t.Errorf("no congestion observed: last=%d zeroload=%d", last, zeroLoad)
	}
	if m.LinkUtilization() == 0 {
		t.Error("link utilisation not recorded")
	}
}

// Property: ByteHops conservation — total equals the sum over messages of
// size x Manhattan distance.
func TestByteHopsConservation(t *testing.T) {
	eng, m := mkMesh()
	layout := m.Layout()
	rng := rand.New(rand.NewSource(11))
	var want uint64
	for i := 0; i < 500; i++ {
		src := layout.GPMs()[rng.Intn(layout.NumGPMs())]
		dst := layout.GPMs()[rng.Intn(layout.NumGPMs())]
		size := rng.Intn(100) + 1
		want += uint64(size) * uint64(src.Manhattan(dst))
		m.SendH(src, dst, size, sim.HandlerFunc(func() {}), sim.EventArg{})
	}
	eng.Run()
	if m.Stats.ByteHops != want {
		t.Errorf("ByteHops = %d, want %d", m.Stats.ByteHops, want)
	}
	if m.Stats.Messages != 500 {
		t.Errorf("Messages = %d", m.Stats.Messages)
	}
}

// Determinism: two identical traffic patterns deliver at identical times.
func TestMeshDeterminism(t *testing.T) {
	runOnce := func() []sim.VTime {
		eng, m := mkMesh()
		layout := m.Layout()
		rng := rand.New(rand.NewSource(5))
		var times []sim.VTime
		for i := 0; i < 300; i++ {
			src := layout.GPMs()[rng.Intn(layout.NumGPMs())]
			dst := layout.GPMs()[rng.Intn(layout.NumGPMs())]
			m.SendH(src, dst, rng.Intn(200)+1, sim.HandlerFunc(func() { times = append(times, eng.Now()) }), sim.EventArg{})
		}
		eng.Run()
		return times
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatal("different delivery counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

// Many sub-cycle messages must accumulate fractional serialisation debt into
// whole busy cycles: total link occupancy tracks total bytes / bandwidth with
// at most one cycle of residual debt outstanding, never losing bandwidth.
func TestFractionalDebtAccumulatesWholeBusyCycles(t *testing.T) {
	eng := sim.NewEngine()
	layout := geom.NewMesh(3, 3)
	m := New(eng, layout, Config{HopLatency: 10, BytesPerCycle: 64})
	src, dst := geom.XY(0, 1), geom.XY(1, 1)
	// 64 16-byte messages: each is a quarter cycle of serialisation, so every
	// fourth send must charge one whole cycle to the link.
	const n, size = 64, 16
	delivered := 0
	for i := 0; i < n; i++ {
		m.SendH(src, dst, size, sim.HandlerFunc(func() { delivered++ }), sim.EventArg{})
	}
	eng.Run()
	if delivered != n {
		t.Fatalf("delivered = %d, want %d", delivered, n)
	}
	wantBusy := sim.VTime(n * size / 64) // 16 cycles, exactly divisible
	if got := m.LinkUtilization(); got != wantBusy {
		t.Errorf("busy cycles = %d, want %d (fractional debt lost)", got, wantBusy)
	}
}

// Fractional debt must survive across temporally spread sends, not just
// back-to-back bursts: residual debt below one cycle is the only bandwidth
// ever outstanding.
func TestFractionalDebtSpreadOverTime(t *testing.T) {
	eng := sim.NewEngine()
	layout := geom.NewMesh(3, 3)
	m := New(eng, layout, Config{HopLatency: 10, BytesPerCycle: 64})
	src, dst := geom.XY(0, 1), geom.XY(1, 1)
	const n, size = 31, 48 // 0.75 cycles each, deliberately not divisible
	for i := 0; i < n; i++ {
		at := sim.VTime(i * 100)
		eng.PostAt(at, sim.HandlerFunc(func() { m.SendH(src, dst, size, sim.HandlerFunc(func() {}), sim.EventArg{}) }), sim.EventArg{})
	}
	eng.Run()
	totalBytes := float64(n * size)
	exact := totalBytes / 64 // 23.25 cycles
	got := float64(m.LinkUtilization())
	if got < exact-1 || got > exact {
		t.Errorf("busy cycles = %v, want within (%v-1, %v]", got, exact, exact)
	}
	// The accumulated whole cycles plus the residual debt equal the exact
	// serialisation demand: no bandwidth created or destroyed.
	_, debt, ok := m.linkProbe(m.layout.NodeID(src), dirEast)
	if !ok {
		t.Fatal("hammered link not materialized")
	}
	if sum := got + debt; sum != exact {
		t.Errorf("busy+debt = %v, want exactly %v", sum, exact)
	}
}

// Sparse accounting: tiles that never send stay unmaterialized (zero link
// bytes), and VisitLinks walks only materialized tiles while reporting the
// same busy totals as LinkUtilization.
func TestSparseLinksOnlyTouchedMaterialize(t *testing.T) {
	eng, m := mkMesh()
	src, dst := geom.XY(0, 0), geom.XY(2, 0)
	m.SendH(src, dst, 768*4, sim.HandlerFunc(func() {}), sim.EventArg{})
	eng.Run()
	touched := 0
	for id := range m.tile {
		if m.tile[id] != noLink {
			touched++
		}
	}
	if touched != 2 { // (0,0) and (1,0) send east; (2,0) never sends
		t.Errorf("materialized tiles = %d, want 2", touched)
	}
	var visited int
	var sum sim.VTime
	m.VisitLinks(func(_ geom.Coord, _ string, busy sim.VTime) {
		visited++
		sum += busy
	})
	if visited != 2*4 {
		t.Errorf("VisitLinks visited %d links, want 8", visited)
	}
	if sum != m.LinkUtilization() {
		t.Errorf("VisitLinks busy sum %d != LinkUtilization %d", sum, m.LinkUtilization())
	}
	if _, _, ok := m.linkProbe(m.layout.NodeID(dst), dirEast); ok {
		t.Error("destination tile materialized despite never sending")
	}
}
