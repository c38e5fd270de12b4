package geom

import (
	"testing"
	"testing/quick"
)

func TestNewMeshCenter(t *testing.T) {
	cases := []struct {
		w, h   int
		cpu    Coord
		nGPM   int
		maxRng int
	}{
		{7, 7, Coord{3, 3}, 48, 3},
		{7, 12, Coord{3, 5}, 83, 6},
		{3, 3, Coord{1, 1}, 8, 1},
		{5, 5, Coord{2, 2}, 24, 2},
	}
	for _, c := range cases {
		m := NewMesh(c.w, c.h)
		if m.CPU != c.cpu {
			t.Errorf("%dx%d CPU = %v, want %v", c.w, c.h, m.CPU, c.cpu)
		}
		if m.NumGPMs() != c.nGPM {
			t.Errorf("%dx%d GPMs = %d, want %d", c.w, c.h, m.NumGPMs(), c.nGPM)
		}
		if m.MaxRing() != c.maxRng {
			t.Errorf("%dx%d MaxRing = %d, want %d", c.w, c.h, m.MaxRing(), c.maxRng)
		}
	}
}

func TestNodeIDRoundTrip(t *testing.T) {
	m := NewMesh(7, 12)
	for y := 0; y < 12; y++ {
		for x := 0; x < 7; x++ {
			c := Coord{x, y}
			if got := m.CoordOf(m.NodeID(c)); got != c {
				t.Fatalf("roundtrip %v -> %v", c, got)
			}
		}
	}
}

func TestRingTilesComplete(t *testing.T) {
	m := NewMesh(7, 7)
	// Full rings on a 7x7 have 8r tiles.
	for r := 1; r <= 3; r++ {
		tiles := m.RingTiles(r)
		if len(tiles) != 8*r {
			t.Errorf("ring %d has %d tiles, want %d", r, len(tiles), 8*r)
		}
		seen := map[Coord]bool{}
		for _, c := range tiles {
			if m.Ring(c) != r {
				t.Errorf("tile %v in ring %d has Chebyshev %d", c, r, m.Ring(c))
			}
			if seen[c] {
				t.Errorf("ring %d repeats tile %v", r, c)
			}
			seen[c] = true
		}
	}
	if m.RingTiles(0) != nil {
		t.Error("ring 0 should be nil")
	}
}

func TestRingTilesClipped(t *testing.T) {
	m := NewMesh(7, 12) // CPU at (3,5); ring 4 clips on X but not Y
	tiles := m.RingTiles(4)
	for _, c := range tiles {
		if !m.Contains(c) {
			t.Errorf("clipped ring contains off-wafer tile %v", c)
		}
		if m.Ring(c) != 4 {
			t.Errorf("tile %v not at ring 4", c)
		}
	}
	// Every on-wafer tile at Chebyshev 4 must be present.
	want := 0
	for y := 0; y < 12; y++ {
		for x := 0; x < 7; x++ {
			if (Coord{x, y}).Chebyshev(m.CPU) == 4 {
				want++
			}
		}
	}
	if len(tiles) != want {
		t.Errorf("clipped ring 4 has %d tiles, want %d", len(tiles), want)
	}
}

func TestRingsPartitionWafer(t *testing.T) {
	for _, dim := range [][2]int{{7, 7}, {7, 12}, {5, 9}} {
		m := NewMesh(dim[0], dim[1])
		count := 1 // CPU
		for r := 1; r <= m.MaxRing(); r++ {
			count += len(m.RingTiles(r))
		}
		if count != m.NumTiles() {
			t.Errorf("%dx%d rings cover %d tiles, want %d", dim[0], dim[1], count, m.NumTiles())
		}
	}
}

func TestXYPath(t *testing.T) {
	m := NewMesh(7, 7)
	p := m.XYPath(Coord{0, 0}, Coord{3, 2})
	if len(p) != 5 {
		t.Fatalf("path length %d, want 5 (Manhattan)", len(p))
	}
	if p[len(p)-1] != (Coord{3, 2}) {
		t.Fatalf("path ends at %v", p[len(p)-1])
	}
	// X moves first.
	if p[0] != (Coord{1, 0}) {
		t.Fatalf("first hop %v, want (1,0)", p[0])
	}
	if got := m.XYPath(Coord{2, 2}, Coord{2, 2}); len(got) != 0 {
		t.Fatalf("self path length %d", len(got))
	}
}

// Property: XY path length always equals Manhattan distance and every hop
// moves exactly one tile.
func TestXYPathProperty(t *testing.T) {
	m := NewMesh(7, 12)
	f := func(a, b uint16) bool {
		src := m.CoordOf(int(a) % m.NumTiles())
		dst := m.CoordOf(int(b) % m.NumTiles())
		p := m.XYPath(src, dst)
		if len(p) != src.Manhattan(dst) {
			return false
		}
		prev := src
		for _, c := range p {
			if prev.Manhattan(c) != 1 || !m.Contains(c) {
				return false
			}
			prev = c
		}
		return len(p) == 0 || p[len(p)-1] == dst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistances(t *testing.T) {
	a, b := Coord{1, 2}, Coord{4, 0}
	if a.Manhattan(b) != 5 {
		t.Errorf("Manhattan = %d, want 5", a.Manhattan(b))
	}
	if a.Chebyshev(b) != 3 {
		t.Errorf("Chebyshev = %d, want 3", a.Chebyshev(b))
	}
}

// The largest supported mesh (256x256 = MaxTiles) must build, index and
// invert tile IDs correctly at every corner — this is the boundary where
// 32-bit products in NodeID/CoordOf would first misbehave if the bounds
// were wrong — and anything past the cap must panic rather than silently
// wrap.
func TestMeshMaxBounds(t *testing.T) {
	m := NewMesh(256, 256)
	if m.NumTiles() != MaxTiles {
		t.Fatalf("NumTiles = %d, want %d", m.NumTiles(), MaxTiles)
	}
	if m.NumGPMs() != MaxTiles-1 {
		t.Fatalf("NumGPMs = %d, want %d", m.NumGPMs(), MaxTiles-1)
	}
	corners := []Coord{{0, 0}, {255, 0}, {0, 255}, {255, 255}, m.CPU}
	for _, c := range corners {
		id := m.NodeID(c)
		if id < 0 || id >= MaxTiles {
			t.Errorf("NodeID(%v) = %d out of range", c, id)
		}
		if got := m.CoordOf(id); got != c {
			t.Errorf("CoordOf(NodeID(%v)) = %v", c, got)
		}
	}
	if id := m.NodeID(Coord{255, 255}); id != MaxTiles-1 {
		t.Errorf("last tile id = %d, want %d", id, MaxTiles-1)
	}

	for _, dims := range [][2]int{{257, 256}, {MaxDim + 1, 3}, {3, MaxDim + 1}, {1 << 16, 1 << 16}} {
		func(w, h int) {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMesh(%d, %d) did not panic", w, h)
				}
			}()
			NewMesh(w, h)
		}(dims[0], dims[1])
	}
}

// Frame-space exhaustion on the vm side is exercised in internal/vm; here we
// pin the geometric invariant it depends on: every tile id fits MaxTiles.
func TestCoordRoundTripAtScale(t *testing.T) {
	m := NewMesh(30, 30)
	for id := 0; id < m.NumTiles(); id++ {
		if got := m.NodeID(m.CoordOf(id)); got != id {
			t.Fatalf("roundtrip %d -> %d", id, got)
		}
	}
}

// GPMIndex inverts GPMs() and rejects the CPU tile and tiles off the wafer.
func TestGPMIndexInvertsGPMs(t *testing.T) {
	for _, dims := range [][2]int{{3, 3}, {7, 7}, {7, 12}, {4, 5}} {
		m := NewMesh(dims[0], dims[1])
		for i, c := range m.GPMs() {
			if got, ok := m.GPMIndex(c); !ok || got != i {
				t.Fatalf("%dx%d: GPMIndex(%v) = %d, %v; want %d", dims[0], dims[1], c, got, ok, i)
			}
		}
		for _, c := range []Coord{m.CPU, {-1, 0}, {0, -1}, {m.W, 0}, {0, m.H}} {
			if _, ok := m.GPMIndex(c); ok {
				t.Fatalf("%dx%d: GPMIndex(%v) reported a GPM", dims[0], dims[1], c)
			}
		}
	}
}
