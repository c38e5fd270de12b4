package geom

import (
	"testing"
	"testing/quick"
)

func layers7x7(c int) *Layers {
	return NewLayers(NewMesh(7, 7), c, 4)
}

func TestLayersDefault7x7(t *testing.T) {
	ls := layers7x7(2)
	if ls.NumLayers() != 2 {
		t.Fatalf("NumLayers = %d, want 2", ls.NumLayers())
	}
	if n := len(ls.LayerTiles(0)); n != 8 {
		t.Errorf("layer 0 has %d tiles, want 8", n)
	}
	if n := len(ls.LayerTiles(1)); n != 16 {
		t.Errorf("layer 1 has %d tiles, want 16", n)
	}
}

func TestLayerOf(t *testing.T) {
	ls := layers7x7(2)
	m := ls.mesh
	cases := []struct {
		c    Coord
		want int
	}{
		{m.CPU, -1},
		{Coord{3, 2}, 0},  // ring 1
		{Coord{1, 2}, 1},  // ring 2
		{Coord{0, 0}, -1}, // ring 3, peripheral
	}
	for _, c := range cases {
		if got := ls.LayerOf(c.c); got != c.want {
			t.Errorf("LayerOf(%v) = %d, want %d", c.c, got, c.want)
		}
	}
}

// Each VPN must map to exactly one home per layer ("each PTE appears exactly
// once per concentric layer", §IV-D), and that home must be a tile of the
// layer's ring.
func TestHomeUniqueAndInLayer(t *testing.T) {
	ls := layers7x7(2)
	for vpn := uint64(0); vpn < 10000; vpn++ {
		for l := 0; l < 2; l++ {
			h := ls.Home(l, vpn)
			if ls.LayerOf(h) != l {
				t.Fatalf("Home(%d,%d)=%v is not in layer %d", l, vpn, h, l)
			}
			// Determinism: same answer twice.
			if ls.Home(l, vpn) != h {
				t.Fatalf("Home not deterministic for vpn %d", vpn)
			}
		}
	}
}

// Consecutive VPNs must spread across clusters (Eq. 1 is VPN mod Nc), so four
// consecutive VPNs land in four distinct quadrant clusters.
func TestClusterSpreading(t *testing.T) {
	ls := layers7x7(2)
	for base := uint64(0); base < 1000; base += 4 {
		seen := map[Coord]bool{}
		for i := uint64(0); i < 4; i++ {
			seen[ls.Home(1, base+i)] = true
		}
		if len(seen) != 4 {
			t.Fatalf("VPNs %d..%d map to %d distinct layer-1 homes, want 4", base, base+3, len(seen))
		}
	}
}

// All tiles of a layer should receive a near-uniform share of VPNs.
func TestHomeLoadBalance(t *testing.T) {
	ls := layers7x7(2)
	for l := 0; l < 2; l++ {
		counts := map[Coord]int{}
		n := 16 * 4096
		for vpn := 0; vpn < n; vpn++ {
			counts[ls.Home(l, uint64(vpn))]++
		}
		tiles := ls.LayerTiles(l)
		if len(counts) != len(tiles) {
			t.Fatalf("layer %d uses %d of %d tiles", l, len(counts), len(tiles))
		}
		want := n / len(tiles)
		for c, got := range counts {
			if got < want*9/10 || got > want*11/10 {
				t.Errorf("layer %d tile %v holds %d VPNs, want ~%d", l, c, got, want)
			}
		}
	}
}

// Rotation property (§IV-E): with C=2 every GPM on the wafer must have at
// least one per-layer home within a small hop count for every VPN. Without
// rotation, requesters in the quadrant opposite a VPN's cluster would see
// distances up to nearly the wafer diameter for both layers simultaneously.
func TestRotationNearbyHome(t *testing.T) {
	ls := layers7x7(2)
	m := ls.mesh
	worst := 0
	for _, g := range m.GPMs() {
		for vpn := uint64(0); vpn < 512; vpn++ {
			d := ls.NearestHop(g, vpn)
			if d > worst {
				worst = d
			}
		}
	}
	// On a 7x7, CPU-centred rings 1-2: a corner GPM is 6 hops from the CPU;
	// with rotation the nearest home stays within 6 hops for every VPN.
	if worst > 6 {
		t.Errorf("worst-case nearest home distance %d, want <= 6", worst)
	}
}

// Rotation must make adjacent layers start half a ring apart: the layer-0 and
// layer-1 homes of a VPN should usually not sit in the same quadrant.
func TestRotationOffsetsLayers(t *testing.T) {
	ls := layers7x7(2)
	cpu := ls.mesh.CPU
	same := 0
	n := 4096
	for vpn := 0; vpn < n; vpn++ {
		h0 := ls.Home(0, uint64(vpn))
		h1 := ls.Home(1, uint64(vpn))
		q0 := quadrant(h0, cpu)
		q1 := quadrant(h1, cpu)
		if q0 == q1 {
			same++
		}
	}
	if same > n/2 {
		t.Errorf("homes share a quadrant for %d/%d VPNs; rotation ineffective", same, n)
	}
}

func quadrant(c, cpu Coord) int {
	q := 0
	if c.X > cpu.X {
		q |= 1
	}
	if c.Y > cpu.Y {
		q |= 2
	}
	return q
}

func TestLayersClampToWafer(t *testing.T) {
	ls := NewLayers(NewMesh(3, 3), 5, 4)
	if ls.NumLayers() != 1 {
		t.Fatalf("3x3 wafer supports %d layers, want 1", ls.NumLayers())
	}
}

func TestLayers7x12(t *testing.T) {
	ls := NewLayers(NewMesh(7, 12), 2, 4)
	for vpn := uint64(0); vpn < 5000; vpn++ {
		for l := 0; l < 2; l++ {
			h := ls.Home(l, vpn)
			if ls.LayerOf(h) != l {
				t.Fatalf("7x12 Home(%d,%d)=%v not in layer", l, vpn, h)
			}
		}
	}
}

// Property: Home is total and stable for any vpn on several wafer shapes.
func TestHomeTotalProperty(t *testing.T) {
	shapes := []*Layers{
		layers7x7(2), layers7x7(3),
		NewLayers(NewMesh(7, 12), 2, 4),
		NewLayers(NewMesh(5, 5), 2, 4),
	}
	f := func(vpn uint64) bool {
		for _, ls := range shapes {
			for l := 0; l < ls.NumLayers(); l++ {
				h := ls.Home(l, vpn)
				if !ls.mesh.Contains(h) || ls.LayerOf(h) != l {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
