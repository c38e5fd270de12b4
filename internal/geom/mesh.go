// Package geom provides the wafer geometry underlying HDPAT: tile
// coordinates on the 2-D mesh, hop distances, the concentric caching layers
// around the central CPU tile, and the quadrant clustering + rotation scheme
// of §IV-D/E (equations 1-2, Fig 11) that maps a virtual page number to the
// unique caching GPM responsible for it in each layer.
package geom

import "fmt"

// Coord is a tile position on the mesh. X grows rightward, Y downward.
type Coord struct {
	X, Y int
}

func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// XY is a convenience constructor for Coord.
func XY(x, y int) Coord { return Coord{X: x, Y: y} }

// Manhattan returns the XY-routing hop count between two tiles.
func (c Coord) Manhattan(o Coord) int {
	return abs(c.X-o.X) + abs(c.Y-o.Y)
}

// Chebyshev returns the ring distance max(|dx|,|dy|) between two tiles;
// concentric layers are defined by Chebyshev distance from the CPU tile.
func (c Coord) Chebyshev(o Coord) int {
	dx, dy := abs(c.X-o.X), abs(c.Y-o.Y)
	if dx > dy {
		return dx
	}
	return dy
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Mesh describes a W x H wafer with one CPU tile; every other tile is a GPM.
type Mesh struct {
	W, H int
	CPU  Coord

	tiles []Coord // all GPM tiles in row-major order (CPU excluded)
}

// Mesh size bounds. MaxDim caps one dimension so W*H can never overflow
// 32-bit index arithmetic (tile IDs and the NoC's sparse link index both
// use int32-sized products); MaxTiles caps the topology a mesh may
// allocate. config.Validate enforces the same bounds with a typed
// error before any geometry is built — the panic here is the last line of
// defence for callers constructing meshes directly.
const (
	MaxDim   = 1024
	MaxTiles = 1 << 16
)

// NewMesh creates a mesh with the CPU at the centre tile, matching the paper
// ("we designate the center tile as the CPU"). For even dimensions the centre
// rounds down, keeping the CPU as central as possible.
func NewMesh(w, h int) *Mesh {
	if w < 3 || h < 3 {
		panic("geom: mesh must be at least 3x3")
	}
	if w > MaxDim || h > MaxDim || w*h > MaxTiles {
		panic(fmt.Sprintf("geom: mesh %dx%d exceeds the %d-tile bound", w, h, MaxTiles))
	}
	m := &Mesh{W: w, H: h, CPU: Coord{(w - 1) / 2, (h - 1) / 2}}
	m.tiles = make([]Coord, 0, w*h-1)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := Coord{x, y}
			if c != m.CPU {
				m.tiles = append(m.tiles, c)
			}
		}
	}
	return m
}

// NumTiles returns the total tile count, including the CPU.
func (m *Mesh) NumTiles() int { return m.W * m.H }

// NumGPMs returns the number of GPM tiles (all tiles except the CPU).
func (m *Mesh) NumGPMs() int { return len(m.tiles) }

// GPMs returns all GPM coordinates in row-major order. The returned slice is
// shared; callers must not modify it.
func (m *Mesh) GPMs() []Coord { return m.tiles }

// GPMIndex returns the index of tile c in GPMs(); ok is false for the CPU
// tile and for tiles off the wafer.
func (m *Mesh) GPMIndex(c Coord) (i int, ok bool) {
	if !m.Contains(c) || c == m.CPU {
		return 0, false
	}
	i = m.NodeID(c)
	if i > m.NodeID(m.CPU) {
		i--
	}
	return i, true
}

// Contains reports whether c lies on the wafer.
func (m *Mesh) Contains(c Coord) bool {
	return c.X >= 0 && c.X < m.W && c.Y >= 0 && c.Y < m.H
}

// NodeID maps a coordinate to a dense integer id in [0, W*H).
func (m *Mesh) NodeID(c Coord) int { return c.Y*m.W + c.X }

// CoordOf is the inverse of NodeID.
func (m *Mesh) CoordOf(id int) Coord { return Coord{id % m.W, id / m.W} }

// Ring returns the Chebyshev distance of c from the CPU tile.
func (m *Mesh) Ring(c Coord) int { return c.Chebyshev(m.CPU) }

// MaxRing returns the largest ring index present on the wafer.
func (m *Mesh) MaxRing() int {
	max := 0
	for _, c := range m.tiles {
		if r := m.Ring(c); r > max {
			max = r
		}
	}
	return max
}

// RingTiles enumerates the tiles at exactly Chebyshev distance r from the
// CPU, clockwise starting from the top-left corner of the ring. Tiles falling
// off the wafer (clipped rings on non-square meshes) are omitted, preserving
// the clockwise order of the survivors. Ring 0 is the CPU itself and returns
// nil (it is not a caching layer).
func (m *Mesh) RingTiles(r int) []Coord {
	if r <= 0 {
		return nil
	}
	var out []Coord
	cx, cy := m.CPU.X, m.CPU.Y
	add := func(x, y int) {
		c := Coord{x, y}
		if m.Contains(c) {
			out = append(out, c)
		}
	}
	// Top edge: left to right.
	for x := cx - r; x <= cx+r; x++ {
		add(x, cy-r)
	}
	// Right edge: top+1 to bottom-1.
	for y := cy - r + 1; y <= cy+r-1; y++ {
		add(cx+r, y)
	}
	// Bottom edge: right to left.
	for x := cx + r; x >= cx-r; x-- {
		add(x, cy+r)
	}
	// Left edge: bottom-1 to top+1.
	for y := cy + r - 1; y >= cy-r+1; y-- {
		add(cx-r, y)
	}
	return out
}

// XYPath returns the sequence of tiles visited routing from src to dst with
// dimension-ordered (X then Y) routing, excluding src and including dst.
// An empty slice means src == dst.
func (m *Mesh) XYPath(src, dst Coord) []Coord {
	var path []Coord
	c := src
	for c.X != dst.X {
		if dst.X > c.X {
			c.X++
		} else {
			c.X--
		}
		path = append(path, c)
	}
	for c.Y != dst.Y {
		if dst.Y > c.Y {
			c.Y++
		} else {
			c.Y--
		}
		path = append(path, c)
	}
	return path
}
