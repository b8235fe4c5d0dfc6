// Package grid models the n-node two-dimensional square grid G_n on which
// all agents of the simulator move, together with the Manhattan metric and
// the cell tessellation used by the paper's Theorem 1 analysis.
//
// Nodes are addressed two ways: as (x, y) coordinate pairs (type Point) and
// as flat indices in [0, n) (type NodeID). The flat form is what the hot
// simulation loops use; the coordinate form is what geometry code uses.
// Conversions are trivial arithmetic and both directions are exposed.
package grid

import (
	"fmt"
	"math"
)

// NodeID is the flat index of a grid node: id = y*Side + x.
type NodeID int32

// Point is a grid coordinate. Valid points satisfy 0 <= X, Y < Side for
// their grid.
type Point struct {
	X, Y int32
}

// Grid describes a Side x Side square lattice with N = Side*Side nodes.
// Grids are immutable after construction and safe for concurrent use.
type Grid struct {
	side int32
	n    int32
}

// MaxSide is the largest grid side: floor(sqrt(MaxInt32)), so that every
// node index fits an int32.
const MaxSide = 46340

// New constructs the square grid with the given side length.
// It returns an error if side is not positive or if side*side overflows the
// int32 node-index space.
func New(side int) (*Grid, error) {
	if side <= 0 {
		return nil, fmt.Errorf("grid: side must be positive, got %d", side)
	}
	if side > MaxSide {
		return nil, fmt.Errorf("grid: side %d too large (max %d)", side, MaxSide)
	}
	s := int32(side)
	return &Grid{side: s, n: s * s}, nil
}

// MustNew is New, panicking on error; intended for tests and examples with
// compile-time-constant sides.
func MustNew(side int) *Grid {
	g, err := New(side)
	if err != nil {
		panic(err)
	}
	return g
}

// FromNodes returns a grid with at least n nodes, choosing the smallest
// square side with side*side >= n. This mirrors the paper's "n-node grid"
// parameterisation where only the node count matters asymptotically.
func FromNodes(n int) (*Grid, error) {
	if n <= 0 {
		return nil, fmt.Errorf("grid: node count must be positive, got %d", n)
	}
	side := int(math.Ceil(math.Sqrt(float64(n))))
	return New(side)
}

// Side returns the side length of the grid.
func (g *Grid) Side() int { return int(g.side) }

// N returns the number of nodes, Side*Side.
func (g *Grid) N() int { return int(g.n) }

// Diameter returns the Manhattan diameter of the grid, 2*(Side-1), which the
// paper writes as 2*sqrt(n)-2.
func (g *Grid) Diameter() int { return 2 * (int(g.side) - 1) }

// Contains reports whether p is a valid node of the grid.
func (g *Grid) Contains(p Point) bool {
	return p.X >= 0 && p.X < g.side && p.Y >= 0 && p.Y < g.side
}

// ID converts a coordinate to its flat node index. The point must be on the
// grid; out-of-range points yield undefined IDs (checked only in tests to
// keep the hot path branch-free).
func (g *Grid) ID(p Point) NodeID {
	return NodeID(p.Y*g.side + p.X)
}

// Point converts a flat node index back to its coordinate.
func (g *Grid) Point(id NodeID) Point {
	return Point{X: int32(id) % g.side, Y: int32(id) / g.side}
}

// ManhattanPoints returns the Manhattan (L1) distance between two points,
// the metric the paper uses throughout (its footnote 2).
func ManhattanPoints(a, b Point) int {
	dx := int(a.X) - int(b.X)
	if dx < 0 {
		dx = -dx
	}
	dy := int(a.Y) - int(b.Y)
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Manhattan returns the Manhattan distance between two nodes given by ID.
func (g *Grid) Manhattan(a, b NodeID) int {
	return ManhattanPoints(g.Point(a), g.Point(b))
}

// Degree returns the number of grid neighbours of p: 2 at corners, 3 on
// edges, 4 in the interior. The paper writes this as nv.
func (g *Grid) Degree(p Point) int {
	d := 4
	if p.X == 0 || p.X == g.side-1 {
		d--
	}
	if p.Y == 0 || p.Y == g.side-1 {
		d--
	}
	if g.side == 1 {
		return 0
	}
	return d
}

// Neighbors appends the grid neighbours of p to buf and returns the extended
// slice. Passing a reusable buffer keeps simulation loops allocation-free.
func (g *Grid) Neighbors(p Point, buf []Point) []Point {
	if p.X > 0 {
		buf = append(buf, Point{p.X - 1, p.Y})
	}
	if p.X < g.side-1 {
		buf = append(buf, Point{p.X + 1, p.Y})
	}
	if p.Y > 0 {
		buf = append(buf, Point{p.X, p.Y - 1})
	}
	if p.Y < g.side-1 {
		buf = append(buf, Point{p.X, p.Y + 1})
	}
	return buf
}

// Clamp returns the nearest valid grid point to p (component-wise clamping).
func (g *Grid) Clamp(p Point) Point {
	if p.X < 0 {
		p.X = 0
	} else if p.X >= g.side {
		p.X = g.side - 1
	}
	if p.Y < 0 {
		p.Y = 0
	} else if p.Y >= g.side {
		p.Y = g.side - 1
	}
	return p
}

// Center returns the node closest to the geometric centre of the grid.
func (g *Grid) Center() Point {
	return Point{g.side / 2, g.side / 2}
}

// DiscSize returns the number of grid nodes within Manhattan distance r of
// the given point, accounting for boundary truncation. For interior points
// far from boundaries this is the full L1 ball size 2r^2+2r+1.
func (g *Grid) DiscSize(p Point, r int) int {
	if r < 0 {
		return 0
	}
	count := 0
	for dy := -r; dy <= r; dy++ {
		y := int(p.Y) + dy
		if y < 0 || y >= int(g.side) {
			continue
		}
		span := r - abs(dy)
		lo := int(p.X) - span
		hi := int(p.X) + span
		if lo < 0 {
			lo = 0
		}
		if hi >= int(g.side) {
			hi = int(g.side) - 1
		}
		if hi >= lo {
			count += hi - lo + 1
		}
	}
	return count
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// String implements fmt.Stringer.
func (g *Grid) String() string {
	return fmt.Sprintf("Grid(%dx%d, n=%d)", g.side, g.side, g.n)
}
