package geom

import "math"

// Grid is a uniform spatial binning of a bounding box, used to hash points
// to cells in O(1). The Delaunay kernel seeds its point-location walks from
// the most recent vertex in the query point's cell, which bounds the walk
// length when the insertion order has no spatial coherence (a cheap stand-in
// for a BRIO ordering).
type Grid struct {
	bb         BBox
	nx, ny     int
	invW, invH float64
}

// NewGrid builds a grid over bb with approximately targetCells cells,
// distributed across the two axes in proportion to the box's aspect ratio.
// targetCells below 1 yields a single cell.
func NewGrid(bb BBox, targetCells int) *Grid {
	if targetCells < 1 {
		targetCells = 1
	}
	w, h := bb.Width(), bb.Height()
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	// nx/ny ~ w/h with nx*ny ~ targetCells. A box more elongated than
	// targetCells:1 gets one row of targetCells cells: sizing the row by the
	// aspect ratio would allocate without bound for a nearly flat box.
	nx := targetCells
	if f := math.Sqrt(float64(targetCells) * w / h); f < float64(targetCells) {
		nx = max(int(math.Round(f)), 1)
	}
	ny := (targetCells + nx - 1) / nx
	if ny < 1 {
		ny = 1
	}
	return &Grid{
		bb:   bb,
		nx:   nx,
		ny:   ny,
		invW: float64(nx) / w,
		invH: float64(ny) / h,
	}
}

// NumCells returns the total number of cells.
func (g *Grid) NumCells() int { return g.nx * g.ny }

// Cell returns the index of the cell containing p, clamping points outside
// the box to the border cells.
func (g *Grid) Cell(p Point) int {
	ix := int((p.X - g.bb.Min.X) * g.invW)
	if ix < 0 {
		ix = 0
	} else if ix >= g.nx {
		ix = g.nx - 1
	}
	iy := int((p.Y - g.bb.Min.Y) * g.invH)
	if iy < 0 {
		iy = 0
	} else if iy >= g.ny {
		iy = g.ny - 1
	}
	return iy*g.nx + ix
}
