package geom

import "testing"

// TestGridCellsBoundedForFlatBoxes: however elongated the box — a
// nearly collinear point set gives one 1e19:1 — the grid holds at most
// twice the cells asked for, and every point hashes to one of them.
func TestGridCellsBoundedForFlatBoxes(t *testing.T) {
	for _, bb := range []BBox{
		{Min: Pt(0, 0), Max: Pt(1, 1)},
		{Min: Pt(0, 0), Max: Pt(20, 1)},
		{Min: Pt(0, 0), Max: Pt(1.8e19, 1)},
		{Min: Pt(-20, 0), Max: Pt(20, 1e-300)},
		{Min: Pt(0, -1e10), Max: Pt(1e-10, 1e10)},
	} {
		for _, target := range []int{1, 2, 10, 1000} {
			g := NewGrid(bb, target)
			if n := g.NumCells(); n < 1 || n > 2*target {
				t.Errorf("box %v, %d cells asked: %d cells", bb, target, n)
				continue
			}
			for _, p := range []Point{bb.Min, bb.Max, bb.Center(), Pt(-1e300, 1e300)} {
				if c := g.Cell(p); c < 0 || c >= g.NumCells() {
					t.Errorf("box %v, %d cells asked: point %v in cell %d of %d", bb, target, p, c, g.NumCells())
				}
			}
		}
	}
}
