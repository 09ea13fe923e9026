package pslg

import (
	"math"

	"pamg2d/internal/geom"
)

// LoopIndex answers Loop.Contains for many query points against one loop.
// The loop's y-extent is cut into equal slabs and every edge is registered
// in each slab its own y-extent touches; a query visits only the edges of
// the slab holding p.Y and applies rayCrosses, its own copy of the test
// Loop.Contains applies to every edge (the linear scan stays the untouched
// reference the tests compare against).
//
// The answer is the linear scan's, bit for bit, by construction and not by
// tolerance: an edge can toggle the parity only when it straddles p.Y
// (lo <= p.Y < hi for its endpoint heights lo <= hi), slab() is monotone
// non-decreasing, so slab(lo) <= slab(p.Y) <= slab(hi) and the edge is
// among those registered in slab(p.Y). The slab's list is a superset of
// the straddling edges; the extra ones fail the straddle test exactly as
// they do in the linear scan.
//
// Build time and memory are O(n) whatever the loop's shape: a slab count is
// used only if its registrations total at most maxSlabEntries per edge, and
// the index is one slab holding every edge (the linear scan) otherwise.
type LoopIndex struct {
	pts []geom.Point
	// Queries with p.Y outside [ymin, ymax) straddle no edge.
	ymin, ymax float64
	// slab(y) = (y-ymin)*scale, scale = slabs/(ymax-ymin); slabs >= 1.
	slabs int
	scale float64
	// CSR layout: the edges of slab s are edges[start[s]:start[s+1]], each
	// the index i of the edge pts[i] -> pts[(i+1)%n], ascending.
	start []int32
	edges []int32
}

// maxSlabEntries bounds the index size: at most this many slab
// registrations per edge, summed over the loop.
const maxSlabEntries = 4

// rayCrosses reports whether the horizontal ray from p towards +x crosses
// the directed edge (a,b): the edge straddles p's height under the
// half-open rule that counts a vertex on the ray once, and p is on the
// side of it facing the crossing direction. It inlines, so a query pays the
// exact orientation test's call only on the edges that straddle.
func rayCrosses(a, b, p geom.Point) bool {
	return (a.Y > p.Y) != (b.Y > p.Y) && facesCrossing(a, b, p)
}

func facesCrossing(a, b, p geom.Point) bool {
	s := geom.Orient2DSign(a, b, p)
	return (b.Y > a.Y && s > 0) || (b.Y < a.Y && s < 0)
}

// NewLoopIndex builds the index of l. The loop's points are referenced,
// not copied; they must not change while the index is in use.
func NewLoopIndex(l *Loop) *LoopIndex {
	pts := l.Points
	n := len(pts)
	ix := &LoopIndex{pts: pts, slabs: 1}
	if n < 3 {
		// No area: ymin = ymax = 0 rejects every query.
		return ix
	}
	ymin, ymax := pts[0].Y, pts[0].Y
	rise := 0.0 // summed |dy| over the edges
	for i, p := range pts {
		ymin = math.Min(ymin, p.Y) // NaN propagates
		ymax = math.Max(ymax, p.Y)
		rise += math.Abs(pts[(i+1)%n].Y - p.Y)
	}
	height := ymax - ymin
	if height == 0 {
		return ix // flat loop: nothing straddles
	}
	if math.IsNaN(height) {
		// A NaN coordinate (a loop built in code: ReadPoly and Validate
		// refuse one) compares false with every height, so no y-range can
		// reject a query.
		ymin, ymax = math.Inf(-1), math.Inf(1)
	}
	ix.ymin, ix.ymax = ymin, ymax
	// An edge of rise dy touches at most dy*slabs/height + 2 slabs, so
	// slabs <= 2n*height/rise keeps the total within 4n. A simple loop
	// climbs and descends its height once (rise >= 2*height), and a convex
	// one does no more, so it gets one slab per edge; a comb of n
	// full-height teeth gets two. The count is taken only if it is a number
	// (non-finite coordinates make it NaN), its scale is finite (subnormal
	// heights) and the registrations, counted once, keep the bound the
	// estimate promises up to rounding.
	if s := math.Min(float64(n), 2*float64(n)*(height/rise)); s >= 2 {
		ix.slabs, ix.scale = int(s), float64(int(s))/height
		if math.IsInf(ix.scale, 0) || ix.entries() > maxSlabEntries*n {
			ix.slabs = 1
		}
	}
	ix.fill()
	return ix
}

// slab maps a height in [ymin, ymax] to its slab in [0, slabs). It is
// monotone non-decreasing in y: IEEE subtraction of a constant and
// multiplication by a non-negative constant round monotonically, and so do
// truncation and the clamp.
func (ix *LoopIndex) slab(y float64) int {
	if ix.slabs == 1 {
		return 0 // the product may be NaN here (non-finite coordinates)
	}
	s := int((y - ix.ymin) * ix.scale)
	if s >= ix.slabs {
		return ix.slabs - 1
	}
	return s
}

// span returns the slabs edge i is registered in.
func (ix *LoopIndex) span(i int) (lo, hi int) {
	a, b := ix.pts[i].Y, ix.pts[(i+1)%len(ix.pts)].Y
	if a > b {
		a, b = b, a
	}
	return ix.slab(a), ix.slab(b)
}

// entries returns the number of registrations the current slab count needs.
func (ix *LoopIndex) entries() int {
	total := 0
	for i := range ix.pts {
		lo, hi := ix.span(i)
		total += hi - lo + 1
	}
	return total
}

// fill builds the CSR table by counting sort: per-slab counts, prefix sums,
// then the edges in ascending order.
func (ix *LoopIndex) fill() {
	start := make([]int32, ix.slabs+1)
	for i := range ix.pts {
		lo, hi := ix.span(i)
		for s := lo; s <= hi; s++ {
			start[s+1]++
		}
	}
	for s := 0; s < ix.slabs; s++ {
		start[s+1] += start[s]
	}
	edges := make([]int32, start[ix.slabs])
	next := make([]int32, ix.slabs)
	copy(next, start)
	for i := range ix.pts {
		lo, hi := ix.span(i)
		for s := lo; s <= hi; s++ {
			edges[next[s]] = int32(i)
			next[s]++
		}
	}
	ix.start, ix.edges = start, edges
}

// Contains reports whether p lies strictly inside the loop; the result
// equals Loop.Contains(p) for every p.
func (ix *LoopIndex) Contains(p geom.Point) bool {
	if !(p.Y >= ix.ymin && p.Y < ix.ymax) {
		return false
	}
	s := ix.slab(p.Y)
	inside := false
	n := len(ix.pts)
	for _, i := range ix.edges[ix.start[s]:ix.start[s+1]] {
		j := int(i) + 1
		if j == n {
			j = 0
		}
		if rayCrosses(ix.pts[i], ix.pts[j], p) {
			inside = !inside
		}
	}
	return inside
}
