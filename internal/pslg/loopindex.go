package pslg

import (
	"math"

	"pamg2d/internal/geom"
)

// LoopIndex answers Loop.Contains for many query points against one loop.
// A range of heights is cut into equal slabs, the end slabs extending to
// -Inf and +Inf, and every edge is registered in each slab its own
// y-extent touches; a query visits only the edges of the slab holding p.Y
// and applies rayCrosses, its own copy of the test Loop.Contains applies
// to every edge (the linear scan stays the untouched reference the tests
// compare against).
//
// The answer is the linear scan's, bit for bit, by construction and not by
// tolerance: an edge can toggle the parity only when it straddles p.Y
// (lo <= p.Y < hi for its endpoint heights lo <= hi), slab() is monotone
// non-decreasing, so slab(lo) <= slab(p.Y) <= slab(hi) and the edge is
// among those registered in slab(p.Y). The slab's list is a superset of
// the straddling edges; the extra ones fail the straddle test exactly as
// they do in the linear scan. That holds for any range and any slab count,
// so both are chosen for speed alone.
//
// Build time and memory are O(n) whatever the loop's shape: a table is
// used only if it has at most n slabs and its registrations total at most
// maxSlabEntries per edge, and the index is one slab holding every edge
// (the linear scan) otherwise.
type LoopIndex struct {
	pts []geom.Point
	// Queries with p.Y outside [ymin, ymax) straddle no edge.
	ymin, ymax float64
	// Queries with p.X outside [xmin, xmax] are outside the loop (see
	// exactRange); xmin = -Inf, xmax = +Inf where that is not proved.
	xmin, xmax float64
	// slab(y) = (y-base)*scale clamped to [0, slabs); slabs >= 1, and
	// scale = 0 puts every height in slab 0.
	slabs       int
	base, scale float64
	// CSR layout: the edges of slab s are edges[start[s]:start[s+1]], each
	// the index i of the edge pts[i] -> pts[(i+1)%n], ascending.
	start []int32
	edges []int32
}

// maxSlabEntries bounds the index size: at most this many slab
// registrations per edge, summed over the loop.
const maxSlabEntries = 4

// trimShare: a narrowed table's range holds all but 1/trimShare of the
// loop's vertices.
const trimShare = 16

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

// exactRange reports whether v is 0 or a float of magnitude in
// [2^-480, 2^480]. Such values are multiples of 2^-532, so a nonzero
// difference of two of them lies in [2^-532, 2^481] and a product of two
// such differences in [2^-1064, 2^962]: neither underflows to zero nor
// overflows, and geom.Orient2D's filter returns the determinant with its
// exact sign whenever its two products have opposite signs or one is
// zero. For a query left of every vertex that makes every straddling edge
// face the crossing (an even number of them: a closed loop crosses a
// height an even number of times), and for one right of every vertex none:
// the scan answers false in both cases when the loop's and the query's
// coordinates are all in range. Outside it (NaN, infinities, subnormal
// products) the scan's predicate may answer anything, so the index scans.
func exactRange(v float64) bool {
	a := math.Abs(v)
	return a == 0 || (a >= 0x1p-480 && a <= 0x1p480)
}

// NewLoopIndex builds the index of l. The loop's points are referenced,
// not copied; they must not change while the index is in use.
func NewLoopIndex(l *Loop) *LoopIndex {
	pts := l.Points
	n := len(pts)
	ix := &LoopIndex{pts: pts, slabs: 1, xmin: math.Inf(-1), xmax: math.Inf(1)}
	if n < 3 {
		// No area: ymin = ymax = 0 rejects every query.
		return ix
	}
	bb := geom.BBox{Min: pts[0], Max: pts[0]}
	inRange := true
	rise := 0.0 // summed |dy| over the edges
	for i, p := range pts {
		bb.Min.X, bb.Max.X = math.Min(bb.Min.X, p.X), math.Max(bb.Max.X, p.X) // NaN propagates
		bb.Min.Y, bb.Max.Y = math.Min(bb.Min.Y, p.Y), math.Max(bb.Max.Y, p.Y)
		inRange = inRange && exactRange(p.X) && exactRange(p.Y)
		rise += math.Abs(pts[(i+1)%n].Y - p.Y)
	}
	height := bb.Max.Y - bb.Min.Y
	if height == 0 {
		return ix // flat loop: nothing straddles
	}
	if inRange {
		ix.xmin, ix.xmax = bb.Min.X, bb.Max.X
	}
	if math.IsNaN(height) {
		// A NaN coordinate (a loop built in code: ReadPoly and Validate
		// refuse one) compares false with every height, so no y-range can
		// reject a query.
		bb.Min.Y, bb.Max.Y = math.Inf(-1), math.Inf(1)
	}
	ix.ymin, ix.ymax = bb.Min.Y, bb.Max.Y
	count := make([]int32, n+1) // per-slab counts of every candidate table, then its offsets
	if ix.try(count, bb.Min.Y, height, rise) {
		ix.narrow(count)
	}
	ix.fill(count)
	return ix
}

// narrow sizes the table by the scan a query pays, estimated with the
// vertices standing in for the queries: the registrations of each vertex's
// slab, summed. Where that is more than twice the mean slab load a vertex,
// the vertices crowd into heavy slabs: a long spike of the loop has
// stretched the y-extent past where the rest of it lies (the boundary
// layer's outer border reaches 12 chords out on a three-element airfoil
// while its other vertices span 0.15). The table is then rebuilt over the
// shortest run of slabs holding all but 1/trimShare of the vertices, and
// kept if the estimate falls.
func (ix *LoopIndex) narrow(count []int32) {
	n := len(ix.pts)
	cost, entries := ix.cost(count)
	if float64(cost)*float64(ix.slabs) <= 2*float64(entries)*float64(n) {
		return
	}
	lo, hi, ok := ix.bulk(count)
	if !ok {
		return
	}
	wide := *ix
	rise := 0.0 // summed |dy| within [lo, hi]
	for i, p := range ix.pts {
		rise += math.Abs(clamp(ix.pts[(i+1)%n].Y, lo, hi) - clamp(p.Y, lo, hi))
	}
	if ix.try(count, lo, hi-lo, rise) {
		if c, _ := ix.cost(count); c < cost {
			return
		}
	}
	*ix = wide
}

func clamp(y, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, y)) }

// try sets the slab table over [base, base+height] and reports whether a
// table of two or more slabs is taken. It takes one slab per edge if the
// registrations, counted once, total at most maxSlabEntries*n; otherwise
// the count the registration estimate allows: an edge of rise dy within
// the range touches at most dy*slabs/height + 2 slabs, so
// slabs <= 2n*height/rise keeps the total within 4n. A simple loop climbs
// and descends its height once (rise >= 2*height), and a convex one does
// no more, so it gets one slab per edge; a comb of n full-height teeth gets
// two. A count is taken only if it is a number (non-finite coordinates
// make it NaN), its scale is finite (subnormal heights) and its
// registrations keep the bound. Otherwise the index is one slab.
func (ix *LoopIndex) try(count []int32, base, height, rise float64) bool {
	n := len(ix.pts)
	for _, s := range [2]float64{float64(n), math.Min(float64(n-1), 2*float64(n)*(height/rise))} {
		if !(s >= 2) {
			continue
		}
		ix.slabs, ix.base, ix.scale = int(s), base, float64(int(s))/height
		if !math.IsInf(ix.scale, 0) && ix.count(count) <= maxSlabEntries*int64(n) {
			return true
		}
	}
	ix.slabs, ix.base, ix.scale = 1, 0, 0
	return false
}

// slab maps a height to its slab in [0, slabs). It is monotone
// non-decreasing in y: IEEE subtraction of a constant and multiplication by
// a non-negative constant round monotonically, and so do the clamps and
// truncation. A NaN product (non-finite coordinates, which get one slab)
// lands in slab 0.
func (ix *LoopIndex) slab(y float64) int {
	f := (y - ix.base) * ix.scale
	if !(f > 0) {
		return 0
	}
	if f >= float64(ix.slabs) {
		return ix.slabs - 1
	}
	return int(f)
}

// span returns the slabs edge i is registered in.
func (ix *LoopIndex) span(i int) (lo, hi int) {
	a, b := ix.pts[i].Y, ix.pts[(i+1)%len(ix.pts)].Y
	if a > b {
		a, b = b, a
	}
	return ix.slab(a), ix.slab(b)
}

// count writes each slab's number of registrations to count[:slabs] and
// returns their total. A difference array makes it O(n + slabs) however
// many slabs an edge spans, so a hostile loop is refused before any
// registration is written.
func (ix *LoopIndex) count(count []int32) int64 {
	clear(count[:ix.slabs+1])
	for i := range ix.pts {
		lo, hi := ix.span(i)
		count[lo]++
		count[hi+1]--
	}
	total, run := int64(0), int32(0)
	for s := 0; s < ix.slabs; s++ {
		run += count[s]
		count[s] = run
		total += int64(run)
	}
	return total
}

// cost counts the current table (taken by try) into count and returns the
// registrations of the vertices' slabs, summed over the vertices, and the
// table's total registrations.
func (ix *LoopIndex) cost(count []int32) (cost, entries int64) {
	entries = ix.count(count)
	for _, p := range ix.pts {
		cost += int64(count[ix.slab(p.Y)])
	}
	return cost, entries
}

// bulk returns the shortest run of the current table's slabs that holds
// all but 1/trimShare of the vertices, as a range of heights, and whether
// it is shorter than the table. It overwrites count with the vertices per
// slab.
func (ix *LoopIndex) bulk(count []int32) (lo, hi float64, ok bool) {
	clear(count[:ix.slabs])
	for _, p := range ix.pts {
		count[ix.slab(p.Y)]++
	}
	need := int32(len(ix.pts) - len(ix.pts)/trimShare)
	first, last := 0, ix.slabs-1
	held := int32(0)
	for s, f := 0, 0; s < ix.slabs; s++ {
		held += count[s]
		for held-count[f] >= need {
			held -= count[f]
			f++
		}
		if held >= need && s-f < last-first {
			first, last = f, s
		}
	}
	if last-first == ix.slabs-1 {
		return 0, 0, false
	}
	lo = ix.base + float64(first)/ix.scale
	hi = ix.base + float64(last+1)/ix.scale
	return lo, hi, hi > lo
}

// fill builds the CSR table of the current slab count by counting sort
// into count, which becomes the offsets: per-slab counts, running ends,
// then the edges placed from the back of their slabs in descending order,
// which leaves each slab ascending and each end moved to its slab's start.
func (ix *LoopIndex) fill(count []int32) {
	ix.count(count)
	for s := 1; s < ix.slabs; s++ {
		count[s] += count[s-1]
	}
	total := count[ix.slabs-1]
	count[ix.slabs] = total
	edges := make([]int32, total)
	for i := len(ix.pts) - 1; i >= 0; i-- {
		lo, hi := ix.span(i)
		for s := lo; s <= hi; s++ {
			count[s]--
			edges[count[s]] = int32(i)
		}
	}
	ix.start, ix.edges = count[:ix.slabs+1], edges
}

// Contains reports whether p lies strictly inside the loop; the result
// equals Loop.Contains(p) for every p.
func (ix *LoopIndex) Contains(p geom.Point) bool {
	inside := false
	n := len(ix.pts)
	for _, i := range ix.candidates(p) {
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

// candidates returns the edges a query at p scans: none when p is outside
// the y-extent or, provably (exactRange), outside the x-extent, and the
// edges of p.Y's slab otherwise.
func (ix *LoopIndex) candidates(p geom.Point) []int32 {
	if !(p.Y >= ix.ymin && p.Y < ix.ymax) {
		return nil
	}
	if (p.X < ix.xmin || p.X > ix.xmax) && exactRange(p.X) && exactRange(p.Y) {
		return nil
	}
	s := ix.slab(p.Y)
	return ix.edges[ix.start[s]:ix.start[s+1]]
}
