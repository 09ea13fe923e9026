// Package delaunay implements the sequential meshing kernel that plays the
// role of Shewchuk's Triangle in the paper: a constrained Delaunay
// triangulator with Ruppert-style quality refinement driven by a
// circumradius-to-shortest-edge bound and a user sizing function.
//
// The triangulation is built incrementally (Bowyer–Watson) inside a
// bounding box whose four corners are real auxiliary vertices, so every
// inserted point lies strictly inside the current triangulation and no
// symbolic ghost handling is needed. Constrained segments are recovered by
// cavity retriangulation, the exterior and holes are carved by flood fill
// across unconstrained edges, and refinement inserts circumcenters and
// constraint midpoints until all interior triangles meet the quality and
// size bounds. All orientation and incircle decisions use the robust
// adaptive predicates from the geom package.
package delaunay

import (
	"errors"
	"fmt"
	"slices"

	"pamg2d/internal/geom"
)

// invalid marks an absent neighbor or vertex slot.
const invalid = int32(-1)

// Tri is one triangle of the triangulation. V holds the vertex indices in
// counter-clockwise order. N[i] is the neighbor across edge i, where edge i
// connects V[i] to V[(i+1)%3]. C[i] reports whether edge i is a constrained
// (PSLG) edge. Outside marks triangles carved away as exterior or hole
// area; they stay in the data structure to keep adjacency walks simple but
// are excluded from the output mesh and from refinement.
type Tri struct {
	V       [3]int32
	N       [3]int32
	C       [3]bool
	Dead    bool
	Outside bool
}

// Triangulation is an incremental constrained Delaunay triangulation.
type Triangulation struct {
	pts  []geom.Point
	tris []Tri
	free []int32 // indices of dead triangles available for reuse

	// vtri[v] is some live triangle incident to vertex v, used to seed
	// point-location walks and vertex star traversals.
	vtri []int32

	// corner[i] are the four auxiliary bounding-box vertices.
	corner [4]int32

	// last is the most recently created or visited triangle, the walk seed.
	last int32

	// carved reports that Carve ran; refinement requires it.
	carved bool

	// scratch is the sequential insertion path's cavity-search state,
	// reused across insertions to avoid per-insert allocation. The
	// concurrent engine (parallel.go) shards this state instead: each
	// pending point carries its own cavScratch so cavity searches from
	// multiple workers never share buffers.
	scratch cavScratch

	// marks is the sequential path's visited set, shared by the cavity
	// search and the star traversals (visitStar, firstCrossing), which
	// never nest. The concurrent engine keeps one per stripe instead.
	marks triMarks

	// starStack is the star traversals' worklist, and Carve's flood's.
	starStack []int32

	// refSegs and refTris hold the refiner's worklists between Refine
	// calls so repeated refinement passes reuse their backing arrays;
	// refEnc is insertCircumcenter's list of encroached segments.
	refSegs []segRef
	refTris []triRef
	refEnc  [][2]int32

	// binGrid hashes points to cells and binSeed remembers the most recent
	// vertex per cell; locate starts its walk from that vertex when it is
	// closer to the query than the default seed. Seeding is on while
	// binSeed is non-empty. Bin seeding serves constrained inputs only:
	// insertionOrder turns it on for the scattered queries of their
	// segment recovery and refinement.
	binGrid geom.Grid
	binSeed []int32
}

// fanEdge is one open edge of the cavity fan under construction: the
// directed edge between the new vertex v and another cavity-boundary
// vertex, waiting to be linked to the sibling fan triangle that shares it.
type fanEdge struct {
	other  int32 // the non-v endpoint
	tri, e int32 // fan triangle and its edge index
	fromV  bool  // directed (v, other) if true, (other, v) otherwise
}

type cavityEdge struct {
	a, b    int32 // directed edge of the cavity boundary (cavity on the left)
	t       int32 // triangle outside the cavity across this edge (invalid if none)
	te      int32 // edge index within t matching (b,a)
	c       bool  // constrained flag carried over from the removed triangle
	outside bool  // carved-exterior flag of the removed triangle
}

// cavScratch is one insertion's cavity-search scratch: the cavity triangle
// list, its directed boundary edges, the breadth-first search worklist,
// and commit's open fan-edge list. The triangulation owns one for the
// sequential path; the concurrent engine keeps one per pending point so
// cavity searches and commits run without shared buffers.
type cavScratch struct {
	cavityTris  []int32
	cavityEdges []cavityEdge
	stack       []int32
	fanOpen     []fanEdge
}

// triMarks is a set of triangles that empties in O(1): triangle ti is in
// the current set iff mark[ti] equals epoch, so starting a new set is one
// increment and the array is re-zeroed only when the epoch wraps.
type triMarks struct {
	mark  []uint32
	epoch uint32
}

// begin empties the set, makes it cover every triangle of t and returns
// the mark array with the epoch to compare and store. A triangle store
// that outgrew the array gets a new one sized to its capacity, so the
// array is allocated once per doubling of t.tris; nothing is copied, since
// a zero is below every epoch. begin only reads t.
func (m *triMarks) begin(t *Triangulation) ([]uint32, uint32) {
	if len(m.mark) < len(t.tris) {
		m.mark = make([]uint32, cap(t.tris))
	}
	m.epoch++
	if m.epoch == 0 {
		clear(m.mark)
		m.epoch = 1
	}
	return m.mark, m.epoch
}

// ErrDuplicate is returned by InsertPoint for a point that coincides with
// an existing vertex.
var ErrDuplicate = errors.New("delaunay: duplicate point")

// ErrOutside is returned for a point outside the triangulation's bounding
// box.
var ErrOutside = errors.New("delaunay: point outside bounding box")

// New creates a triangulation whose working area is the given bounding box
// inflated by a margin. All points inserted later must lie within the
// original box.
func New(bb geom.BBox) *Triangulation { return NewCap(bb, 0) }

// NewCap is New with a capacity hint: the expected number of points to be
// inserted. The vertex and triangle stores are preallocated from the hint
// (an incremental Delaunay triangulation of n points holds about 2n live
// triangles), so bulk insertion does not regrow them; past the hint they
// grow by doubling.
func NewCap(bb geom.BBox, expectPoints int) *Triangulation {
	t := new(Triangulation)
	t.reset(bb, expectPoints)
	return t
}

// reset empties t and starts it over as NewCap(bb, expectPoints) would,
// keeping the backing arrays of its stores and scratch: a store already
// as large as the hint is not reallocated, and the visited marks keep
// their epoch, so every stale mark stays below the next one.
func (t *Triangulation) reset(bb geom.BBox, expectPoints int) {
	if bb.Empty() {
		bb = geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)}
	}
	// Inflate generously so circumcircles of skinny boundary triangles stay
	// well-behaved and domain points never touch the auxiliary frame.
	d := bb.Width() + bb.Height()
	if d == 0 {
		d = 1
	}
	bb = bb.Inflate(d)
	t.pts, t.vtri = t.pts[:0], t.vtri[:0]
	t.tris, t.free = t.tris[:0], t.free[:0]
	t.last, t.carved = 0, false
	t.binSeed = t.binSeed[:0]
	if expectPoints > 0 {
		if cap(t.pts) < expectPoints+4 {
			t.pts = make([]geom.Point, 0, expectPoints+4)
		}
		if cap(t.vtri) < expectPoints+4 {
			t.vtri = make([]int32, 0, expectPoints+4)
		}
		if cap(t.tris) < 2*expectPoints+16 {
			t.tris = make([]Tri, 0, 2*expectPoints+16)
		}
	}
	c0 := t.addPoint(geom.Pt(bb.Min.X, bb.Min.Y))
	c1 := t.addPoint(geom.Pt(bb.Max.X, bb.Min.Y))
	c2 := t.addPoint(geom.Pt(bb.Max.X, bb.Max.Y))
	c3 := t.addPoint(geom.Pt(bb.Min.X, bb.Max.Y))
	t.corner = [4]int32{c0, c1, c2, c3}
	// Two seed triangles: (c0,c1,c2) and (c0,c2,c3), both CCW.
	t0 := t.addTri(c0, c1, c2)
	t1 := t.addTri(c0, c2, c3)
	t.tris[t0].N[2] = t1 // edge c2->c0
	t.tris[t1].N[0] = t0 // edge c0->c2
}

// appendDoubling is append that grows a full slice to at least twice its
// capacity, where append grows a large slice by about 1.25×: a store that
// ends at N elements then allocates under 2N along the way, not 4–5N.
func appendDoubling[E any](s []E, v E) []E {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), 8))
	}
	return append(s, v)
}

// NumPoints returns the number of vertices including the four auxiliary
// bounding-box corners.
func (t *Triangulation) NumPoints() int { return len(t.pts) }

// Point returns vertex v's coordinates.
func (t *Triangulation) Point(v int32) geom.Point { return t.pts[v] }

// IsCorner reports whether v is one of the four auxiliary frame vertices.
func (t *Triangulation) IsCorner(v int32) bool {
	for _, c := range t.corner {
		if c == v {
			return true
		}
	}
	return false
}

func (t *Triangulation) addPoint(p geom.Point) int32 {
	t.pts = appendDoubling(t.pts, p)
	t.vtri = appendDoubling(t.vtri, invalid)
	v := int32(len(t.pts) - 1)
	if len(t.binSeed) > 0 {
		t.binSeed[t.binGrid.Cell(p)] = v
	}
	return v
}

// enableBinSeeding turns on spatially hashed walk seeds for locate: points
// hash to cells of a uniform grid over bb, and each insertion remembers its
// vertex in its cell so later queries nearby start their walk there.
// expectPoints sizes the grid (about two points per cell). The
// already-inserted vertices seed their cells immediately.
func (t *Triangulation) enableBinSeeding(bb geom.BBox, expectPoints int) {
	cells := expectPoints / 2
	if cells < 1 {
		cells = 1
	}
	t.binGrid = geom.NewGrid(bb, cells)
	if n := t.binGrid.NumCells(); cap(t.binSeed) < n {
		t.binSeed = make([]int32, n)
	} else {
		t.binSeed = t.binSeed[:n]
	}
	for i := range t.binSeed {
		t.binSeed[i] = invalid
	}
	for v, p := range t.pts {
		t.binSeed[t.binGrid.Cell(p)] = int32(v)
	}
}

func (t *Triangulation) addTri(a, b, c int32) int32 {
	var idx int32
	if n := len(t.free); n > 0 {
		idx = t.free[n-1]
		t.free = t.free[:n-1]
		t.tris[idx] = Tri{V: [3]int32{a, b, c}, N: [3]int32{invalid, invalid, invalid}}
	} else {
		t.tris = appendDoubling(t.tris, Tri{V: [3]int32{a, b, c}, N: [3]int32{invalid, invalid, invalid}})
		idx = int32(len(t.tris) - 1)
	}
	t.vtri[a] = idx
	t.vtri[b] = idx
	t.vtri[c] = idx
	t.last = idx
	return idx
}

func (t *Triangulation) killTri(ti int32) {
	t.tris[ti].Dead = true
	t.free = appendDoubling(t.free, ti)
}

// edgeIndex returns the edge index e of triangle ti such that the directed
// edge (V[e], V[e+1]) equals (a, b), or -1.
func (t *Triangulation) edgeIndex(ti, a, b int32) int32 {
	tr := &t.tris[ti]
	for e := int32(0); e < 3; e++ {
		if tr.V[e] == a && tr.V[(e+1)%3] == b {
			return e
		}
	}
	return -1
}

// link makes ta (edge ea) and tb (edge eb) mutual neighbors. Either side
// may be invalid.
func (t *Triangulation) link(ta, ea, tb, eb int32) {
	if ta != invalid {
		t.tris[ta].N[ea] = tb
	}
	if tb != invalid {
		t.tris[tb].N[eb] = ta
	}
}

// InsertPoint adds p to the triangulation and returns its vertex index.
// Points must lie strictly inside the working bounding box. Duplicate
// points return the existing vertex index together with ErrDuplicate.
func (t *Triangulation) InsertPoint(p geom.Point) (int32, error) {
	loc := t.locate(p)
	switch loc.kind {
	case locOutside:
		return -1, ErrOutside
	case locVertex:
		return loc.v, ErrDuplicate
	case locEdge:
		if t.tris[loc.t].C[loc.e] {
			// Splitting a constrained segment: clear the constraint, open
			// the cavity on both sides, and re-constrain the two halves.
			return t.insertOnConstraint(p, loc)
		}
	}
	v := t.addPoint(p)
	t.digCavity(v, loc)
	return v, nil
}

// digCavity removes every triangle whose circumcircle strictly contains
// vertex v's point (never crossing constrained edges), then retriangulates
// the star-shaped hole by fanning v to the cavity boundary.
func (t *Triangulation) digCavity(v int32, loc location) {
	t.computeCavity(t.pts[v], loc)
	t.commitCavity(v)
}

// computeCavity fills the sequential scratch's cavityTris and cavityEdges
// for inserting point p at location loc, without mutating the
// triangulation.
func (t *Triangulation) computeCavity(p geom.Point, loc location) {
	t.computeCavityInto(p, loc, &t.scratch, &t.marks)
}

// computeCavityInto is computeCavity writing into the given scratch and
// visited set. It only reads the triangulation, so concurrent cavity
// searches with private scratches and marks can share one topology
// snapshot. Membership in the cavity is a mark per triangle, so the search
// costs one in-circle test per triangle it looks at and nothing that grows
// with the cavity.
func (t *Triangulation) computeCavityInto(p geom.Point, loc location, s *cavScratch, in *triMarks) {
	s.cavityTris = s.cavityTris[:0]
	s.cavityEdges = s.cavityEdges[:0]
	s.stack = s.stack[:0]
	mark, epoch := in.begin(t)

	// Seed triangles: the containing triangle, or both triangles sharing
	// the containing edge.
	push := func(ti int32) {
		if ti == invalid || t.tris[ti].Dead || mark[ti] == epoch {
			return
		}
		mark[ti] = epoch
		s.cavityTris = append(s.cavityTris, ti)
		s.stack = append(s.stack, ti)
	}
	push(loc.t)
	if loc.kind == locEdge {
		// Also seed the triangle on the other side of the edge, unless the
		// edge is constrained (a point exactly on a constrained segment
		// still opens the cavity on both sides only via splitConstraint,
		// which clears the flag first).
		if !t.tris[loc.t].C[loc.e] {
			push(t.tris[loc.t].N[loc.e])
		}
	}

	for len(s.stack) > 0 {
		ti := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		tr := &t.tris[ti]
		for e := 0; e < 3; e++ {
			if tr.C[e] {
				continue // never grow the cavity across a constraint
			}
			nb := tr.N[e]
			if nb == invalid || mark[nb] == epoch {
				continue
			}
			ntr := &t.tris[nb]
			if ntr.Dead {
				continue
			}
			if geom.InCircle(t.pts[ntr.V[0]], t.pts[ntr.V[1]], t.pts[ntr.V[2]], p) > 0 {
				mark[nb] = epoch
				s.cavityTris = append(s.cavityTris, nb)
				s.stack = append(s.stack, nb)
			}
		}
	}

	// Collect the directed boundary edges of the cavity. Only live
	// triangles are ever marked.
	for _, ti := range s.cavityTris {
		tr := &t.tris[ti]
		for e := int32(0); e < 3; e++ {
			nb := tr.N[e]
			if nb != invalid && !tr.C[e] && mark[nb] == epoch {
				continue // interior cavity edge
			}
			a := tr.V[e]
			b := tr.V[(e+1)%3]
			var te int32 = -1
			if nb != invalid {
				te = t.edgeIndex(nb, b, a)
			}
			s.cavityEdges = append(s.cavityEdges, cavityEdge{a: a, b: b, t: nb, te: te, c: tr.C[e], outside: tr.Outside})
		}
	}
}

// commitCavity removes the triangles found by computeCavity and fans
// vertex v to the cavity boundary.
func (t *Triangulation) commitCavity(v int32) {
	for _, ti := range t.scratch.cavityTris {
		t.killTri(ti)
	}

	// Fan v to each boundary edge, then stitch neighbor pointers between
	// consecutive fan triangles. Every interior fan edge is shared by
	// exactly two fan triangles, so a small open-edge list with linear
	// matching replaces a per-insert map: cavities are tiny (a handful of
	// edges), making the scan cheaper than hashing and allocation-free.
	open := t.scratch.fanOpen[:0]
	match := func(other int32, fromV bool) (fanEdge, bool) {
		for i := range open {
			if open[i].other == other && open[i].fromV == fromV {
				fe := open[i]
				open[i] = open[len(open)-1]
				open = open[:len(open)-1]
				return fe, true
			}
		}
		return fanEdge{}, false
	}
	for _, ce := range t.scratch.cavityEdges {
		nt := t.addTri(v, ce.a, ce.b)
		// Each fan triangle lies on the same side of any constraint as the
		// removed triangle that contributed its boundary edge, so it
		// inherits that triangle's carved-exterior status.
		t.tris[nt].Outside = ce.outside
		// Edge 1 is (a,b): the cavity boundary edge.
		t.tris[nt].C[1] = ce.c
		t.link(nt, 1, ce.t, ce.te)
		// Edge 0 is (v,a), edge 2 is (b,v): shared with sibling fan
		// triangles. Match (v,a) against a sibling's (a,v).
		if he, ok := match(ce.a, false); ok {
			t.link(nt, 0, he.tri, he.e)
		} else {
			open = append(open, fanEdge{other: ce.a, tri: nt, e: 0, fromV: true})
		}
		if he, ok := match(ce.b, true); ok {
			t.link(nt, 2, he.tri, he.e)
		} else {
			open = append(open, fanEdge{other: ce.b, tri: nt, e: 2, fromV: false})
		}
	}
	t.scratch.fanOpen = open[:0]
}

// locKind classifies a point-location result.
type locKind int

const (
	locInside locKind = iota
	locEdge
	locVertex
	locOutside
)

type location struct {
	kind locKind
	t    int32 // containing triangle
	e    int32 // edge index for locEdge
	v    int32 // vertex index for locVertex
}

// locate finds the triangle containing p by straight walking from the last
// visited triangle (or, with bin seeding enabled, from the nearest of the
// last triangle and the query cell's remembered vertex), using exact
// orientation tests. The found triangle seeds the next walk.
func (t *Triangulation) locate(p geom.Point) location {
	loc := t.locateFrom(t.last, p)
	if loc.kind != locOutside && loc.t != invalid {
		t.last = loc.t
	}
	return loc
}

// locateFrom is locate's read-only walk: it starts from the given seed
// triangle and never mutates the triangulation, so concurrent locators
// holding private seeds can share one topology snapshot.
func (t *Triangulation) locateFrom(seed int32, p geom.Point) location {
	ti := seed
	if ti == invalid || int(ti) >= len(t.tris) || t.tris[ti].Dead {
		ti = t.anyLive()
		if ti == invalid {
			return location{kind: locOutside}
		}
	}
	if len(t.binSeed) > 0 {
		if w := t.binSeed[t.binGrid.Cell(p)]; w != invalid {
			if wt := t.vtri[w]; wt != invalid && !t.tris[wt].Dead {
				if t.pts[w].Dist2(p) < t.pts[t.tris[ti].V[0]].Dist2(p) {
					ti = wt
				}
			}
		}
	}
	maxSteps := 4*len(t.tris) + 16
	for step := 0; step < maxSteps; step++ {
		tr := t.tris[ti]
		var onEdge int32 = -1
		walked := false
		for e := int32(0); e < 3; e++ {
			a := tr.V[e]
			b := tr.V[(e+1)%3]
			s := geom.Orient2DSign(t.pts[a], t.pts[b], p)
			if s < 0 {
				nb := tr.N[e]
				if nb == invalid || t.tris[nb].Dead {
					return location{kind: locOutside}
				}
				ti = nb
				walked = true
				break
			}
			if s == 0 {
				onEdge = e
			}
		}
		if walked {
			continue
		}
		if onEdge >= 0 {
			tr := t.tris[ti]
			a := tr.V[onEdge]
			b := tr.V[(onEdge+1)%3]
			if p == t.pts[a] {
				return location{kind: locVertex, t: ti, v: a}
			}
			if p == t.pts[b] {
				return location{kind: locVertex, t: ti, v: b}
			}
			return location{kind: locEdge, t: ti, e: onEdge}
		}
		return location{kind: locInside, t: ti}
	}
	// The walk failed to terminate (should not happen with exact
	// predicates); fall back to exhaustive search.
	return t.locateExhaustive(p)
}

func (t *Triangulation) locateExhaustive(p geom.Point) location {
	for i := range t.tris {
		if t.tris[i].Dead {
			continue
		}
		tr := t.tris[i]
		var onEdge int32 = -1
		inside := true
		for e := int32(0); e < 3; e++ {
			s := geom.Orient2DSign(t.pts[tr.V[e]], t.pts[tr.V[(e+1)%3]], p)
			if s < 0 {
				inside = false
				break
			}
			if s == 0 {
				onEdge = e
			}
		}
		if !inside {
			continue
		}
		ti := int32(i)
		if onEdge >= 0 {
			a := tr.V[onEdge]
			b := tr.V[(onEdge+1)%3]
			if p == t.pts[a] {
				return location{kind: locVertex, t: ti, v: a}
			}
			if p == t.pts[b] {
				return location{kind: locVertex, t: ti, v: b}
			}
			return location{kind: locEdge, t: ti, e: onEdge}
		}
		return location{kind: locInside, t: ti}
	}
	return location{kind: locOutside}
}

func (t *Triangulation) anyLive() int32 {
	for i := range t.tris {
		if !t.tris[i].Dead {
			return int32(i)
		}
	}
	return invalid
}

// checkInvariants validates adjacency symmetry, CCW orientation and the
// (constrained) Delaunay property of every live triangle. It is meant for
// tests and costs O(n^2) in the Delaunay check.
func (t *Triangulation) checkInvariants(full bool) error {
	for i := range t.tris {
		tr := t.tris[i]
		if tr.Dead {
			continue
		}
		a, b, c := t.pts[tr.V[0]], t.pts[tr.V[1]], t.pts[tr.V[2]]
		if geom.Orient2DSign(a, b, c) <= 0 {
			return fmt.Errorf("triangle %d not CCW: %v %v %v", i, a, b, c)
		}
		for e := int32(0); e < 3; e++ {
			nb := tr.N[e]
			if nb == invalid {
				continue
			}
			if t.tris[nb].Dead {
				return fmt.Errorf("triangle %d edge %d points to dead neighbor %d", i, e, nb)
			}
			va, vb := tr.V[e], tr.V[(e+1)%3]
			back := t.edgeIndex(nb, vb, va)
			if back < 0 {
				return fmt.Errorf("triangle %d edge %d (%d,%d): neighbor %d lacks reverse edge", i, e, va, vb, nb)
			}
			if t.tris[nb].N[back] != int32(i) {
				return fmt.Errorf("triangle %d edge %d: asymmetric adjacency with %d", i, e, nb)
			}
			if tr.C[e] != t.tris[nb].C[back] {
				return fmt.Errorf("triangle %d edge %d: constraint flag mismatch with %d", i, e, nb)
			}
		}
	}
	if !full {
		return nil
	}
	// Local Delaunay check: for each unconstrained interior edge, the
	// opposite vertex of the neighbor must not be strictly inside the
	// circumcircle.
	for i := range t.tris {
		tr := t.tris[i]
		if tr.Dead {
			continue
		}
		for e := int32(0); e < 3; e++ {
			nb := tr.N[e]
			if nb == invalid || tr.C[e] {
				continue
			}
			va, vb := tr.V[e], tr.V[(e+1)%3]
			back := t.edgeIndex(nb, vb, va)
			opp := t.tris[nb].V[(back+2)%3]
			if geom.InCircle(t.pts[tr.V[0]], t.pts[tr.V[1]], t.pts[tr.V[2]], t.pts[opp]) > 0 {
				return fmt.Errorf("edge (%d,%d) of triangle %d is not locally Delaunay", va, vb, i)
			}
		}
	}
	return nil
}

// triArea returns twice the signed area of triangle ti.
func (t *Triangulation) triArea(ti int32) float64 {
	tr := t.tris[ti]
	return geom.Orient2D(t.pts[tr.V[0]], t.pts[tr.V[1]], t.pts[tr.V[2]])
}

// LiveTriangles returns the number of live (not dead) triangles, including
// carved-outside ones.
func (t *Triangulation) LiveTriangles() int {
	n := 0
	for i := range t.tris {
		if !t.tris[i].Dead {
			n++
		}
	}
	return n
}

// InteriorTriangles returns the number of live interior (not carved)
// triangles.
func (t *Triangulation) InteriorTriangles() int {
	n := 0
	for i := range t.tris {
		if !t.tris[i].Dead && !t.tris[i].Outside {
			n++
		}
	}
	return n
}
