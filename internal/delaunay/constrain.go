package delaunay

import (
	"fmt"

	"pamg2d/internal/geom"
)

// InsertSegment forces the edge (a, b) between two existing vertices into
// the triangulation and marks it constrained. If the edge is not already
// present, every triangle crossed by the open segment is removed and the
// two resulting pseudo-polygons are retriangulated (Anglada's algorithm).
// Vertices lying exactly on the open segment split the constraint into
// sub-segments recursively.
func (t *Triangulation) InsertSegment(a, b int32) error {
	if a == b {
		return fmt.Errorf("delaunay: degenerate segment (%d,%d)", a, b)
	}
	// Fast path: edge already exists.
	if ti, e := t.findEdge(a, b); ti != invalid {
		t.setConstrained(ti, e, true)
		return nil
	}
	// Walk the triangles crossed by segment a->b. Collect the crossed
	// triangles and the vertices strictly left and right of the segment.
	pa, pb := t.pts[a], t.pts[b]

	ti, e := t.firstCrossing(a, pb)
	if ti == invalid {
		// The segment leaves a through an existing vertex v exactly on the
		// line: split the constraint at v.
		v := t.vertexOnSegment(a, b)
		if v == invalid {
			return fmt.Errorf("delaunay: cannot start segment (%d,%d): no crossing found", a, b)
		}
		if err := t.InsertSegment(a, v); err != nil {
			return err
		}
		return t.InsertSegment(v, b)
	}

	crossed := []int32{ti}
	var left, right []int32
	// Edge e of ti is the first crossed edge; sort its endpoints onto the
	// two sides of the directed line a -> b.
	u := t.tris[ti].V[e]
	w := t.tris[ti].V[(e+1)%3]
	if geom.Orient2DSign(pa, pb, t.pts[u]) > 0 {
		u, w = w, u
	}
	// Now u is strictly right of the segment and w strictly left (the
	// crossing walk guarantees neither is on the line).
	right = append(right, u)
	left = append(left, w)

	cur := ti
	curEdge := e
	for {
		nb := t.tris[cur].N[curEdge]
		if nb == invalid || t.tris[nb].Dead {
			return fmt.Errorf("delaunay: segment (%d,%d) walk left the triangulation", a, b)
		}
		if t.tris[cur].C[curEdge] {
			return fmt.Errorf("delaunay: segment (%d,%d) crosses constrained edge", a, b)
		}
		crossed = append(crossed, nb)
		// Find the apex of nb: the vertex not on the shared edge.
		sh := t.edgeIndex(nb, t.tris[cur].V[(curEdge+1)%3], t.tris[cur].V[curEdge])
		apex := t.tris[nb].V[(sh+2)%3]
		if apex == b {
			break
		}
		s := geom.Orient2DSign(pa, pb, t.pts[apex])
		if s == 0 {
			// A vertex exactly on the open segment: split there.
			// Roll back nothing (no mutation yet) and recurse.
			if err := t.InsertSegment(a, apex); err != nil {
				return err
			}
			return t.InsertSegment(apex, b)
		}
		if s > 0 {
			left = append(left, apex)
			// Continue through the edge of nb crossed by ab: it is the edge
			// from the shared-edge's right vertex to apex or apex to left
			// vertex; pick the one straddling the line.
			curEdge = t.exitEdge(nb, sh, pa, pb)
		} else {
			right = append(right, apex)
			curEdge = t.exitEdge(nb, sh, pa, pb)
		}
		cur = nb
	}

	// Record the outer neighbors of the crossed region before deleting.
	type outerEdge struct {
		va, vb int32 // directed edge of the hole boundary
		nb, ne int32 // neighbor outside the region and its edge index
		c      bool
	}
	var outer []outerEdge
	inRegion := func(x int32) bool {
		for _, c := range crossed {
			if c == x {
				return true
			}
		}
		return false
	}
	for _, ci := range crossed {
		tr := t.tris[ci]
		for e := int32(0); e < 3; e++ {
			nb := tr.N[e]
			if nb != invalid && inRegion(nb) {
				continue
			}
			var ne int32 = -1
			if nb != invalid {
				ne = t.edgeIndex(nb, tr.V[(e+1)%3], tr.V[e])
			}
			outer = append(outer, outerEdge{tr.V[e], tr.V[(e+1)%3], nb, ne, tr.C[e]})
		}
	}
	for _, ci := range crossed {
		t.killTri(ci)
	}

	// Retriangulate the two pseudo-polygons. Each polygon lists its CCW
	// boundary with the closing (constrained) edge running from the last
	// vertex to the first:
	//   left region:  b, left[k-1], ..., left[0], a  (closing edge a -> b)
	//   right region: a, right[0], ..., right[k-1], b (closing edge b -> a)
	edgeTri := make(map[[2]int32]halfRef, 4*len(outer))
	for _, oe := range outer {
		edgeTri[[2]int32{oe.va, oe.vb}] = halfRef{oe.nb, oe.ne, oe.c}
	}
	leftPoly := append([]int32{b}, reverse(left)...)
	leftPoly = append(leftPoly, a)
	rightPoly := append([]int32{a}, right...)
	rightPoly = append(rightPoly, b)

	lt, ltEdge := t.fillPolygon(leftPoly, edgeTri)
	rt, rtEdge := t.fillPolygon(rightPoly, edgeTri)
	t.link(lt, ltEdge, rt, rtEdge)
	t.tris[lt].C[ltEdge] = true
	t.tris[rt].C[rtEdge] = true
	return nil
}

type halfRef struct {
	tri, e int32
	c      bool
}

func reverse(s []int32) []int32 {
	out := make([]int32, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}

// fillPolygon triangulates the pseudo-polygon whose CCW boundary is poly
// (poly[0] and poly[len-1] are the constraint endpoints; the closing edge
// poly[len-1] -> poly[0] is the new constrained edge). It returns the new
// triangle adjacent to the closing edge and that edge's index. edgeTri maps
// directed boundary edges to their outside neighbors and is updated with
// newly created interior diagonals.
func (t *Triangulation) fillPolygon(poly []int32, edgeTri map[[2]int32]halfRef) (int32, int32) {
	n := len(poly)
	if n < 3 {
		return invalid, 0
	}
	a := poly[n-1] // closing edge start
	b := poly[0]   // closing edge end
	if n == 3 {
		c := poly[1]
		nt := t.addTri(a, b, c)
		// Edge 0 = (a,b) is the closing edge. Edges (b,c) and (c,a) are
		// boundary edges of the pseudo-polygon.
		t.hookEdge(nt, 1, b, c, edgeTri)
		t.hookEdge(nt, 2, c, a, edgeTri)
		return nt, 0
	}
	// Choose the apex c: the boundary vertex (strictly between the
	// endpoints) whose circumcircle with (a,b) is empty of the other
	// boundary vertices (Anglada's rule).
	best := 1
	pa, pb := t.pts[a], t.pts[b]
	for i := 2; i < n-1; i++ {
		// Triangle (a, b, poly[best]) is CCW; a positive incircle value
		// means poly[i] invalidates the current apex.
		if geom.InCircle(pa, pb, t.pts[poly[best]], t.pts[poly[i]]) > 0 {
			best = i
		}
	}
	c := poly[best]
	nt := t.addTri(a, b, c)
	// Recurse on the sub-polygons poly[0..best] (between b and c) and
	// poly[best..n-1] (between c and a).
	if best >= 1 {
		sub := append([]int32{}, poly[:best+1]...)
		// Closing edge of sub is c -> b = (poly[best] -> poly[0]); our
		// triangle's edge 1 is (b, c), the twin.
		st, se := t.fillPolygon(sub, edgeTri)
		if st != invalid {
			t.link(nt, 1, st, se)
		} else {
			t.hookEdge(nt, 1, b, c, edgeTri)
		}
	}
	if best <= n-2 {
		sub := append([]int32{}, poly[best:]...)
		// Closing edge of sub is a -> c; our edge 2 is (c, a).
		st, se := t.fillPolygon(sub, edgeTri)
		if st != invalid {
			t.link(nt, 2, st, se)
		} else {
			t.hookEdge(nt, 2, c, a, edgeTri)
		}
	}
	return nt, 0
}

// hookEdge links edge e of triangle nt, whose directed edge is (u, v), to
// the outside neighbor recorded in edgeTri, restoring the constraint flag.
func (t *Triangulation) hookEdge(nt, e, u, v int32, edgeTri map[[2]int32]halfRef) {
	if hr, ok := edgeTri[[2]int32{u, v}]; ok {
		t.link(nt, e, hr.tri, hr.e)
		t.tris[nt].C[e] = hr.c
		if hr.tri != invalid {
			t.tris[hr.tri].C[hr.e] = hr.c
		}
	}
}

// firstCrossing finds the triangle incident to vertex a whose opposite edge
// is crossed by the ray from a toward target, returning the triangle and
// the crossed edge's index. invalid is returned when the segment's first
// obstacle is a vertex exactly on the line.
func (t *Triangulation) firstCrossing(a int32, target geom.Point) (int32, int32) {
	pa := t.pts[a]
	start := t.vtri[a]
	if start == invalid || t.tris[start].Dead {
		start = t.findIncident(a)
		if start == invalid {
			return invalid, invalid
		}
	}
	// Walk around vertex a's star using the shared traversal scratch.
	mark, epoch := t.marks.begin(t)
	stack := append(t.starStack[:0], start)
	defer func() { t.starStack = stack[:0] }()
	for len(stack) > 0 {
		ti := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if mark[ti] == epoch {
			continue
		}
		mark[ti] = epoch
		tr := t.tris[ti]
		ai := int32(-1)
		for i := int32(0); i < 3; i++ {
			if tr.V[i] == a {
				ai = i
				break
			}
		}
		if ai < 0 {
			continue
		}
		// Opposite edge is (V[ai+1], V[ai+2]).
		u := tr.V[(ai+1)%3]
		w := tr.V[(ai+2)%3]
		su := geom.Orient2DSign(pa, target, t.pts[u])
		sw := geom.Orient2DSign(pa, target, t.pts[w])
		inFront := func(v int32) bool {
			q := t.pts[v]
			return (q.X-pa.X)*(target.X-pa.X)+(q.Y-pa.Y)*(target.Y-pa.Y) > 0
		}
		// The ray toward target exits through the opposite edge (u,w) iff
		// u is strictly right of the line and w strictly left. A collinear
		// star vertex in front of a means the segment passes through a
		// vertex; report no crossing so the caller splits there.
		if su == 0 && inFront(u) {
			return invalid, invalid
		}
		if sw == 0 && inFront(w) {
			return invalid, invalid
		}
		if su < 0 && sw > 0 {
			e := t.edgeIndex(ti, u, w)
			return ti, e
		}
		// Continue around the star through the two edges incident to a.
		for e := int32(0); e < 3; e++ {
			if tr.V[e] == a || tr.V[(e+1)%3] == a {
				nb := tr.N[e]
				if nb != invalid && !t.tris[nb].Dead && mark[nb] != epoch {
					stack = append(stack, nb)
				}
			}
		}
	}
	return invalid, invalid
}

// exitEdge returns the edge index of triangle ti through which the
// directed line (pa, pb) leaves, given that it entered through edge sh.
func (t *Triangulation) exitEdge(ti, sh int32, pa, pb geom.Point) int32 {
	for e := int32(0); e < 3; e++ {
		if e == sh {
			continue
		}
		u := t.tris[ti].V[e]
		w := t.tris[ti].V[(e+1)%3]
		su := geom.Orient2DSign(pa, pb, t.pts[u])
		sw := geom.Orient2DSign(pa, pb, t.pts[w])
		// The directed line enters a CCW triangle through the edge whose
		// first endpoint is left of the line and exits through the edge
		// whose first endpoint is right of it.
		if su < 0 && sw > 0 {
			return e
		}
	}
	// Degenerate: should be handled by the on-segment vertex case upstream.
	for e := int32(0); e < 3; e++ {
		if e != sh {
			return e
		}
	}
	return 0
}

// vertexOnSegment returns a vertex of a's star that lies exactly on the
// open segment (a, b), or invalid.
func (t *Triangulation) vertexOnSegment(a, b int32) int32 {
	pa, pb := t.pts[a], t.pts[b]
	var found int32 = invalid
	t.visitStar(a, func(ti int32) bool {
		tr := t.tris[ti]
		for i := 0; i < 3; i++ {
			v := tr.V[i]
			if v == a || v == b {
				continue
			}
			p := t.pts[v]
			if geom.Orient2DSign(pa, pb, p) == 0 {
				// Within the open segment?
				if (p.X-pa.X)*(p.X-pb.X)+(p.Y-pa.Y)*(p.Y-pb.Y) < 0 {
					found = v
					return false
				}
			}
		}
		return true
	})
	return found
}

// visitStar calls f for every live triangle incident to vertex v until f
// returns false. The traversal scratch (t.marks, t.starStack) is reused
// across calls and shared with the cavity search; f must start neither a
// nested star traversal nor an insertion.
func (t *Triangulation) visitStar(v int32, f func(ti int32) bool) {
	start := t.vtri[v]
	if start == invalid || t.tris[start].Dead {
		start = t.findIncident(v)
		if start == invalid {
			return
		}
	}
	mark, epoch := t.marks.begin(t)
	stack := append(t.starStack[:0], start)
	for len(stack) > 0 {
		ti := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if mark[ti] == epoch || t.tris[ti].Dead {
			continue
		}
		mark[ti] = epoch
		tr := t.tris[ti]
		has := false
		for i := 0; i < 3; i++ {
			if tr.V[i] == v {
				has = true
				break
			}
		}
		if !has {
			continue
		}
		if !f(ti) {
			t.starStack = stack[:0]
			return
		}
		for e := int32(0); e < 3; e++ {
			if tr.V[e] == v || tr.V[(e+1)%3] == v {
				nb := tr.N[e]
				if nb != invalid && mark[nb] != epoch {
					stack = append(stack, nb)
				}
			}
		}
	}
	t.starStack = stack[:0]
}

// findIncident scans for any live triangle incident to v (slow fallback).
func (t *Triangulation) findIncident(v int32) int32 {
	for i := range t.tris {
		if t.tris[i].Dead {
			continue
		}
		for k := 0; k < 3; k++ {
			if t.tris[i].V[k] == v {
				return int32(i)
			}
		}
	}
	return invalid
}

// findEdge returns a live triangle and edge index whose directed edge is
// (a, b), or (invalid, -1).
func (t *Triangulation) findEdge(a, b int32) (int32, int32) {
	var rt, re int32 = invalid, -1
	t.visitStar(a, func(ti int32) bool {
		if e := t.edgeIndex(ti, a, b); e >= 0 {
			rt, re = ti, e
			return false
		}
		return true
	})
	return rt, re
}

// setConstrained sets the constraint flag on edge e of triangle ti and on
// its twin.
func (t *Triangulation) setConstrained(ti, e int32, c bool) {
	t.tris[ti].C[e] = c
	nb := t.tris[ti].N[e]
	if nb != invalid {
		a, b := t.tris[ti].V[e], t.tris[ti].V[(e+1)%3]
		if be := t.edgeIndex(nb, b, a); be >= 0 {
			t.tris[nb].C[be] = c
		}
	}
}

// insertOnConstraint inserts a point lying exactly on a constrained edge,
// splitting the constraint into two constrained sub-segments.
func (t *Triangulation) insertOnConstraint(p geom.Point, loc location) (int32, error) {
	ti, e := loc.t, loc.e
	a := t.tris[ti].V[e]
	b := t.tris[ti].V[(e+1)%3]
	t.setConstrained(ti, e, false)
	v := t.addPoint(p)
	t.digCavity(v, loc)
	// Restore the two halves as constraints.
	for _, pair := range [2][2]int32{{a, v}, {v, b}} {
		if ct, ce := t.findEdge(pair[0], pair[1]); ct != invalid {
			t.setConstrained(ct, ce, true)
		} else {
			return v, fmt.Errorf("delaunay: split constraint edge (%d,%d) missing after insertion", pair[0], pair[1])
		}
	}
	return v, nil
}
