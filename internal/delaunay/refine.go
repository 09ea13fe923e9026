package delaunay

import (
	"fmt"
	"math"

	"pamg2d/internal/geom"
)

// Refine runs Ruppert's algorithm on the carved triangulation: encroached
// constrained segments are split at their midpoints, and triangles that
// violate the quality bound (circumradius-to-shortest-edge ratio), the
// global area bound, or the sizing function are split at their
// circumcenters. A circumcenter that would encroach a constrained segment
// is not inserted; the segment is split instead, as Ruppert's termination
// proof requires.
func (t *Triangulation) Refine(q Quality) error {
	r := t.newRefiner(q)
	err := r.refine()
	t.refSegs, t.refTris = r.segs[:0], r.tris[:0]
	return err
}

// newRefiner prepares a refinement pass over t, carving it first if
// Carve has not run.
func (t *Triangulation) newRefiner(q Quality) refiner {
	if !t.carved {
		t.Carve(nil)
	}
	// Termination guard: segments and edges shorter than minLen are never
	// split, and circumcenters closer than it to a vertex are rejected.
	bb := geom.BBoxOf(t.pts)
	minLen := 1e-8 * (bb.Width() + bb.Height())
	for i := range t.refRoots {
		t.refRoots[i].v = invalid
	}
	// The worklists live on the Triangulation so repeated Refine calls
	// reuse their backing arrays.
	return refiner{t: t, q: q, minLen: minLen, segs: t.refSegs[:0], tris: t.refTris[:0]}
}

// refine seeds the queues with every interior triangle that violates a
// bound and every encroached constrained edge, and runs them dry.
func (r *refiner) refine() error {
	t := r.t
	for i := range t.tris {
		tr := &t.tris[i]
		if tr.Dead || tr.Outside {
			continue
		}
		if r.isBad(tr.V) {
			r.tris = appendDoubling(r.tris, triRef{int32(i), tr.V})
		}
		for e := int32(0); e < 3; e++ {
			if tr.C[e] {
				r.considerSeg(int32(i), e)
			}
		}
	}
	return r.run()
}

type triRef struct {
	ti int32
	v  [3]int32 // fingerprint to detect staleness
}

type segRef struct {
	a, b int32
	// force skips the encroachment re-check: set when a rejected
	// circumcenter encroached the segment (Ruppert splits it regardless of
	// whether any existing vertex encroaches it).
	force bool
}

// sizeRoot is one slot of the refiner's cache of size-filter anchors: the
// square root of SizeAt at vertex v, or v invalid for an empty slot.
type sizeRoot struct {
	v    int32
	root float64
}

// sizeRoots is a direct-mapped cache of √SizeAt at recently tested
// anchors, slot v mod its length. Refinement pops mostly the triangles
// around the last few vertices it inserted, so a small table asks SizeAt
// about once per inserted vertex; on naca-inviscid one sixteen times as
// large asks 5 % less.
type sizeRoots [256]sizeRoot

type refiner struct {
	t      *Triangulation
	q      Quality
	minLen float64

	// tested counts triangle tests (isBadFrom), live the popped queue
	// entries that were not stale; tests read them.
	tested, live int

	segs []segRef
	tris []triRef
}

// queueTri queues the live triangle ti, unless it is carved away, for a
// quality test when it is popped. The test is a pure function of the
// triangle's three points and of q, so testing at the pop instead of here
// splits the same triangles in the same order, and skips the test for the
// many triangles that are gone before their turn.
func (r *refiner) queueTri(ti int32) {
	if tr := &r.t.tris[ti]; !tr.Outside {
		r.tris = appendDoubling(r.tris, triRef{ti, tr.V})
	}
}

// The filtered triangle tests decide on squared lengths, and the size test
// from the anchor vertex's target, when the answer is clear of the
// threshold by filterSlack relative; otherwise they evaluate the exact
// expressions (math.Hypot, the circumradius, SizeAt at the centroid), so
// every answer is the exact one. The rounding of the squared forms and of
// the exact forms together stays below 64ε = 2^-47 relative (DESIGN §7,
// "Delaunay kernel reuse"), and filterSlack leaves eight times that. The
// squared inputs are held between filterTiny and filterHuge, where
// products of two of them neither overflow nor leave the normal range, so
// the relative bounds hold.
const (
	filterSlack = 0x1p-44
	filterTiny  = 0x1p-500
	filterHuge  = 0x1p500
	// rootTiny and rootHuge hold the size filter's bounds on √SizeAt, so
	// the targets it vouches for lie between 2^-800 and 2^800, where
	// SizeSlope's rounding clause applies.
	rootTiny = 0x1p-400
	rootHuge = 0x1p400
)

// isBad is isBadFrom anchored at the triangle's newest vertex: for the
// star triangles of a vertex just inserted, that vertex.
func (r *refiner) isBad(v [3]int32) bool {
	return r.isBadFrom(v, max(v[0], v[1], v[2]))
}

// isBadFrom reports whether the triangle with vertices v violates the
// area, quality or sizing bound and is long enough to split
// (shortest > 2*minLen); the size filter starts from the target at vertex
// anchor. The three tests are pure and OR-ed, so their order is free: the
// cheap ones run first and the sizing query last.
func (r *refiner) isBadFrom(v [3]int32, anchor int32) bool {
	r.tested++
	t := r.t
	a, b, c := t.pts[v[0]], t.pts[v[1]], t.pts[v[2]]
	abx, aby := a.X-b.X, a.Y-b.Y
	bcx, bcy := b.X-c.X, b.Y-c.Y
	cax, cay := c.X-a.X, c.Y-a.Y
	// The same differences math.Hypot is handed by Point.Dist.
	shortest2 := min(abx*abx+aby*aby, bcx*bcx+bcy*bcy, cax*cax+cay*cay)
	if !r.longEnough(shortest2, a, b, c) {
		return false
	}
	area := math.Abs(geom.TriangleArea(a, b, c))
	if r.q.MaxArea > 0 && area > r.q.MaxArea {
		return true
	}
	if r.q.MaxRadiusEdgeRatio > 0 && r.radiusEdgeBad(shortest2, a, b, c) {
		return true
	}
	if r.q.SizeAt == nil {
		return false
	}
	centroid := geom.Pt((a.X+b.X+c.X)/3, (a.Y+b.Y+c.Y)/3)
	if bad, decided := r.sizeFrom(anchor, centroid, area); decided {
		return bad
	}
	want := r.q.SizeAt(centroid)
	return want > 0 && area > want
}

// longEnough decides shortest > 2*minLen, where shortest is the least
// math.Hypot edge length, from the least squared edge length shortest2.
func (r *refiner) longEnough(shortest2 float64, a, b, c geom.Point) bool {
	m := 2 * r.minLen
	if m2 := m * m; m > 0 && m2 >= filterTiny && m2 <= filterHuge {
		if shortest2 > m2*(1+filterSlack) {
			return true
		}
		if shortest2 < m2*(1-filterSlack) {
			return false
		}
	}
	return min(a.Dist(b), b.Dist(c), c.Dist(a)) > m
}

// radiusEdgeBad decides geom.Circumradius(a, b, c)/shortest >
// MaxRadiusEdgeRatio, shortest being the least math.Hypot edge length, on
// squares.
func (r *refiner) radiusEdgeBad(shortest2 float64, a, b, c geom.Point) bool {
	// geom.Circumradius is the circumcenter's Point.Dist to a; these are
	// the differences it hands math.Hypot.
	cc := geom.Circumcenter(a, b, c)
	ux, uy := cc.X-a.X, cc.Y-a.Y
	ratio := r.q.MaxRadiusEdgeRatio
	if ratio2 := ratio * ratio; ratio2 >= filterTiny && ratio2 <= filterHuge &&
		shortest2 >= filterTiny && shortest2 <= filterHuge {
		limit := ratio2 * shortest2
		if r2 := ux*ux + uy*uy; r2 > limit*(1+filterSlack) {
			return true
		} else if r2 < limit*(1-filterSlack) {
			return false
		}
	}
	return cc.Dist(a)/min(a.Dist(b), b.Dist(c), c.Dist(a)) > ratio
}

// sizeFrom decides the size test want > 0 && area > want, want being
// SizeAt at centroid, from the target at vertex anchor under the declared
// slope: √want lies within L·|centroid − anchor| of √SizeAt(anchor). It
// reports decided=false without a slope, or when the bound straddles the
// threshold. √SizeAt(anchor) comes from the cache t.refRoots, asked and
// stored on a miss.
func (r *refiner) sizeFrom(anchor int32, centroid geom.Point, area float64) (bad, decided bool) {
	if r.q.SizeSlope <= 0 {
		return false, false
	}
	v := r.t.pts[anchor]
	slot := &r.t.refRoots[anchor%int32(len(r.t.refRoots))]
	if slot.v != anchor {
		slot.v, slot.root = anchor, math.Sqrt(r.q.SizeAt(v))
	}
	root := slot.root
	dx, dy := centroid.X-v.X, centroid.Y-v.Y
	reach := r.q.SizeSlope * math.Sqrt(dx*dx+dy*dy)
	slack := filterSlack * (root + reach)
	lo := root - reach - slack
	hi := root + reach + slack
	// A NaN anywhere fails this and leaves the test to SizeAt.
	if !(lo >= rootTiny && hi <= rootHuge) {
		return false, false
	}
	if area > hi*hi {
		return true, true
	}
	if area < lo*lo {
		return false, true
	}
	return false, false
}

// considerSeg enqueues the constrained edge e of ti if it is encroached by
// either adjacent apex.
func (r *refiner) considerSeg(ti, e int32) {
	t := r.t
	tr := t.tris[ti]
	a, b := tr.V[e], tr.V[(e+1)%3]
	if r.segEncroached(ti, e) {
		r.segs = append(r.segs, segRef{a: a, b: b})
	}
}

func (r *refiner) segEncroached(ti, e int32) bool {
	t := r.t
	tr := t.tris[ti]
	a, b := tr.V[e], tr.V[(e+1)%3]
	s := geom.Segment{A: t.pts[a], B: t.pts[b]}
	if s.Len() <= 2*r.minLen {
		return false // too short to split; accept as is
	}
	apex := tr.V[(e+2)%3]
	if !t.tris[ti].Outside && geom.InDiametralCircle(t.pts[apex], s) {
		return true
	}
	nb := tr.N[e]
	if nb != invalid && !t.tris[nb].Dead && !t.tris[nb].Outside {
		be := t.edgeIndex(nb, b, a)
		if be >= 0 {
			napex := t.tris[nb].V[(be+2)%3]
			if geom.InDiametralCircle(t.pts[napex], s) {
				return true
			}
		}
	}
	return false
}

// run pops the queues until both are empty, segments first. A popped
// triangle is dropped if it is stale (gone, or its slot reused) or good;
// MaxPoints is checked only before a split.
func (r *refiner) run() error {
	t := r.t
	for len(r.segs) > 0 || len(r.tris) > 0 {
		if len(r.segs) > 0 {
			sr := r.segs[len(r.segs)-1]
			r.segs = r.segs[:len(r.segs)-1]
			ti, e, ok := r.segToSplit(sr)
			if !ok {
				continue
			}
			if err := r.capped(); err != nil {
				return err
			}
			r.splitSeg(ti, e)
			continue
		}
		tr := r.tris[len(r.tris)-1]
		r.tris = r.tris[:len(r.tris)-1]
		// Staleness: the triangle must still exist with the same vertices.
		// A live entry's vertices are then the triangle's, so the test
		// reads them from the entry.
		if tr.ti >= int32(len(t.tris)) || t.tris[tr.ti].Dead || t.tris[tr.ti].V != tr.v {
			continue
		}
		r.live++
		if !r.isBad(tr.v) {
			continue
		}
		if err := r.capped(); err != nil {
			return err
		}
		r.splitTri(tr.ti)
	}
	return nil
}

// capped reports the MaxPoints error once the vertex count has reached
// the cap.
func (r *refiner) capped() error {
	if r.q.MaxPoints > 0 && len(r.t.pts) >= r.q.MaxPoints {
		return fmt.Errorf("delaunay: refinement exceeded MaxPoints=%d", r.q.MaxPoints)
	}
	return nil
}

// segToSplit finds the constrained segment (a,b) of a popped entry and
// reports whether it is due for a split: it still exists and is still
// encroached, or the entry forces the split and the segment is long
// enough.
func (r *refiner) segToSplit(sr segRef) (ti, e int32, ok bool) {
	if r.q.NoSplitSegments {
		return 0, 0, false
	}
	t := r.t
	ti, e = t.findEdge(sr.a, sr.b)
	if ti == invalid || !t.tris[ti].C[e] {
		return 0, 0, false
	}
	if sr.force {
		s := geom.Segment{A: t.pts[sr.a], B: t.pts[sr.b]}
		return ti, e, s.Len() > 2*r.minLen
	}
	return ti, e, r.segEncroached(ti, e)
}

// splitSeg inserts the midpoint of constrained edge e of triangle ti and
// requeues the affected elements.
func (r *refiner) splitSeg(ti, e int32) {
	t := r.t
	a := t.tris[ti].V[e]
	b := t.tris[ti].V[(e+1)%3]
	mid := t.pts[a].Mid(t.pts[b])
	loc := location{kind: locEdge, t: ti, e: e}
	v, err := t.insertOnConstraint(mid, loc)
	if err != nil {
		return
	}
	r.requeueAround(v)
}

// requeueAround re-examines the star of a freshly inserted vertex: it
// queues its triangles for the quality test at their pop and tests their
// constrained edges for encroachment. v is the newest vertex of every star
// triangle, so their size tests all start from the target at v.
func (r *refiner) requeueAround(v int32) {
	t := r.t
	t.visitStar(v, func(ti int32) bool {
		tr := &t.tris[ti]
		if tr.Outside {
			return true
		}
		r.tris = appendDoubling(r.tris, triRef{ti, tr.V})
		for e := int32(0); e < 3; e++ {
			if tr.C[e] {
				r.considerSeg(ti, e)
			}
		}
		return true
	})
}

// splitTri inserts the circumcenter of bad triangle ti, unless the
// circumcenter encroaches a constrained segment, in which case the segment
// is queued for splitting instead.
func (r *refiner) splitTri(ti int32) {
	t := r.t
	tr := t.tris[ti]
	a, b, c := t.pts[tr.V[0]], t.pts[tr.V[1]], t.pts[tr.V[2]]
	cc := geom.Circumcenter(a, b, c)
	if math.IsNaN(cc.X) || math.IsInf(cc.X, 0) || math.IsNaN(cc.Y) || math.IsInf(cc.Y, 0) {
		return
	}
	// Walk from the triangle toward the circumcenter. If the walk crosses a
	// constrained edge, the circumcenter is not visible from the triangle
	// interior; treat the blocking segment as encroached.
	end, blockE, reached, inside := t.walkVisible(ti, cc)
	if !reached {
		if end != invalid {
			aa := t.tris[end].V[blockE]
			bb := t.tris[end].V[(blockE+1)%3]
			s := geom.Segment{A: t.pts[aa], B: t.pts[bb]}
			if !r.q.NoSplitSegments && s.Len() > 2*r.minLen {
				r.segs = append(r.segs, segRef{a: aa, b: bb, force: true})
				r.queueTri(ti)
			}
		}
		return
	}
	// A point strictly inside a triangle has no other containing triangle,
	// so the walk's last triangle is what locate would find. On an edge or
	// a vertex, or after the walk gave up, locate decides.
	loc := location{kind: locInside, t: end}
	if inside {
		t.last = end
	} else {
		loc = t.locate(cc)
	}
	v, encroached, err := t.insertCircumcenter(cc, loc, r.minLen)
	if err != nil {
		return
	}
	if len(encroached) > 0 {
		// Ruppert's rule: do not insert a circumcenter that would encroach
		// a constrained segment; split those segments instead. Under
		// NoSplitSegments (-Y) the segments must stay intact: a triangle
		// that only violates the quality bound is left in place, but one
		// violating the area or sizing bound still needs volume, so its
		// centroid is inserted instead (strictly interior, so constraints
		// are never split).
		if r.q.NoSplitSegments {
			if r.isAreaBad(ti) {
				r.insertCentroid(ti)
			}
			return
		}
		for _, seg := range encroached {
			s := geom.Segment{A: t.pts[seg[0]], B: t.pts[seg[1]]}
			if s.Len() > 2*r.minLen {
				r.segs = append(r.segs, segRef{a: seg[0], b: seg[1], force: true})
			}
		}
		// Requeue the still-bad triangle: splitting the segments may cure
		// it, and if not its next circumcenter attempt must run again.
		r.queueTri(ti)
		return
	}
	r.requeueAround(v)
}

// isAreaBad reports whether the triangle violates the area or sizing
// bound (ignoring the quality ratio).
func (r *refiner) isAreaBad(ti int32) bool {
	t := r.t
	tr := t.tris[ti]
	if tr.Dead || tr.Outside {
		return false
	}
	a, b, c := t.pts[tr.V[0]], t.pts[tr.V[1]], t.pts[tr.V[2]]
	area := math.Abs(geom.TriangleArea(a, b, c))
	if r.q.MaxArea > 0 && area > r.q.MaxArea {
		return true
	}
	if r.q.SizeAt != nil {
		centroid := geom.Pt((a.X+b.X+c.X)/3, (a.Y+b.Y+c.Y)/3)
		if want := r.q.SizeAt(centroid); want > 0 && area > want {
			return true
		}
	}
	return false
}

// insertCentroid splits an area-bad triangle at its centroid, the
// NoSplitSegments fallback when the circumcenter is vetoed.
func (r *refiner) insertCentroid(ti int32) {
	t := r.t
	tr := t.tris[ti]
	a, b, c := t.pts[tr.V[0]], t.pts[tr.V[1]], t.pts[tr.V[2]]
	cen := geom.Pt((a.X+b.X+c.X)/3, (a.Y+b.Y+c.Y)/3)
	if cen.Dist(a) < r.minLen || cen.Dist(b) < r.minLen || cen.Dist(c) < r.minLen {
		return
	}
	loc := t.locate(cen)
	if loc.kind != locInside && loc.kind != locEdge {
		return
	}
	if loc.kind == locEdge && t.tris[loc.t].C[loc.e] {
		return // degenerate centroid exactly on a constraint; leave it
	}
	v, err := t.InsertPoint(cen)
	if err != nil {
		return
	}
	r.requeueAround(v)
}

// insertCircumcenter inserts cc, found at loc, unless the insertion
// cavity's boundary contains a constrained segment whose diametral circle
// holds cc; in that case nothing is mutated and the encroached segments
// are returned, in t.refEnc: the list is valid until the next call.
func (t *Triangulation) insertCircumcenter(cc geom.Point, loc location, minLen float64) (int32, [][2]int32, error) {
	switch loc.kind {
	case locOutside:
		return -1, nil, ErrOutside
	case locVertex:
		return -1, nil, ErrDuplicate
	case locEdge:
		if t.tris[loc.t].C[loc.e] {
			// Exactly on a constrained segment: report it as encroached so
			// the caller splits it at its midpoint instead.
			a := t.tris[loc.t].V[loc.e]
			b := t.tris[loc.t].V[(loc.e+1)%3]
			t.refEnc = append(t.refEnc[:0], [2]int32{a, b})
			return -1, t.refEnc, nil
		}
	}
	if t.tris[loc.t].Outside {
		return -1, nil, ErrOutside
	}
	ltr := t.tris[loc.t]
	for k := 0; k < 3; k++ {
		if t.pts[ltr.V[k]].Dist(cc) < minLen {
			return -1, nil, ErrDuplicate
		}
	}
	t.computeCavity(cc, loc)
	enc := t.refEnc[:0]
	for _, ce := range t.scratch.cavityEdges {
		if ce.c && geom.InDiametralCircle(cc, geom.Segment{A: t.pts[ce.a], B: t.pts[ce.b]}) {
			enc = append(enc, [2]int32{ce.a, ce.b})
		}
	}
	t.refEnc = enc
	if len(enc) > 0 {
		return -1, enc, nil
	}
	v := t.addPoint(cc)
	t.commitCavity(v)
	return v, nil, nil
}

// walkVisible walks from triangle ti toward point p. It returns
// reached=true, with the walk's last triangle, when p's containing triangle
// is reachable without crossing a constrained edge; inside then reports
// that the last triangle contains p strictly (all three orientations
// positive). Otherwise it returns the blocking triangle and edge, or
// invalid and -1 when the walk ran out of steps (a neighbour cycle, which
// a valid triangulation does not have).
func (t *Triangulation) walkVisible(ti int32, p geom.Point) (end, blockE int32, reached, inside bool) {
	// Start from the triangle's centroid to have a well-defined ray origin.
	tr := t.tris[ti]
	a, b, c := t.pts[tr.V[0]], t.pts[tr.V[1]], t.pts[tr.V[2]]
	from := geom.Pt((a.X+b.X+c.X)/3, (a.Y+b.Y+c.Y)/3)
	cur := ti
	maxSteps := 4*len(t.tris) + 16
	for step := 0; step < maxSteps; step++ {
		tr := t.tris[cur]
		// Is p inside cur?
		in, strict := true, true
		var exit int32 = -1
		for e := int32(0); e < 3; e++ {
			u := t.pts[tr.V[e]]
			w := t.pts[tr.V[(e+1)%3]]
			switch geom.Orient2DSign(u, w, p) {
			case -1:
				in = false
				// Candidate exit edge: the segment from->p must cross it.
				if geom.SegmentsIntersect(geom.Segment{A: from, B: p}, geom.Segment{A: u, B: w}) != geom.SegDisjoint {
					exit = e
				}
			case 0:
				strict = false
			}
		}
		if in {
			return cur, -1, true, strict
		}
		if exit < 0 {
			// Numerical corner case; give up optimistically.
			return cur, -1, true, false
		}
		if tr.C[exit] {
			return cur, exit, false, false
		}
		nb := tr.N[exit]
		if nb == invalid || t.tris[nb].Dead {
			return cur, exit, false, false
		}
		cur = nb
	}
	return invalid, -1, false, false
}
