package delaunay

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pamg2d/internal/geom"
	"pamg2d/internal/sizing"
)

// isBadReference is the triangle test refinement ran before the filters:
// three math.Hypot edge lengths, geom.Circumradius, and SizeAt at every
// centroid. It is the reference TestIsBadMatchesReference and
// FuzzIsBadMatchesReference hold the filtered isBad to, answer for answer.
func (r *refiner) isBadReference(ti int32) bool {
	t := r.t
	tr := t.tris[ti]
	if tr.Dead || tr.Outside {
		return false
	}
	a, b, c := t.pts[tr.V[0]], t.pts[tr.V[1]], t.pts[tr.V[2]]
	ab := a.Dist(b)
	bc := b.Dist(c)
	ca := c.Dist(a)
	shortest := math.Min(ab, math.Min(bc, ca))
	area := math.Abs(geom.TriangleArea(a, b, c))
	if r.q.MaxArea > 0 && area > r.q.MaxArea && shortest > 2*r.minLen {
		return true
	}
	if r.q.SizeAt != nil && shortest > 2*r.minLen {
		centroid := geom.Pt((a.X+b.X+c.X)/3, (a.Y+b.Y+c.Y)/3)
		if want := r.q.SizeAt(centroid); want > 0 && area > want {
			return true
		}
	}
	if r.q.MaxRadiusEdgeRatio > 0 && shortest > 2*r.minLen {
		if geom.Circumradius(a, b, c)/shortest > r.q.MaxRadiusEdgeRatio {
			return true
		}
	}
	return false
}

// badCase is one triangle test: the triangle abc, the anchor the size
// filter starts from, the quality and minLen.
type badCase struct {
	a, b, c, star geom.Point
	q             Quality
	minLen        float64
}

// check compares the filtered test, anchored at the triangle's newest
// vertex c and at the star point, each asked twice so the second answer
// comes from the anchor cache, with the reference on a one-triangle
// triangulation holding the star point apart.
func (bc badCase) check(t *testing.T, name string) {
	t.Helper()
	tri := &Triangulation{
		pts:    []geom.Point{bc.a, bc.b, bc.c, bc.star},
		tris:   []Tri{{V: [3]int32{0, 1, 2}, N: [3]int32{invalid, invalid, invalid}}},
		carved: true,
	}
	r := tri.newRefiner(bc.q)
	r.minLen = bc.minLen
	want := r.isBadReference(0)
	v := tri.tris[0].V
	for range 2 {
		if got := r.isBad(v); got != want {
			t.Fatalf("%s: isBad = %v, reference %v (%+v)", name, got, want, bc)
		}
		if got := r.isBadFrom(v, 3); got != want {
			t.Fatalf("%s: isBad anchored at %v = %v, reference %v (%+v)", name, bc.star, got, want, bc)
		}
	}
}

// shortestOf and ratioOf are the reference's shortest edge and
// radius-edge ratio.
func shortestOf(a, b, c geom.Point) float64 {
	return math.Min(a.Dist(b), math.Min(b.Dist(c), c.Dist(a)))
}

func ratioOf(a, b, c geom.Point) float64 {
	return geom.Circumradius(a, b, c) / shortestOf(a, b, c)
}

func areaOf(a, b, c geom.Point) float64 { return math.Abs(geom.TriangleArea(a, b, c)) }

func centroidOf(a, b, c geom.Point) geom.Point {
	return geom.Pt((a.X+b.X+c.X)/3, (a.Y+b.Y+c.Y)/3)
}

// ulpsFrom steps x by k units in the last place.
func ulpsFrom(x float64, k int) float64 {
	for ; k > 0; k-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; k < 0; k++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// gradedAt returns a graded field around one surface point whose target at
// p is within a few ulps of area: H0 solved from area at p's distance.
func gradedAt(surface, p geom.Point, area, gradation float64, ulps int) *sizing.Graded {
	h := math.Sqrt(area / (math.Sqrt(3) / 4))
	h0 := h - gradation*surface.Dist(p)
	return sizing.NewGraded([]geom.Point{surface}, ulpsFrom(h0, ulps), gradation, 0)
}

// TestIsBadMatchesReference holds the filtered triangle test to the
// reference where the filters must stand aside: the radius-edge ratio,
// the target area and the shortest edge each at their threshold and one
// ulp either side, slivers, collinear and repeated points, SizeAt
// answering NaN or 0, and slopes of 0 and far too large to decide.
func TestIsBadMatchesReference(t *testing.T) {
	sqrt2 := Quality{MaxRadiusEdgeRatio: math.Sqrt2}
	const minLen = 1e-6

	// Radius-edge ratio: the threshold set to the triangle's own ratio and
	// one ulp either side, and triangles swept across √2 by ulps of one
	// coordinate. R/shortest is 1/(2·sin θ) for the smallest angle θ, so
	// an isosceles triangle with apex angle asin(1/(2√2)) has ratio √2
	// exactly on paper.
	apex := math.Asin(1 / (2 * math.Sqrt2))
	base := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}
	top := geom.Pt(0.5, 0.5/math.Tan(apex/2))
	for k := -40; k <= 40; k++ {
		c := geom.Pt(top.X, ulpsFrom(top.Y, k))
		badCase{a: base[0], b: base[1], c: c, star: c, q: sqrt2, minLen: minLen}.check(t, "ratio sweep")
		rho := ratioOf(base[0], base[1], c)
		for _, d := range []int{-1, 0, 1} {
			q := Quality{MaxRadiusEdgeRatio: ulpsFrom(rho, d)}
			badCase{a: base[0], b: base[1], c: c, star: c, q: q, minLen: minLen}.check(t, "ratio at threshold")
		}
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		// Random triangles at random offsets and scales, the threshold at
		// their ratio ± 1 ulp.
		s := math.Pow(10, rng.Float64()*12-6)
		o := geom.Pt(rng.NormFloat64()*1e3, rng.NormFloat64()*1e3)
		a := geom.Pt(o.X+s*rng.Float64(), o.Y+s*rng.Float64())
		b := geom.Pt(o.X+s*rng.Float64(), o.Y+s*rng.Float64())
		c := geom.Pt(o.X+s*rng.Float64(), o.Y+s*rng.Float64())
		rho := ratioOf(a, b, c)
		for _, d := range []int{-1, 0, 1} {
			q := Quality{MaxRadiusEdgeRatio: ulpsFrom(rho, d)}
			badCase{a: a, b: b, c: c, star: a, q: q, minLen: s * 1e-9}.check(t, "random ratio")
		}
		// The shortest edge at 2*minLen ± 1 ulp.
		half := shortestOf(a, b, c) / 2
		for _, d := range []int{-1, 0, 1} {
			badCase{a: a, b: b, c: c, star: a, q: sqrt2, minLen: ulpsFrom(half, d)}.check(t, "random shortest")
			badCase{a: a, b: b, c: c, star: a, q: Quality{MaxArea: areaOf(a, b, c) / 2}, minLen: ulpsFrom(half, d)}.check(t, "random shortest, area")
		}
	}

	// The target area at the centroid: a constant target equal to the
	// area ± 1 ulp under small and large slopes (a constant has every
	// slope), and graded fields tuned to meet the area at the centroid.
	tris := [][3]geom.Point{
		{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0.5, 0.9)},
		{geom.Pt(3.25, -1), geom.Pt(3.5, -1.125), geom.Pt(3.3, -0.8)},
		{geom.Pt(1e-3, 2e-3), geom.Pt(1.5e-3, 2e-3), geom.Pt(1.2e-3, 2.6e-3)},
	}
	for _, tr := range tris {
		a, b, c := tr[0], tr[1], tr[2]
		area, cen := areaOf(a, b, c), centroidOf(a, b, c)
		for _, d := range []int{-2, -1, 0, 1, 2} {
			want := ulpsFrom(area, d)
			for _, slope := range []float64{0, 1e-12, 0.3, 1e12} {
				q := Quality{SizeAt: func(geom.Point) float64 { return want }, SizeSlope: slope}
				for _, star := range []geom.Point{a, b, c, cen} {
					badCase{a: a, b: b, c: c, star: star, q: q, minLen: 1e-9}.check(t, "constant target")
				}
			}
		}
		for _, surf := range []geom.Point{geom.Pt(-2, 0.5), cen, a} {
			for _, grad := range []float64{1e-9, 0.03, 0.5} {
				for d := -8; d <= 8; d++ {
					g := gradedAt(surf, cen, area, grad, d)
					q := Quality{MaxRadiusEdgeRatio: math.Sqrt2, SizeAt: g.Area, SizeSlope: g.Slope()}
					for _, star := range []geom.Point{a, b, c} {
						badCase{a: a, b: b, c: c, star: star, q: q, minLen: 1e-9}.check(t, "graded target")
					}
				}
			}
		}
	}

	// Slivers, collinear and repeated points, and what SizeAt may answer.
	nan := math.NaN()
	odd := []struct {
		name    string
		a, b, c geom.Point
	}{
		{"collinear", geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(3, 3)},
		{"collinear, far", geom.Pt(1e6, 1e6), geom.Pt(1e6+1, 1e6+1), geom.Pt(1e6+3, 1e6+3)},
		{"sliver", geom.Pt(0, 0), geom.Pt(1, 1e-15), geom.Pt(2, 0)},
		{"needle", geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1e-12)},
		{"repeated", geom.Pt(0.5, 0.5), geom.Pt(0.5, 0.5), geom.Pt(2, 1)},
		{"all one point", geom.Pt(0.5, 0.5), geom.Pt(0.5, 0.5), geom.Pt(0.5, 0.5)},
		{"tiny", geom.Pt(1, 1), geom.Pt(1+1e-14, 1), geom.Pt(1, 1+1e-14)},
		{"huge", geom.Pt(-1e200, 0), geom.Pt(1e200, 0), geom.Pt(0, 1e200)},
		{"subnormal", geom.Pt(0, 0), geom.Pt(5e-320, 0), geom.Pt(0, 5e-320)},
		{"nan", geom.Pt(nan, 0), geom.Pt(1, 0), geom.Pt(0, 1)},
		{"inf", geom.Pt(math.Inf(1), 0), geom.Pt(1, 0), geom.Pt(0, 1)},
	}
	g := sizing.NewGraded([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}, 0.01, 0.2, 2)
	sizes := []struct {
		name  string
		size  func(geom.Point) float64
		slope float64
	}{
		{"graded", g.Area, g.Slope()},
		{"graded, slope 0", g.Area, 0},
		{"graded, slope huge", g.Area, 1e300},
		{"NaN", func(geom.Point) float64 { return nan }, 1},
		{"NaN at the star", func(p geom.Point) float64 {
			if p == geom.Pt(0.25, 0.25) {
				return nan
			}
			return g.Area(p)
		}, g.Slope()},
		{"zero", func(geom.Point) float64 { return 0 }, 1},
		{"negative", func(geom.Point) float64 { return -1 }, 1},
		{"+Inf", func(geom.Point) float64 { return math.Inf(1) }, 1},
	}
	for _, o := range odd {
		for _, s := range sizes {
			for _, minLen := range []float64{0, 1e-9, 0.1} {
				for _, star := range []geom.Point{o.a, o.c, geom.Pt(0.25, 0.25)} {
					q := Quality{MaxRadiusEdgeRatio: math.Sqrt2, MaxArea: 0.7, SizeAt: s.size, SizeSlope: s.slope}
					badCase{a: o.a, b: o.b, c: o.c, star: star, q: q, minLen: minLen}.check(t, o.name+", "+s.name)
				}
			}
		}
	}
}

// fuzzCoord decodes two bytes as a coordinate on a 1/64 lattice, so
// repeated and collinear points are common.
func fuzzCoord(b []byte) float64 {
	return float64(int16(binary.LittleEndian.Uint16(b))) / 64
}

// FuzzIsBadMatchesReference holds the filtered isBad to the reference on
// decoded triangles, minLen, ratio, graded field and star vertex. tune
// moves the thresholds onto the triangle: bit 0 sets minLen to half the
// shortest edge, bit 1 the ratio to the triangle's, bit 2 the field's H0
// so the target at the centroid is the area; each then moves by ulps.
func FuzzIsBadMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 64, 0, 0, 0, 32, 0, 56, 0}, []byte{0, 1, 0, 0}, 1e-3, math.Sqrt2, 0.02, 0.2, 4.0, 0.5, 0.5, uint8(7), int8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, []byte{}, 0.0, 1.0, 0.5, 0.0, 0.0, -3.0, 2.0, uint8(4), int8(-1))
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0}, []byte{0, 0, 0, 0, 0, 8, 0, 8}, 1e-9, math.Sqrt2, 0.0, 1.0, 0.0, 0.0, 0.0, uint8(0), int8(1))
	f.Fuzz(func(t *testing.T, tri, surf []byte, minLen, ratio, h0, grad, hmax, sx, sy float64, tune uint8, ulps int8) {
		if len(tri) < 12 || len(surf) > 64 {
			return
		}
		a := geom.Pt(fuzzCoord(tri[0:]), fuzzCoord(tri[2:]))
		b := geom.Pt(fuzzCoord(tri[4:]), fuzzCoord(tri[6:]))
		c := geom.Pt(fuzzCoord(tri[8:]), fuzzCoord(tri[10:]))
		var surface []geom.Point
		for i := 0; i+4 <= len(surf); i += 4 {
			surface = append(surface, geom.Pt(fuzzCoord(surf[i:]), fuzzCoord(surf[i+2:])))
		}
		cen := centroidOf(a, b, c)
		if tune&1 != 0 {
			minLen = ulpsFrom(shortestOf(a, b, c)/2, int(ulps))
		}
		if tune&2 != 0 {
			ratio = ulpsFrom(ratioOf(a, b, c), int(ulps))
		}
		g := sizing.NewGraded(surface, h0, grad, hmax)
		if tune&4 != 0 && len(surface) > 0 {
			d := g.Distance(cen)
			g.H0 = ulpsFrom(math.Sqrt(areaOf(a, b, c)/(math.Sqrt(3)/4))-grad*d, int(ulps))
		}
		// The star vertex: the fuzzed point, a corner, or the centroid.
		star := geom.Pt(sx, sy)
		switch tune >> 3 & 3 {
		case 1:
			star = a
		case 2:
			star = c
		case 3:
			star = cen
		}
		q := Quality{MaxRadiusEdgeRatio: ratio, SizeAt: g.Area, SizeSlope: g.Slope()}
		badCase{a: a, b: b, c: c, star: star, q: q, minLen: minLen}.check(t, "fuzz")
	})
}

// eagerRefiner is the refinement loop as it ran before the quality test
// moved to the pop: considerTri tests a triangle when it queues it, with
// the unfiltered isBadReference, and run splits every queued triangle that
// is still live on that answer, checking MaxPoints at every pop. It shares
// the refiner's segment tests and insertion helpers, which did not change.
// TestRefineMatchesEager and FuzzRefineMatchesEager hold Refine to it.
type eagerRefiner struct{ *refiner }

// refineEager is Refine with the eager loop.
func (t *Triangulation) refineEager(q Quality) error {
	r0 := t.newRefiner(q)
	r := eagerRefiner{&r0}
	for i := range t.tris {
		tr := t.tris[i]
		if tr.Dead || tr.Outside {
			continue
		}
		r.considerTri(int32(i))
		for e := int32(0); e < 3; e++ {
			if tr.C[e] {
				r.considerSeg(int32(i), e)
			}
		}
	}
	return r.run()
}

func (r eagerRefiner) considerTri(ti int32) {
	if r.isBadReference(ti) {
		r.tris = append(r.tris, triRef{ti, r.t.tris[ti].V})
	}
}

func (r eagerRefiner) run() error {
	t := r.t
	for len(r.segs) > 0 || len(r.tris) > 0 {
		if r.q.MaxPoints > 0 && len(t.pts) >= r.q.MaxPoints {
			return fmt.Errorf("delaunay: refinement exceeded MaxPoints=%d", r.q.MaxPoints)
		}
		if len(r.segs) > 0 {
			sr := r.segs[len(r.segs)-1]
			r.segs = r.segs[:len(r.segs)-1]
			r.splitSegIfNeeded(sr)
			continue
		}
		tr := r.tris[len(r.tris)-1]
		r.tris = r.tris[:len(r.tris)-1]
		if tr.ti >= int32(len(t.tris)) || t.tris[tr.ti].Dead || t.tris[tr.ti].V != tr.v {
			continue
		}
		r.splitTri(tr.ti)
	}
	return nil
}

func (r eagerRefiner) splitSegIfNeeded(sr segRef) {
	if r.q.NoSplitSegments {
		return
	}
	t := r.t
	ti, e := t.findEdge(sr.a, sr.b)
	if ti == invalid || !t.tris[ti].C[e] {
		return
	}
	if sr.force {
		s := geom.Segment{A: t.pts[sr.a], B: t.pts[sr.b]}
		if s.Len() > 2*r.minLen {
			r.splitSeg(ti, e)
		}
		return
	}
	if r.segEncroached(ti, e) {
		r.splitSeg(ti, e)
	}
}

func (r eagerRefiner) splitSeg(ti, e int32) {
	t := r.t
	a := t.tris[ti].V[e]
	b := t.tris[ti].V[(e+1)%3]
	v, err := t.insertOnConstraint(t.pts[a].Mid(t.pts[b]), location{kind: locEdge, t: ti, e: e})
	if err != nil {
		return
	}
	r.requeueAround(v)
}

func (r eagerRefiner) requeueAround(v int32) {
	t := r.t
	t.visitStar(v, func(ti int32) bool {
		if t.tris[ti].Outside {
			return true
		}
		r.considerTri(ti)
		tr := t.tris[ti]
		for e := int32(0); e < 3; e++ {
			if tr.C[e] {
				r.considerSeg(ti, e)
			}
		}
		return true
	})
}

func (r eagerRefiner) splitTri(ti int32) {
	t := r.t
	tr := t.tris[ti]
	a, b, c := t.pts[tr.V[0]], t.pts[tr.V[1]], t.pts[tr.V[2]]
	cc := geom.Circumcenter(a, b, c)
	if math.IsNaN(cc.X) || math.IsInf(cc.X, 0) || math.IsNaN(cc.Y) || math.IsInf(cc.Y, 0) {
		return
	}
	end, blockE, reached, inside := t.walkVisible(ti, cc)
	if !reached {
		if end != invalid {
			aa := t.tris[end].V[blockE]
			bb := t.tris[end].V[(blockE+1)%3]
			s := geom.Segment{A: t.pts[aa], B: t.pts[bb]}
			if !r.q.NoSplitSegments && s.Len() > 2*r.minLen {
				r.segs = append(r.segs, segRef{a: aa, b: bb, force: true})
				r.considerTri(ti)
			}
		}
		return
	}
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
		r.considerTri(ti)
		return
	}
	r.requeueAround(v)
}

func (r eagerRefiner) insertCentroid(ti int32) {
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
		return
	}
	v, err := t.InsertPoint(cen)
	if err != nil {
		return
	}
	r.requeueAround(v)
}

// latticeInput decodes a PSLG on an integer lattice scaled by unit: the
// convex hull of the decoded points, each hull edge cut at the lattice
// points it passes through, and the decoded points inside it free. Lattice
// points make exact ties common: cocircular squares, collinear boundary
// vertices, circumcenters on constraints.
func latticeInput(coords []uint8, unit float64) (Input, bool) {
	var pts []geom.Point
	seen := map[[2]int]bool{}
	var cells [][2]int
	for i := 0; i+1 < len(coords); i += 2 {
		c := [2]int{int(coords[i] % 16), int(coords[i+1] % 16)}
		if !seen[c] {
			seen[c] = true
			cells = append(cells, c)
		}
	}
	hull := latticeHull(cells)
	if len(hull) < 3 {
		return Input{}, false
	}
	onHull := map[[2]int]bool{}
	var in Input
	for i, p := range hull {
		q := hull[(i+1)%len(hull)]
		dx, dy := q[0]-p[0], q[1]-p[1]
		g := gcd(abs(dx), abs(dy))
		for k := 0; k < g; k++ {
			c := [2]int{p[0] + k*dx/g, p[1] + k*dy/g}
			onHull[c] = true
			pts = append(pts, geom.Pt(float64(c[0])*unit, float64(c[1])*unit))
		}
	}
	for i := range pts {
		in.Segments = append(in.Segments, [2]int32{int32(i), int32((i + 1) % len(pts))})
	}
	for _, c := range cells {
		if !onHull[c] {
			pts = append(pts, geom.Pt(float64(c[0])*unit, float64(c[1])*unit))
		}
	}
	in.Points = pts
	return in, true
}

// latticeHull is the convex hull of lattice cells, counter-clockwise,
// without collinear vertices (Andrew's monotone chain).
func latticeHull(cells [][2]int) [][2]int {
	if len(cells) < 3 {
		return nil
	}
	ps := slices.Clone(cells)
	slices.SortFunc(ps, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	cross := func(o, a, b [2]int) int {
		return (a[0]-o[0])*(b[1]-o[1]) - (a[1]-o[1])*(b[0]-o[0])
	}
	var h [][2]int
	for pass := 0; pass < 2; pass++ {
		start := len(h)
		for _, p := range ps {
			for len(h) >= start+2 && cross(h[len(h)-2], h[len(h)-1], p) <= 0 {
				h = h[:len(h)-1]
			}
			h = append(h, p)
		}
		h = h[:len(h)-1]
		slices.Reverse(ps)
	}
	return h
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// eagerQualities are the refinement bounds the differential tests run:
// an area bound, the √2 ratio, a graded field from the boundary without
// and with its slope, the same under NoSplitSegments, and a vertex cap
// low enough to stop most runs.
func eagerQualities(in Input, unit float64) []Quality {
	bb := geom.BBoxOf(in.Points)
	span := bb.Width() + bb.Height()
	var surface []geom.Point
	for _, s := range in.Segments {
		surface = append(surface, in.Points[s[0]])
	}
	g := sizing.NewGraded(surface, span/40, 0.15, span/6)
	ratio := math.Sqrt2
	return []Quality{
		{MaxArea: span * span / 1000},
		{MaxRadiusEdgeRatio: ratio},
		{MaxRadiusEdgeRatio: ratio, SizeAt: g.Area},
		{MaxRadiusEdgeRatio: ratio, SizeAt: g.Area, SizeSlope: g.Slope()},
		{MaxRadiusEdgeRatio: ratio, SizeAt: g.Area, SizeSlope: g.Slope(), NoSplitSegments: true},
		{MaxArea: unit * unit / 8, NoSplitSegments: true},
		{MaxRadiusEdgeRatio: ratio, SizeAt: g.Area, SizeSlope: g.Slope(), MaxPoints: len(in.Points) + 24},
	}
}

// checkMatchesEager refines in with Refine and with the eager reference
// and requires the same points and triangles, and the same error, except
// that Refine may finish where the eager loop stopped at MaxPoints with
// only stale entries queued. Every run is capped at maxPoints vertices.
func checkMatchesEager(t *testing.T, name string, in Input, q Quality, maxPoints int) {
	t.Helper()
	if q.MaxPoints == 0 {
		q.MaxPoints = maxPoints
	}
	var lazy, eager Triangulation
	if err := lazy.Build(in); err != nil {
		return // not a valid PSLG; the two loops never see it
	}
	if err := eager.Build(in); err != nil {
		t.Fatalf("%s: second Build: %v", name, err)
	}
	lerr, eerr := lazy.Refine(q), eager.refineEager(q)
	if lerr != nil && eerr == nil || lerr != nil && lerr.Error() != eerr.Error() {
		t.Fatalf("%s: Refine error %v, eager %v", name, lerr, eerr)
	}
	if lerr == nil && eerr != nil && !strings.Contains(eerr.Error(), "MaxPoints") {
		t.Fatalf("%s: Refine finished, eager stopped with %v", name, eerr)
	}
	lr, er := lazy.Extract(), eager.Extract()
	if !slices.Equal(lr.Points, er.Points) || !slices.Equal(lr.Triangles, er.Triangles) {
		t.Fatalf("%s: Refine gives %d points, %d triangles; eager %d, %d, or the same counts listed differently",
			name, len(lr.Points), len(lr.Triangles), len(er.Points), len(er.Triangles))
	}
}

// TestRefineMatchesEager holds Refine, which tests a triangle when it
// pops it, to the eager loop that tested it when it queued it, on random
// lattice PSLGs at three scales under every bound of eagerQualities.
func TestRefineMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	cases := 0
	for trial := 0; trial < 60; trial++ {
		coords := make([]uint8, 2*(4+rng.Intn(12)))
		for i := range coords {
			coords[i] = uint8(rng.Intn(16))
		}
		unit := []float64{1, 0.125, 1e-3}[trial%3]
		in, ok := latticeInput(coords, unit)
		if !ok {
			continue
		}
		for k, q := range eagerQualities(in, unit) {
			checkMatchesEager(t, fmt.Sprintf("trial %d, quality %d", trial, k), in, q, 4000)
			cases++
		}
	}
	if cases < 200 {
		t.Fatalf("only %d cases ran", cases)
	}
}

// FuzzRefineMatchesEager is TestRefineMatchesEager on fuzzed lattice
// points, scale and bound.
func FuzzRefineMatchesEager(f *testing.F) {
	f.Add([]byte{0, 0, 15, 0, 15, 15, 0, 15, 7, 7, 3, 9}, uint8(0), uint8(1))
	f.Add([]byte{0, 0, 8, 0, 8, 8, 0, 8, 4, 4, 2, 2, 6, 6}, uint8(1), uint8(3))
	f.Add([]byte{1, 0, 14, 2, 9, 13, 3, 11, 6, 6}, uint8(2), uint8(4))
	f.Add([]byte{0, 0, 12, 3, 3, 12, 5, 5, 4, 4}, uint8(0), uint8(6))
	f.Fuzz(func(t *testing.T, coords []byte, scale, quality uint8) {
		if len(coords) > 64 {
			return
		}
		unit := []float64{1, 0.125, 1e-3}[scale%3]
		in, ok := latticeInput(coords, unit)
		if !ok {
			return
		}
		qs := eagerQualities(in, unit)
		checkMatchesEager(t, "fuzz", in, qs[int(quality)%len(qs)], 2000)
	})
}
