package delaunay

import (
	"encoding/binary"
	"math"
	"math/rand"
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

// badCase is one triangle test: the triangle abc, the star vertex the size
// filter starts from, the quality and minLen.
type badCase struct {
	a, b, c, star geom.Point
	q             Quality
	minLen        float64
}

// check compares the filtered isBad, inside and outside a star, with the
// reference on a one-triangle triangulation holding the star vertex apart.
func (bc badCase) check(t *testing.T, name string) {
	t.Helper()
	tri := &Triangulation{
		pts:  []geom.Point{bc.a, bc.b, bc.c, bc.star},
		tris: []Tri{{V: [3]int32{0, 1, 2}, N: [3]int32{invalid, invalid, invalid}}},
	}
	r := &refiner{t: tri, q: bc.q, minLen: bc.minLen, star: invalid}
	want := r.isBadReference(0)
	if got := r.isBad(0); got != want {
		t.Fatalf("%s: isBad outside a star = %v, reference %v (%+v)", name, got, want, bc)
	}
	r.star, r.starAsked = 3, false
	if got := r.isBad(0); got != want {
		t.Fatalf("%s: isBad in the star of %v = %v, reference %v (%+v)", name, bc.star, got, want, bc)
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
