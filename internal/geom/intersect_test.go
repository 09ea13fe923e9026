package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func seg(ax, ay, bx, by float64) Segment {
	return Segment{Point{ax, ay}, Point{bx, by}}
}

func TestSegmentsIntersectCases(t *testing.T) {
	cases := []struct {
		name string
		s, u Segment
		want SegIntersectKind
	}{
		{"crossing X", seg(0, 0, 2, 2), seg(0, 2, 2, 0), SegCross},
		{"disjoint parallel", seg(0, 0, 1, 0), seg(0, 1, 1, 1), SegDisjoint},
		{"disjoint skew", seg(0, 0, 1, 0), seg(2, 1, 3, -1), SegDisjoint},
		{"touch at shared endpoint", seg(0, 0, 1, 0), seg(1, 0, 2, 1), SegTouch},
		{"T junction", seg(0, 0, 2, 0), seg(1, 0, 1, 1), SegTouch},
		{"collinear overlap", seg(0, 0, 2, 0), seg(1, 0, 3, 0), SegOverlap},
		{"collinear touch", seg(0, 0, 1, 0), seg(1, 0, 2, 0), SegTouch},
		{"collinear disjoint", seg(0, 0, 1, 0), seg(2, 0, 3, 0), SegDisjoint},
		{"vertical collinear overlap", seg(0, 0, 0, 2), seg(0, 1, 0, 3), SegOverlap},
		{"identical", seg(0, 0, 1, 1), seg(0, 0, 1, 1), SegOverlap},
		{"near miss", seg(0, 0, 1, 1), seg(0, 1e-12, -1, 1), SegDisjoint},
	}
	for _, c := range cases {
		if got := SegmentsIntersect(c.s, c.u); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
		// Symmetry.
		if got := SegmentsIntersect(c.u, c.s); got != c.want {
			t.Errorf("%s (swapped): got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSegmentIntersectionPoint(t *testing.T) {
	p, u, ok := SegmentIntersection(seg(0, 0, 2, 2), seg(0, 2, 2, 0))
	if !ok {
		t.Fatal("expected intersection")
	}
	if p.Dist(Point{1, 1}) > 1e-12 {
		t.Errorf("intersection point %v, want (1,1)", p)
	}
	if math.Abs(u-0.5) > 1e-12 {
		t.Errorf("parameter %v, want 0.5", u)
	}
}

func TestSegmentIntersectionSharedEndpoint(t *testing.T) {
	p, u, ok := SegmentIntersection(seg(0, 0, 1, 0), seg(1, 0, 2, 1))
	if !ok || p != (Point{1, 0}) || u != 1 {
		t.Errorf("shared endpoint: got %v u=%v ok=%v", p, u, ok)
	}
}

func TestSegmentIntersectionDisjoint(t *testing.T) {
	if _, _, ok := SegmentIntersection(seg(0, 0, 1, 0), seg(0, 1, 1, 1)); ok {
		t.Error("disjoint segments must not intersect")
	}
	if _, _, ok := SegmentIntersection(seg(0, 0, 2, 0), seg(1, 0, 3, 0)); ok {
		t.Error("collinear overlap has no unique point")
	}
}

func TestSegmentIntersectionConsistency(t *testing.T) {
	// Whenever the classifier says Cross, the solver must return a point
	// that lies on (near) both segments.
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		clamp := func(v float64) float64 { return math.Mod(v, 100) }
		s := Segment{Point{clamp(ax), clamp(ay)}, Point{clamp(bx), clamp(by)}}
		u := Segment{Point{clamp(cx), clamp(cy)}, Point{clamp(dx), clamp(dy)}}
		kind := SegmentsIntersect(s, u)
		if kind != SegCross {
			return true
		}
		p, _, ok := SegmentIntersection(s, u)
		if !ok {
			return false
		}
		scale := s.Len() + u.Len() + 1
		return PointSegDist(p, s) < 1e-9*scale && PointSegDist(p, u) < 1e-9*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPointSegDist(t *testing.T) {
	s := seg(0, 0, 2, 0)
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{1, 1}, 1},
		{Point{-1, 0}, 1},
		{Point{3, 0}, 1},
		{Point{1, 0}, 0},
		{Point{0, 0}, 0},
		{Point{-3, 4}, 5},
	}
	for _, c := range cases {
		if got := PointSegDist(c.p, s); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("PointSegDist(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Degenerate zero-length segment.
	if got := PointSegDist(Point{3, 4}, seg(0, 0, 0, 0)); math.Abs(got-5) > 1e-12 {
		t.Errorf("degenerate segment: got %v, want 5", got)
	}
}

func TestInDiametralCircle(t *testing.T) {
	s := seg(0, 0, 2, 0) // diametral circle: center (1,0), radius 1
	if !InDiametralCircle(Point{1, 0.5}, s) {
		t.Error("(1,0.5) must be inside")
	}
	if InDiametralCircle(Point{1, 1}, s) {
		t.Error("(1,1) is on the circle, not strictly inside")
	}
	if InDiametralCircle(Point{3, 0}, s) {
		t.Error("(3,0) must be outside")
	}
	if InDiametralCircle(Point{0, 0}, s) {
		t.Error("segment endpoint is on the circle, not inside")
	}
}

func TestBBoxOps(t *testing.T) {
	b := EmptyBBox()
	if !b.Empty() {
		t.Error("EmptyBBox must be empty")
	}
	b = b.Extend(Point{1, 2}).Extend(Point{-1, 5})
	if b.Min != (Point{-1, 2}) || b.Max != (Point{1, 5}) {
		t.Errorf("extend: got %+v", b)
	}
	if !b.Contains(Point{0, 3}) || b.Contains(Point{0, 6}) {
		t.Error("contains failed")
	}
	c := BBox{Point{0.5, 4}, Point{3, 9}}
	if !b.Intersects(c) || !c.Intersects(b) {
		t.Error("intersects failed")
	}
	d := BBox{Point{2, 2}, Point{3, 3}}
	if b.Intersects(d) {
		t.Error("non-overlapping boxes must not intersect")
	}
	if got := b.Union(d); got.Min != (Point{-1, 2}) || got.Max != (Point{3, 5}) {
		t.Errorf("union: got %+v", got)
	}
	if got := b.Union(EmptyBBox()); got != b {
		t.Errorf("union with empty: got %+v", got)
	}
}

func TestVecOps(t *testing.T) {
	v := Vec{3, 4}
	if v.Len() != 5 {
		t.Errorf("Len = %v", v.Len())
	}
	if v.Unit().Len() != 1 {
		t.Errorf("Unit().Len() = %v", v.Unit().Len())
	}
	if (Vec{0, 0}).Unit() != (Vec{0, 0}) {
		t.Error("unit of zero vector must be zero")
	}
	if v.Perp() != (Vec{-4, 3}) {
		t.Errorf("Perp = %v", v.Perp())
	}
	if v.Perp().Dot(v) != 0 {
		t.Error("Perp must be orthogonal")
	}
	w := v.Rotate(math.Pi / 2)
	if math.Hypot(w.X+4, w.Y-3) > 1e-12 {
		t.Errorf("Rotate pi/2 = %v, want (-4,3)", w)
	}
}

func TestAngleBetween(t *testing.T) {
	v := Vec{1, 0}
	cases := []struct {
		w    Vec
		want float64
	}{
		{Vec{1, 0}, 0},
		{Vec{0, 1}, math.Pi / 2},
		{Vec{-1, 0}, math.Pi},
		{Vec{1, 1}, math.Pi / 4},
	}
	for _, c := range cases {
		if got := v.AngleBetween(c.w); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("AngleBetween(%v) = %v, want %v", c.w, got, c.want)
		}
	}
}

func TestTriangleQualityMeasures(t *testing.T) {
	// Equilateral triangle with unit edges.
	a := Point{0, 0}
	b := Point{1, 0}
	c := Point{0.5, math.Sqrt(3) / 2}
	if got := MinAngle(a, b, c); math.Abs(got-math.Pi/3) > 1e-12 {
		t.Errorf("equilateral MinAngle = %v, want pi/3", got)
	}
	// Circumradius-to-shortest-edge of an equilateral is 1/sqrt(3).
	if got := CircumradiusToShortestEdge(a, b, c); math.Abs(got-1/math.Sqrt(3)) > 1e-12 {
		t.Errorf("equilateral ratio = %v, want %v", got, 1/math.Sqrt(3))
	}
	// Right isoceles: circumradius = hypotenuse/2 = sqrt(2)/2, shortest = 1.
	r := Point{0, 1}
	if got := CircumradiusToShortestEdge(a, b, r); math.Abs(got-math.Sqrt2/2) > 1e-12 {
		t.Errorf("right isoceles ratio = %v, want %v", got, math.Sqrt2/2)
	}
	if got := AspectRatio(a, b, c); math.Abs(got-2/math.Sqrt(3)) > 1e-12 {
		t.Errorf("equilateral aspect = %v, want %v", got, 2/math.Sqrt(3))
	}
	// Degenerate triangle.
	if got := AspectRatio(a, b, Point{2, 0}); !math.IsInf(got, 1) {
		t.Errorf("degenerate aspect = %v, want +Inf", got)
	}
}

func TestLerpAndMid(t *testing.T) {
	p := Point{0, 0}
	q := Point{4, 8}
	if p.Lerp(q, 0.25) != (Point{1, 2}) {
		t.Errorf("Lerp = %v", p.Lerp(q, 0.25))
	}
	if p.Mid(q) != (Point{2, 4}) {
		t.Errorf("Mid = %v", p.Mid(q))
	}
}

func TestRandomCrossingsAgainstBruteForce(t *testing.T) {
	// Compare the exact classifier against a float-based brute force on
	// well-separated random segments (where floats are reliable).
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		s := Segment{Point{rng.Float64(), rng.Float64()}, Point{rng.Float64(), rng.Float64()}}
		u := Segment{Point{rng.Float64(), rng.Float64()}, Point{rng.Float64(), rng.Float64()}}
		d1 := Orient2D(u.A, u.B, s.A)
		d2 := Orient2D(u.A, u.B, s.B)
		d3 := Orient2D(s.A, s.B, u.A)
		d4 := Orient2D(s.A, s.B, u.B)
		// Only check clearly crossing / clearly disjoint configurations.
		const margin = 1e-9
		if math.Abs(d1) < margin || math.Abs(d2) < margin || math.Abs(d3) < margin || math.Abs(d4) < margin {
			continue
		}
		want := SegDisjoint
		if d1*d2 < 0 && d3*d4 < 0 {
			want = SegCross
		}
		if got := SegmentsIntersect(s, u); got != want {
			t.Fatalf("case %d: got %v want %v (%v %v)", i, got, want, s, u)
		}
	}
}

// fourPredicateIntersect is SegmentsIntersect as it was before it returned
// after two orientations: all four, always. FuzzSegmentsIntersect holds
// the early return to it.
func fourPredicateIntersect(s, t Segment) SegIntersectKind {
	d1 := Orient2DSign(t.A, t.B, s.A)
	d2 := Orient2DSign(t.A, t.B, s.B)
	d3 := Orient2DSign(s.A, s.B, t.A)
	d4 := Orient2DSign(s.A, s.B, t.B)
	if d1*d2 < 0 && d3*d4 < 0 {
		return SegCross
	}
	if d1 == 0 && d2 == 0 && d3 == 0 && d4 == 0 {
		bb := s.BBox().Union(t.BBox())
		useX := bb.Width() >= bb.Height()
		lo1, hi1 := orderedRange(s, useX)
		lo2, hi2 := orderedRange(t, useX)
		if hi1 < lo2 || hi2 < lo1 {
			return SegDisjoint
		}
		if hi1 == lo2 || hi2 == lo1 {
			return SegTouch
		}
		return SegOverlap
	}
	onSeg := func(sign int, seg Segment, p Point) bool {
		return sign == 0 && seg.BBox().Contains(p)
	}
	if onSeg(d1, t, s.A) || onSeg(d2, t, s.B) || onSeg(d3, s, t.A) || onSeg(d4, s, t.B) {
		return SegTouch
	}
	return SegDisjoint
}

// FuzzSegmentsIntersect: the two-orientation early return classifies
// every pair as the four-orientation version does, on raw bit patterns:
// NaN, infinities, subnormal and huge coordinates, degenerate segments.
func FuzzSegmentsIntersect(f *testing.F) {
	nan, inf, tiny := math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64
	for _, c := range [][2]Segment{
		{seg(0, 0, 2, 2), seg(0, 2, 2, 0)},
		{seg(0, 0, 1, 0), seg(2, 1, 3, -1)},
		{seg(0, 0, 2, 0), seg(1, 0, 1, 1)},
		{seg(0, 0, 2, 0), seg(1, 0, 3, 0)},
		{seg(1, 1, 1, 1), seg(0, 0, 2, 2)},
		{seg(1, 1, 1, 1), seg(1, 1, 1, 1)},
		{seg(0, 0, 1, 1), seg(0, 1e-12, -1, 1)},
		{seg(0, 0, tiny, tiny), seg(tiny, 0, 0, tiny)},
		{seg(1e-170, 1e-170, 1e-170, 0), seg(0, 0, 1, 0)},
		{seg(0, 0, nan, 1), seg(0, 1, 1, 0)},
		{seg(0, -inf, 0, 0), seg(1, 1, -1, 2)},
		{seg(-1e308, 0, 1e308, 0), seg(0, -1e308, 0, 1e308)},
	} {
		f.Add(c[0].A.X, c[0].A.Y, c[0].B.X, c[0].B.Y, c[1].A.X, c[1].A.Y, c[1].B.X, c[1].B.Y)
	}
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64) {
		s, u := seg(ax, ay, bx, by), seg(cx, cy, dx, dy)
		for _, p := range [][2]Segment{{s, u}, {u, s}} {
			if got, want := SegmentsIntersect(p[0], p[1]), fourPredicateIntersect(p[0], p[1]); got != want {
				t.Fatalf("SegmentsIntersect(%v, %v) = %v, four orientations say %v", p[0], p[1], got, want)
			}
		}
	})
}
