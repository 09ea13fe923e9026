package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOrient2DBasic(t *testing.T) {
	a := Point{0, 0}
	b := Point{1, 0}
	c := Point{0, 1}
	if Orient2D(a, b, c) <= 0 {
		t.Errorf("ccw triangle: got %v, want > 0", Orient2D(a, b, c))
	}
	if Orient2D(a, c, b) >= 0 {
		t.Errorf("cw triangle: got %v, want < 0", Orient2D(a, c, b))
	}
	if Orient2D(a, b, Point{2, 0}) != 0 {
		t.Errorf("collinear: got %v, want 0", Orient2D(a, b, Point{2, 0}))
	}
}

func TestOrient2DNearDegenerate(t *testing.T) {
	// Points nearly collinear: differences on the order of one ulp. The
	// exact fallback must still give a consistent, correct sign.
	base := Point{12.0, 12.0}
	dir := Vec{1, 1}
	for i := 0; i < 1000; i++ {
		tt := float64(i) * 1e-3
		p := base.Add(dir.Scale(tt))
		// q is p shifted by the smallest representable amount upward.
		q := Point{p.X, math.Nextafter(p.Y, math.Inf(1))}
		s := Orient2DSign(Point{0, 0}, Point{24, 24}, q)
		if s != 1 {
			t.Fatalf("point nudged above the line y=x must be CCW, got %d at i=%d", s, i)
		}
		r := Point{p.X, math.Nextafter(p.Y, math.Inf(-1))}
		s = Orient2DSign(Point{0, 0}, Point{24, 24}, r)
		if s != -1 {
			t.Fatalf("point nudged below the line y=x must be CW, got %d at i=%d", s, i)
		}
	}
}

func TestOrient2DExactGrid(t *testing.T) {
	// On a small integer grid the fast path is exact; compare the exact
	// evaluator against direct integer arithmetic.
	for ax := -3; ax <= 3; ax++ {
		for ay := -3; ay <= 3; ay++ {
			for bx := -3; bx <= 3; bx++ {
				for by := -3; by <= 3; by++ {
					a := Point{float64(ax), float64(ay)}
					b := Point{float64(bx), float64(by)}
					c := Point{1, 2}
					want := (ax-1)*(by-2) - (ay-2)*(bx-1)
					got := orient2DExact(a, b, c)
					if sign(float64(want)) != sign(got) {
						t.Fatalf("orient2DExact(%v,%v,%v) = %v, want sign %d", a, b, c, got, sign(float64(want)))
					}
				}
			}
		}
	}
}

func sign(x float64) int {
	if x > 0 {
		return 1
	}
	if x < 0 {
		return -1
	}
	return 0
}

func TestOrient2DAntisymmetry(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		clamp := func(v float64) float64 { return math.Mod(v, 1e6) }
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		c := Point{clamp(cx), clamp(cy)}
		// Swapping two arguments must flip the sign.
		return Orient2DSign(a, b, c) == -Orient2DSign(b, a, c) &&
			Orient2DSign(a, b, c) == Orient2DSign(b, c, a) &&
			Orient2DSign(a, b, c) == Orient2DSign(c, a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestInCircleBasic(t *testing.T) {
	a := Point{0, 0}
	b := Point{1, 0}
	c := Point{0, 1}
	// Circumcircle of abc has center (0.5, 0.5), radius sqrt(0.5).
	if InCircle(a, b, c, Point{0.5, 0.5}) <= 0 {
		t.Error("center must be inside")
	}
	if InCircle(a, b, c, Point{2, 2}) >= 0 {
		t.Error("far point must be outside")
	}
	if InCircle(a, b, c, Point{1, 1}) != 0 {
		t.Errorf("cocircular point: got %v, want 0", InCircle(a, b, c, Point{1, 1}))
	}
}

func TestInCircleOrientationFlip(t *testing.T) {
	// With a clockwise triangle the sign convention flips.
	a := Point{0, 0}
	b := Point{1, 0}
	c := Point{0, 1}
	inside := Point{0.5, 0.5}
	if InCircle(a, c, b, inside) >= 0 {
		t.Error("cw triangle: inside point must give negative value")
	}
}

func TestInCircleNearCocircular(t *testing.T) {
	// Four points on the unit circle; perturb one radially by one ulp and
	// check the sign tracks the perturbation.
	angles := []float64{0.1, 1.3, 2.9, 4.2}
	pts := make([]Point, 4)
	for i, th := range angles {
		pts[i] = Point{math.Cos(th), math.Sin(th)}
	}
	a, b, c := pts[0], pts[1], pts[2]
	if Orient2DSign(a, b, c) < 0 {
		a, b = b, a
	}
	d := pts[3]
	// Pull d toward the origin: strictly inside.
	din := Point{d.X * (1 - 1e-14), d.Y * (1 - 1e-14)}
	if InCircleSign(a, b, c, din) != 1 {
		t.Error("point pulled inside the circle must test inside")
	}
	dout := Point{d.X * (1 + 1e-14), d.Y * (1 + 1e-14)}
	if InCircleSign(a, b, c, dout) != -1 {
		t.Error("point pushed outside the circle must test outside")
	}
}

func TestInCircleExactMatchesFastOnEasyCases(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := Point{rng.Float64() * 10, rng.Float64() * 10}
		b := Point{rng.Float64() * 10, rng.Float64() * 10}
		c := Point{rng.Float64() * 10, rng.Float64() * 10}
		d := Point{rng.Float64() * 10, rng.Float64() * 10}
		if Orient2DSign(a, b, c) <= 0 {
			continue
		}
		fast := InCircle(a, b, c, d)
		exact := inCircleExact(a, b, c, d)
		if sign(fast) != sign(exact) && math.Abs(fast) > 1e-6 {
			t.Fatalf("fast %v and exact %v disagree for %v %v %v %v", fast, exact, a, b, c, d)
		}
	}
}

func TestInCircleTranslationInvariance(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		clamp := func(v float64) float64 { return math.Mod(v, 100) }
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		c := Point{clamp(cx), clamp(cy)}
		d := Point{clamp(dx), clamp(dy)}
		if Orient2DSign(a, b, c) == 0 {
			return true
		}
		s1 := InCircleSign(a, b, c, d)
		off := Vec{13.5, -7.25} // exactly representable offset
		s2 := InCircleSign(a.Add(off), b.Add(off), c.Add(off), d.Add(off))
		return s1 == s2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestCircumcenterEquidistant(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		clamp := func(v float64) float64 { return math.Mod(v, 50) }
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		c := Point{clamp(cx), clamp(cy)}
		area := math.Abs(TriangleArea(a, b, c))
		if area < 1e-3 {
			return true // skip degenerate
		}
		cc := Circumcenter(a, b, c)
		ra, rb, rc := cc.Dist(a), cc.Dist(b), cc.Dist(c)
		scale := ra + rb + rc + 1
		return math.Abs(ra-rb) < 1e-7*scale && math.Abs(rb-rc) < 1e-7*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestExpansionArithmetic(t *testing.T) {
	// twoSum invariant: x+y == a+b exactly.
	x, y := twoSum(1e16, 1)
	if x != 1e16 || y != 1 {
		t.Errorf("twoSum(1e16,1) = (%v,%v)", x, y)
	}
	// twoProduct roundoff.
	p, q := twoProduct(1e8+1, 1e8+1)
	// (1e8+1)^2 = 1e16 + 2e8 + 1; the +1 doesn't fit in the rounded product.
	if p+q != (1e8+1)*(1e8+1) && q == 0 {
		t.Errorf("twoProduct lost the roundoff: (%v,%v)", p, q)
	}
	// Expansion sum of known values.
	ar := getArena()
	defer putArena(ar)
	e := ar.sum([]float64{1}, []float64{1e-30})
	if expEstimate(e) != 1 || expSign(e) != 1 {
		t.Errorf("sum basic failed: %v", e)
	}
	// Sign of a tiny negative residue dominating.
	e2 := ar.sum([]float64{1e20}, []float64{-1e20})
	if expSign(e2) != 0 {
		t.Errorf("cancellation must give sign 0, got %v (%v)", expSign(e2), e2)
	}
}

func TestExpansionSumExactness(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		fix := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 1
			}
			return math.Mod(v, 1e6)
		}
		a, b, c, d = fix(a), fix(b), fix(c), fix(d)
		ar := getArena()
		defer putArena(ar)
		e1 := ar.twoTwoDiff(a, b, c, d) // a*b - c*d exactly
		e2 := ar.twoTwoDiff(c, d, a, b) // c*d - a*b exactly
		s := ar.sum(e1, e2)
		return expSign(s) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestExpScaleDistributes(t *testing.T) {
	f := func(a, b, s float64) bool {
		fix := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 1
			}
			return math.Mod(v, 1e5)
		}
		a, b, s = fix(a), fix(b), fix(s)
		ar := getArena()
		defer putArena(ar)
		e := ar.twoTwoDiff(a, b, b, a) // == 0 exactly
		scaled := ar.scale(e, s)
		return expSign(scaled) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkOrient2DFastPath(b *testing.B) {
	p := Point{0.1, 0.2}
	q := Point{3.7, 1.9}
	r := Point{2.2, 8.1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Orient2D(p, q, r)
	}
}

func BenchmarkOrient2DExactPath(b *testing.B) {
	// Collinear points force the exact fallback every time.
	p := Point{0, 0}
	q := Point{1e-30, 1e-30}
	r := Point{2e-30, 2e-30}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Orient2D(p, q, r)
	}
}

func BenchmarkInCircleFastPath(b *testing.B) {
	p := Point{0, 0}
	q := Point{1, 0}
	r := Point{0, 1}
	s := Point{5, 5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		InCircle(p, q, r, s)
	}
}

func BenchmarkInCircleExactPath(b *testing.B) {
	p := Point{0, 0}
	q := Point{1, 0}
	r := Point{0, 1}
	s := Point{1, 1} // exactly cocircular
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		InCircle(p, q, r, s)
	}
}
