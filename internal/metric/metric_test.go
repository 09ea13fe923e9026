package metric

import (
	"math"
	"math/rand"
	"testing"

	"pamg2d/internal/geom"
)

func near(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %g, want %g (±%g)", what, got, want, tol)
	}
}

func TestIsoLength(t *testing.T) {
	m := Iso(0.25)
	// An edge of Euclidean length 0.25 has metric length 1.
	near(t, m.Len(geom.V(0.25, 0)), 1, 1e-12, "Len")
	near(t, m.Len(geom.V(0, 0.5)), 2, 1e-12, "Len")
	l1, l2, _ := m.Eigen()
	near(t, l1, 16, 1e-9, "l1")
	near(t, l2, 16, 1e-9, "l2")
}

func TestFromEigenRoundTrip(t *testing.T) {
	dir := geom.V(3, 4).Unit()
	m := FromEigen(100, 4, dir)
	l1, l2, v1 := m.Eigen()
	near(t, l1, 100, 1e-9, "l1")
	near(t, l2, 4, 1e-9, "l2")
	if c := math.Abs(v1.Dot(dir)); math.Abs(c-1) > 1e-9 {
		t.Fatalf("eigenvector %v not parallel to %v (|cos| = %g)", v1, dir, c)
	}
	// Unit spacing along dir is 1/sqrt(100) = 0.1.
	near(t, m.Len(dir.Scale(0.1)), 1, 1e-9, "Len along dir")
	near(t, m.Aspect(), 5, 1e-9, "Aspect")
}

func TestLogExpInverse(t *testing.T) {
	m := FromEigen(50, 2, geom.V(1, 2).Unit())
	r := m.Log().Exp()
	near(t, r.XX, m.XX, 1e-9, "XX")
	near(t, r.XY, m.XY, 1e-9, "XY")
	near(t, r.YY, m.YY, 1e-9, "YY")
}

func TestClamp(t *testing.T) {
	m := FromEigen(1e8, 1e-2, geom.V(1, 0)) // h: 1e-4 .. 10
	c := m.Clamp(1e-2, 1, 20)
	l1, l2, _ := c.Eigen()
	// Spacings clamped to [1e-2, 1] then aspect to 20: l1 = 1e4,
	// l2 raised from 1 to 1e4/400 = 25.
	near(t, l1, 1e4, 1e-6, "l1")
	near(t, l2, 25, 1e-6, "l2")
	if a := c.Aspect(); a > 20+1e-9 {
		t.Fatalf("aspect %g exceeds clamp 20", a)
	}
}

func TestIntersectDominatesBoth(t *testing.T) {
	a := FromEigen(100, 1, geom.V(1, 0))
	b := FromEigen(1, 100, geom.V(1, 0))
	i := Intersect(a, b)
	// Symmetric.
	j := Intersect(b, a)
	near(t, j.XX, i.XX, 1e-9, "sym XX")
	near(t, j.XY, i.XY, 1e-9, "sym XY")
	near(t, j.YY, i.YY, 1e-9, "sym YY")
	// Idempotent.
	k := Intersect(a, a)
	near(t, k.XX, a.XX, 1e-9, "idem XX")
	// Dominates both arguments in every direction.
	for deg := 0; deg < 180; deg += 7 {
		v := geom.V(1, 0).Rotate(float64(deg) * math.Pi / 180)
		if i.Len(v) < a.Len(v)-1e-9 || i.Len(v) < b.Len(v)-1e-9 {
			t.Fatalf("direction %d°: intersection length %g below max(%g, %g)",
				deg, i.Len(v), a.Len(v), b.Len(v))
		}
	}
}

func TestInterpEndpointsAndMonotone(t *testing.T) {
	a := Iso(0.1)
	b := Iso(0.4)
	near(t, Interp(a, b, 0).XX, a.XX, 1e-9, "t=0")
	near(t, Interp(a, b, 1).XX, b.XX, 1e-9, "t=1")
	// Geometric midpoint of spacings: h = sqrt(0.1*0.4) = 0.2.
	mid := Interp(a, b, 0.5)
	near(t, 1/math.Sqrt(mid.XX), 0.2, 1e-9, "midpoint spacing")
}

func TestEdgeLenQuadrature(t *testing.T) {
	p, q := geom.Pt(0, 0), geom.Pt(1, 0)
	// Equal endpoint metrics: plain length ratio.
	near(t, EdgeLen(p, q, Iso(0.5), Iso(0.5)), 2, 1e-9, "uniform")
	// Geometric quadrature between h=1 (len 1) and h=0.25 (len 4):
	// (1-4)/ln(1/4).
	want := 3 / math.Log(4)
	near(t, EdgeLen(p, q, Iso(1), Iso(0.25)), want, 1e-9, "graded")
	// Symmetric in the endpoints.
	near(t, EdgeLen(q, p, Iso(0.25), Iso(1)), want, 1e-9, "reversed")
}

func TestTriQualityEquilateral(t *testing.T) {
	h := 0.3
	a := geom.Pt(0, 0)
	b := geom.Pt(h, 0)
	c := geom.Pt(h/2, h*math.Sqrt(3)/2)
	m := Iso(h)
	q := TriQuality(a, b, c, m, m, m)
	near(t, q, 1, 1e-9, "equilateral quality")
	// A stretched metric makes the same element poor.
	s := FromSpacings(h/10, h, geom.V(1, 0))
	if qs := TriQuality(a, b, c, s, s, s); qs > 0.5 {
		t.Fatalf("stretched-metric quality %g, want < 0.5", qs)
	}
}

// triQualityTakingLogs is TriQuality as it stood before the Log form
// existed: the reference TriQualityLog must reproduce bit for bit when
// handed the three logarithms.
func triQualityTakingLogs(a, b, c geom.Point, ma, mb, mc M) float64 {
	mean := ma.Log().add(mb.Log()).add(mc.Log()).scale(1.0 / 3).Exp()
	area := geom.TriangleArea(a, b, c)
	if area <= 0 {
		return 0
	}
	areaM := math.Sqrt(mean.Det()) * area
	la := EdgeLen(a, b, ma, mb)
	lb := EdgeLen(b, c, mb, mc)
	lc := EdgeLen(c, a, mc, ma)
	den := la*la + lb*lb + lc*lc
	if den <= 0 {
		return 0
	}
	return 4 * math.Sqrt(3) * areaM / den
}

// TestTriQualityLogBitIdentical: internal/adapt evaluates quality from
// cached logarithms and promises the same mesh, so the Log form, the
// wrapper and the pre-cache formula must agree in every bit — on
// isotropic, stretched and mixed tensors, in every argument rotation
// (swap evaluation rotates them), and on an inverted triangle.
func TestTriQualityLogBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	tensor := func() M {
		switch rng.Intn(3) {
		case 0:
			return Iso(math.Exp(rng.Float64()*8 - 6))
		case 1: // boundary-layer stretch, aspect up to 1e4
			hn := math.Exp(rng.Float64()*6 - 12)
			th := rng.Float64() * 2 * math.Pi
			return FromSpacings(hn, hn*math.Exp(rng.Float64()*9), geom.V(math.Cos(th), math.Sin(th)))
		}
		return Interp(Iso(0.01), FromSpacings(1e-4, 0.3, geom.V(0.6, 0.8)), rng.Float64())
	}
	for i := 0; i < 2000; i++ {
		p := [3]geom.Point{
			geom.Pt(rng.Float64(), rng.Float64()),
			geom.Pt(rng.Float64(), rng.Float64()),
			geom.Pt(rng.Float64(), rng.Float64()),
		}
		m := [3]M{tensor(), tensor(), tensor()}
		for _, o := range [][3]int{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {1, 0, 2}} {
			a, b, c := p[o[0]], p[o[1]], p[o[2]]
			ma, mb, mc := m[o[0]], m[o[1]], m[o[2]]
			want := triQualityTakingLogs(a, b, c, ma, mb, mc)
			got := TriQualityLog(a, b, c, ma, mb, mc, ma.Log(), mb.Log(), mc.Log())
			wrapped := TriQuality(a, b, c, ma, mb, mc)
			if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(wrapped) != math.Float64bits(want) {
				t.Fatalf("case %d order %v: TriQualityLog %x, TriQuality %x, reference %x",
					i, o, math.Float64bits(got), math.Float64bits(wrapped), math.Float64bits(want))
			}
		}
	}
}

// TestTriQualityRotations holds the three-rotation form to TriQualityLog in
// each rotation, bit for bit, on random tensors and on tensors built so that
// the rotated log sums differ in their low bits: logs 0.1, 0.2 and 0.3 sum
// to 0.6000000000000001 in one order and 0.6 in another, so a mean the
// rotations cannot share must be exponentiated on its own.
func TestTriQualityRotations(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	shared, unshared := 0, 0
	for i := 0; i < 2000; i++ {
		p := [3]geom.Point{
			geom.Pt(rng.Float64(), rng.Float64()),
			geom.Pt(rng.Float64(), rng.Float64()),
			geom.Pt(rng.Float64(), rng.Float64()),
		}
		var m, lg [3]M
		switch i % 3 {
		case 0: // logs given exactly; the tensors are their exponentials
			for k, x := range [3]float64{0.1, 0.2, 0.3} {
				lg[k] = M{XX: x, XY: x / 7, YY: 2 * x}
				m[k] = lg[k].Exp()
			}
		case 1:
			h := math.Exp(rng.Float64()*4 - 4)
			m = [3]M{Iso(h), Iso(h), Iso(h)}
		default:
			for k := range m {
				m[k] = FromSpacings(math.Exp(rng.Float64()*4-6), math.Exp(rng.Float64()*4-3), geom.V(rng.Float64()-0.5, rng.Float64()-0.5).Unit())
			}
		}
		var l [3]float64
		for e := 0; e < 3; e++ {
			if i%3 != 0 {
				lg[e] = m[e].Log()
			}
			l[e] = EdgeLen(p[e], p[(e+1)%3], m[e], m[(e+1)%3])
		}
		got := TriQualityRotations(p, lg, l)
		for r := 0; r < 3; r++ {
			a, b, c := r, (r+1)%3, (r+2)%3
			want := TriQualityLog(p[a], p[b], p[c], m[a], m[b], m[c], lg[a], lg[b], lg[c])
			if math.Float64bits(got[r]) != math.Float64bits(want) {
				t.Fatalf("case %d rotation %d: %x, TriQualityLog %x", i, r, math.Float64bits(got[r]), math.Float64bits(want))
			}
		}
		if sameBits(logMean(lg[0], lg[1], lg[2]), logMean(lg[1], lg[2], lg[0])) &&
			sameBits(logMean(lg[0], lg[1], lg[2]), logMean(lg[2], lg[0], lg[1])) {
			if i%3 == 0 {
				t.Fatalf("case %d: the constructed tensors' rotated log sums agree", i)
			}
			shared++
		} else {
			unshared++
		}
	}
	if shared == 0 || unshared == 0 {
		t.Fatalf("%d cases shared one mean, %d did not: want both paths", shared, unshared)
	}
}

func TestParseSpec(t *testing.T) {
	f, err := ParseSpec("uniform:h=0.2")
	if err != nil {
		t.Fatal(err)
	}
	near(t, f(geom.Pt(3, 4)).Len(geom.V(0.2, 0)), 1, 1e-9, "uniform")

	f, err = ParseSpec("bl:x0=0,y0=0,x1=1,y1=0,hn=0.01,ht=0.1,grow=1")
	if err != nil {
		t.Fatal(err)
	}
	// On the wall: normal spacing hn, tangential ht.
	m := f(geom.Pt(0.5, 0))
	near(t, m.Len(geom.V(0, 0.01)), 1, 1e-9, "wall normal")
	near(t, m.Len(geom.V(0.1, 0)), 1, 1e-9, "wall tangent")
	// At distance 0.02: normal spacing 0.03.
	m = f(geom.Pt(0.5, 0.02))
	near(t, m.Len(geom.V(0, 0.03)), 1, 1e-9, "grown normal")
	// Far away: isotropic ht.
	m = f(geom.Pt(0.5, 5))
	near(t, m.Len(geom.V(0.1, 0)), 1, 1e-9, "farfield")
	near(t, m.Aspect(), 1, 1e-9, "farfield isotropy")

	for _, bad := range []string{"nope:h=1", "uniform:h=-1", "bl:hn=1,ht=0.1", "uniform:h"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
}
