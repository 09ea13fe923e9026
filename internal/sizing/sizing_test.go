package sizing

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"pamg2d/internal/airfoil"
	"pamg2d/internal/geom"
)

func TestKFormula(t *testing.T) {
	// Equation (1): k = 0.5*sqrt(A/sqrt(2)).
	for _, area := range []float64{0.01, 1, 100} {
		k := K(area)
		want := 0.5 * math.Sqrt(area/math.Sqrt2)
		if math.Abs(k-want) > 1e-15 {
			t.Errorf("K(%v) = %v, want %v", area, k, want)
		}
	}
}

func TestKInverse(t *testing.T) {
	f := func(aRaw uint32) bool {
		a := 1e-6 + float64(aRaw)/1e3
		return math.Abs(AreaForEdge(K(a))-a) < 1e-9*a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func circleSurface(n int, r float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		th := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = geom.Pt(r*math.Cos(th), r*math.Sin(th))
	}
	return pts
}

func TestGradedDistance(t *testing.T) {
	surf := circleSurface(256, 1)
	g := NewGraded(surf, 0.01, 0.2, 1.0)
	cases := []struct {
		p    geom.Point
		want float64
		tol  float64
	}{
		{geom.Pt(2, 0), 1, 0.01},
		{geom.Pt(0, 3), 2, 0.01},
		{geom.Pt(1, 0), 0, 0.01},
		{geom.Pt(10, 0), 9, 0.05},
		{geom.Pt(-7, -7), math.Hypot(7, 7) - 1, 0.05},
	}
	for _, c := range cases {
		if got := g.Distance(c.p); math.Abs(got-c.want) > c.tol {
			t.Errorf("Distance(%v) = %v, want %v +- %v", c.p, got, c.want, c.tol)
		}
	}
}

// scanDistance is the reference the index is held to, bit for bit: the
// distance to the nearest surface point by a scan of all of them.
func scanDistance(surf []geom.Point, p geom.Point) float64 {
	if len(surf) == 0 {
		return 0
	}
	best := math.Inf(1)
	for _, q := range surf {
		dx := p.X - q.X
		dy := p.Y - q.Y
		if d := dx*dx + dy*dy; d < best {
			best = d
		}
	}
	return math.Sqrt(best)
}

// scanEdgeLength is Graded.EdgeLength over scanDistance, without the cap
// shortcut.
func scanEdgeLength(surf []geom.Point, h0, gradation, hmax float64, p geom.Point) float64 {
	h := h0 + gradation*scanDistance(surf, p)
	if hmax > 0 && h > hmax {
		h = hmax
	}
	return h
}

// logUniformQueries returns n points whose distance from a random surface
// point is log-uniform between lo and hi, in a random direction: the
// distribution refinement under a small Gradation asks (ISSUE 20).
func logUniformQueries(rng *rand.Rand, surf []geom.Point, n int, lo, hi float64) []geom.Point {
	out := make([]geom.Point, n)
	for i := range out {
		c := surf[rng.Intn(len(surf))]
		r := lo * math.Pow(hi/lo, rng.Float64())
		th := 2 * math.Pi * rng.Float64()
		out[i] = geom.Pt(c.X+r*math.Cos(th), c.Y+r*math.Sin(th))
	}
	return out
}

func shifted(pts []geom.Point, by geom.Vec) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = p.Add(by)
	}
	return out
}

type namedSurface struct {
	name string
	pts  []geom.Point
}

// differentialSurfaces is the table the index is compared to the scan on.
func differentialSurfaces(rng *rand.Rand) []namedSurface {
	random := make([]geom.Point, 300)
	for i := range random {
		random[i] = geom.Pt(rng.Float64()*4-2, rng.Float64()*2-1)
	}
	equal := make([]geom.Point, 100)
	collinear := make([]geom.Point, 100)
	for i := range equal {
		equal[i] = geom.Pt(0.25, -0.5)
		collinear[i] = geom.Pt(float64(i%37)*0.1, float64(i%37)*0.05)
	}
	foil := airfoil.NACA0012.Points(128)
	three := append(append(shifted(foil, geom.V(-40, 3)), foil...), shifted(foil, geom.V(25, -60))...)
	return []namedSurface{
		{"airfoil-256", foil},
		{"airfoil-1536", airfoil.NACA0012.Points(768)},
		{"three-apart", three},
		{"random", random},
		{"all-equal", equal},
		{"collinear", collinear},
		{"one", random[:1]},
		{"two", random[:2]},
		{"leaf-1", random[:leafSize-1]},
		{"leaf", random[:leafSize]},
		{"leaf+1", random[:leafSize+1]},
		{"two-leaves+1", random[:2*leafSize+1]},
	}
}

// TestGradedDistanceMatchesBruteForce holds Distance, EdgeLength and Area
// to the linear scan's bits: log-uniform queries from 1e-3 to 1e2 chords,
// the surface points themselves and non-finite queries, with the cap off,
// reached inside the query range, never reached, and under the two
// gradations (zero, negative) the cap shortcut must stand aside for.
func TestGradedDistanceMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nan, inf := math.NaN(), math.Inf(1)
	params := []struct{ h0, gradation, hmax float64 }{
		{0.02, 0.03, 0},
		{0.02, 0.03, 0.5},
		{0.02, 0.03, 1e9},
		{0.7, 0, 0.5},
		{0.6, -0.01, 0.5},
	}
	for _, c := range differentialSurfaces(rng) {
		name, surf := c.name, c.pts
		queries := logUniformQueries(rng, surf, 2000, 1e-3, 1e2)
		queries = append(queries, surf...)
		for _, x := range []float64{nan, inf, -inf, 0.5} {
			for _, y := range []float64{nan, inf, -inf, 0.1} {
				queries = append(queries, geom.Pt(x, y))
			}
		}
		g := NewGraded(surf, 0, 0, 0)
		for _, p := range queries {
			if got, want := g.Distance(p), scanDistance(surf, p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Distance(%v) = %v, scan %v", name, p, got, want)
			}
			for _, pr := range params {
				g.H0, g.Gradation, g.HMax = pr.h0, pr.gradation, pr.hmax
				want := scanEdgeLength(surf, pr.h0, pr.gradation, pr.hmax, p)
				if got := g.EdgeLength(p); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %+v: EdgeLength(%v) = %v, scan %v", name, pr, p, got, want)
				}
				if got, want := g.Area(p), math.Sqrt(3)/4*want*want; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %+v: Area(%v) = %v, scan %v", name, pr, p, got, want)
				}
			}
		}
	}
}

// fuzzSurface decodes four bytes a point: two int16 on a 1/256 lattice, so
// duplicates and collinear runs are common, with the three extreme values
// of each standing for NaN and the infinities.
func fuzzSurface(data []byte) []geom.Point {
	coord := func(b []byte) float64 {
		switch v := int16(binary.LittleEndian.Uint16(b)); v {
		case math.MaxInt16:
			return math.Inf(1)
		case math.MinInt16:
			return math.Inf(-1)
		case math.MaxInt16 - 1:
			return math.NaN()
		default:
			return float64(v) / 256
		}
	}
	pts := make([]geom.Point, len(data)/4)
	for i := range pts {
		pts[i] = geom.Pt(coord(data[4*i:]), coord(data[4*i+2:]))
	}
	return pts
}

// FuzzGradedDistance holds the index to the scan's bits, and to returning
// at all, on arbitrary surfaces and one arbitrary query.
func FuzzGradedDistance(f *testing.F) {
	f.Add([]byte{}, 0.0, 0.0)
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0xff, 0x7f, 0, 0, 0xfe, 0x7f, 0, 0x80}, 1.5, math.NaN())
	rng := rand.New(rand.NewSource(1))
	big := make([]byte, 4*(4*leafSize+3))
	rng.Read(big)
	f.Add(big, 3.25, -40.0)
	f.Add(big, math.Inf(1), 0.0)
	f.Fuzz(func(t *testing.T, data []byte, x, y float64) {
		surf := fuzzSurface(data)
		p := geom.Pt(x, y)
		got, want := NewGraded(surf, 0, 0, 0).Distance(p), scanDistance(surf, p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Distance(%v) over %v = %v, scan %v", p, surf, got, want)
		}
	})
}

// TestGradedNonFinite: any surface and any query are answered as the scan
// answers them, in bounded time. The grid this index replaced took
// int(NaN) for a cell key: NewGraded panicked on a non-finite surface point
// (index out of range, or makeslice: len out of range) and Distance looped
// for int(NaN) rings on a NaN query.
func TestGradedNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		foil := airfoil.NACA0012.Points(32)
		for _, bad := range []geom.Point{{X: nan, Y: 0}, {X: 0.5, Y: inf}, {X: -inf, Y: nan}, {X: inf, Y: -inf}} {
			surf := append([]geom.Point{bad}, foil...)
			surf = append(surf, bad)
			g := NewGraded(surf, 0.02, 0.03, 4)
			for _, p := range []geom.Point{{X: 2, Y: 1}, {X: nan, Y: 1}, {X: 2, Y: -inf}, bad} {
				if got, want := g.Distance(p), scanDistance(surf, p); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("surface with %v: Distance(%v) = %v, scan %v", bad, p, got, want)
				}
				want := scanEdgeLength(surf, 0.02, 0.03, 4, p)
				if got := g.EdgeLength(p); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("surface with %v: EdgeLength(%v) = %v, scan %v", bad, p, got, want)
				}
			}
		}
		if got := NewGraded([]geom.Point{{X: nan, Y: nan}}, 1, 1, 0).Distance(geom.Pt(0, 0)); !math.IsInf(got, 1) {
			t.Errorf("all-NaN surface: Distance = %v, want +Inf", got)
		}
		if got := NewGraded(nil, 1, 1, 0).Distance(geom.Pt(nan, 0)); got != 0 {
			t.Errorf("empty surface: Distance = %v, want 0", got)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("non-finite input did not return within 10 s")
	}
}

// TestGradedConcurrentQueries: queries share nothing (run under -race).
func TestGradedConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	surf := airfoil.NACA0012.Points(256)
	g := NewGraded(surf, 0.02, 0.03, 4)
	queries := logUniformQueries(rng, surf, 4000, 1e-3, 1e2)
	want := make([]float64, len(queries))
	for i, p := range queries {
		want[i] = scanEdgeLength(surf, 0.02, 0.03, 4, p)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range queries {
				if got := g.EdgeLength(p); got != want[i] {
					t.Errorf("EdgeLength(%v) = %v, want %v", p, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestGradedEdgeLengthGrowth(t *testing.T) {
	surf := circleSurface(128, 1)
	g := NewGraded(surf, 0.01, 0.2, 0.5)
	// On the surface: h0.
	if got := g.EdgeLength(geom.Pt(1, 0)); math.Abs(got-0.01) > 1e-3 {
		t.Errorf("surface edge length = %v, want ~0.01", got)
	}
	// One unit away: h0 + 0.2.
	if got := g.EdgeLength(geom.Pt(2, 0)); math.Abs(got-0.21) > 1e-2 {
		t.Errorf("d=1 edge length = %v, want ~0.21", got)
	}
	// Far away: capped at hmax.
	if got := g.EdgeLength(geom.Pt(100, 0)); got != 0.5 {
		t.Errorf("far edge length = %v, want 0.5 (capped)", got)
	}
	// Monotone non-decreasing along a ray.
	prev := 0.0
	for d := 1.0; d < 50; d += 0.5 {
		h := g.EdgeLength(geom.Pt(d, 0))
		if h < prev {
			t.Fatalf("edge length decreased at d=%v: %v < %v", d, h, prev)
		}
		prev = h
	}
}

func TestGradedArea(t *testing.T) {
	surf := circleSurface(128, 1)
	g := NewGraded(surf, 0.1, 0.2, 1.0)
	p := geom.Pt(1.5, 0)
	h := g.EdgeLength(p)
	want := math.Sqrt(3) / 4 * h * h
	if got := g.Area(p); math.Abs(got-want) > 1e-12 {
		t.Errorf("Area = %v, want %v", got, want)
	}
}

// TestGradedSlopeBound holds Slope to the delaunay.Quality.SizeSlope
// contract over random pairs of points: |√Area(p) − √Area(q)| ≤ Slope·|p −
// q|, up to a relative rounding error of 2^-44 in each term, wherever both
// targets lie between 2^-800 and 2^800. The pairs are log-uniform in
// distance from the surface and in separation, some on one ray from a
// surface point, where the bound is tight, and some far enough for the cap
// and the root-box shortcut. Negative and zero gradations and negative H0
// declare no slope.
func TestGradedSlopeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const eta = 0x1p-44
	foil := airfoil.NACA0012.Points(128)
	surfaces := []namedSurface{
		{"airfoil", foil},
		{"one", foil[:1]},
		{"two", foil[:2]},
		{"three apart", append(shifted(foil, geom.V(-40, 3)), shifted(foil, geom.V(25, -60))...)},
	}
	params := []struct{ h0, gradation, hmax float64 }{
		{0.02, 0.03, 4},     // the pipeline's kind: capped far out
		{0.02, 0.03, 0},     // HMax 0: never capped
		{0, 0.25, 2},        // H0 0: targets down to the surface
		{0.5, 0.2, 0.3},     // HMax below H0: constant
		{1e-6, 1e4, 1e-3},   // steep, capped early
		{3, 1e-12, 1e9},     // nearly flat
		{0.01, 0, 1},        // Gradation 0: no slope
		{0.6, -0.01, 0.5},   // negative Gradation: no slope
		{-0.1, 0.2, 4},      // negative H0: no slope
		{0.02, 0x1p61, 4},   // beyond maxSlopeGradation: no slope
		{math.Inf(1), 1, 0}, // infinite H0: no slope
	}
	for _, s := range surfaces {
		for _, pr := range params {
			g := NewGraded(s.pts, pr.h0, pr.gradation, pr.hmax)
			slope := g.Slope()
			if declares := pr.h0 >= 0 && !math.IsInf(pr.h0, 1) && pr.gradation > 0 && pr.gradation <= maxSlopeGradation; declares != (slope > 0) {
				t.Fatalf("%s %+v: Slope = %v", s.name, pr, slope)
			}
			if slope == 0 {
				continue
			}
			if want := pr.gradation * math.Sqrt(math.Sqrt(3)/4); slope != want {
				t.Fatalf("%s %+v: Slope = %v, want %v", s.name, pr, slope, want)
			}
			from := logUniformQueries(rng, s.pts, 3000, 1e-90, 1e3)
			for i, p := range from {
				var q geom.Point
				sep := math.Pow(10, rng.Float64()*20-18) * (1 + p.Dist(s.pts[0]))
				if i%2 == 0 {
					// Further along the ray from the nearest-ish surface point.
					c := s.pts[rng.Intn(len(s.pts))]
					d := p.Sub(c)
					q = p.Add(d.Scale(sep / math.Max(d.Len(), 1e-300)))
				} else {
					th := 2 * math.Pi * rng.Float64()
					q = geom.Pt(p.X+sep*math.Cos(th), p.Y+sep*math.Sin(th))
				}
				ap, aq := g.Area(p), g.Area(q)
				if !(ap >= 0x1p-800 && ap <= 0x1p800 && aq >= 0x1p-800 && aq <= 0x1p800) {
					continue
				}
				rp, rq := math.Sqrt(ap), math.Sqrt(aq)
				if lhs, rhs := math.Abs(rp-rq), (1+eta)*slope*p.Dist(q)+eta*(rp+rq); lhs > rhs {
					t.Fatalf("%s %+v: |√Area(%v) − √Area(%v)| = %v > %v", s.name, pr, p, q, lhs, rhs)
				}
			}
		}
	}
}

func TestUniform(t *testing.T) {
	f := Uniform(2.5)
	if f(geom.Pt(0, 0)) != 2.5 || f(geom.Pt(100, -3)) != 2.5 {
		t.Error("uniform sizing must be constant")
	}
}

// BenchmarkGradedDistance measures what the pipeline asks: an airfoil's
// surface points, queries log-uniform in distance from 0.1 to 16 chords
// (Gradation 0.03 between SurfaceH0 and HMax).
func BenchmarkGradedDistance(b *testing.B) {
	surf := airfoil.NACA0012.Points(128)
	g := NewGraded(surf, 0.02, 0.03, 4)
	pts := logUniformQueries(rand.New(rand.NewSource(1)), surf, 1024, 0.1, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Distance(pts[i%len(pts)])
	}
}
