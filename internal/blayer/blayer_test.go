package blayer

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pamg2d/internal/airfoil"
	"pamg2d/internal/geom"
	"pamg2d/internal/growth"
	"pamg2d/internal/pslg"
)

// convexHull returns the convex hull of pts counter-clockwise from its
// least point in geom.Compare order, without repeated or collinear
// points (Andrew's monotone chain: the lower chain left to right, then
// the upper right to left). Fewer than three distinct points come back
// sorted.
func convexHull(pts []geom.Point) []geom.Point {
	s := slices.Clone(pts)
	slices.SortFunc(s, geom.Compare)
	s = slices.Compact(s)
	if len(s) < 3 {
		return s
	}
	h := make([]geom.Point, 0, 2*len(s))
	for range 2 {
		start := len(h)
		for _, p := range s {
			for len(h) >= start+2 && geom.Orient2DSign(h[len(h)-2], h[len(h)-1], p) <= 0 {
				h = h[:len(h)-1]
			}
			h = append(h, p)
		}
		h = h[:len(h)-1]
		slices.Reverse(s)
	}
	return h
}

// ccwSquare is a CCW unit square.
func ccwSquare() []geom.Point {
	return []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}
}

func TestEdgeNormalsSquare(t *testing.T) {
	en := edgeNormals(ccwSquare())
	want := []geom.Vec{geom.V(0, -1), geom.V(1, 0), geom.V(0, 1), geom.V(-1, 0)}
	for i := range en {
		if math.Abs(en[i].X-want[i].X) > 1e-12 || math.Abs(en[i].Y-want[i].Y) > 1e-12 {
			t.Errorf("edge normal %d = %v, want %v", i, en[i], want[i])
		}
	}
}

func TestVertexNormalsSquare(t *testing.T) {
	vn := VertexNormals(ccwSquare())
	s := 1 / math.Sqrt2
	want := []geom.Vec{geom.V(-s, -s), geom.V(s, -s), geom.V(s, s), geom.V(-s, s)}
	for i := range vn {
		if math.Abs(vn[i].X-want[i].X) > 1e-12 || math.Abs(vn[i].Y-want[i].Y) > 1e-12 {
			t.Errorf("vertex normal %d = %v, want %v", i, vn[i], want[i])
		}
	}
}

func TestVertexNormalsPointOutward(t *testing.T) {
	// For a CCW circle, vertex normals must point away from the center.
	n := 64
	pts := make([]geom.Point, n)
	for i := range pts {
		th := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = geom.Pt(math.Cos(th), math.Sin(th))
	}
	vn := VertexNormals(pts)
	for i := range pts {
		radial := pts[i].Sub(geom.Pt(0, 0)).Unit()
		if vn[i].Dot(radial) < 0.99 {
			t.Fatalf("normal %d = %v not radial (%v)", i, vn[i], radial)
		}
	}
}

func TestTurnAngle(t *testing.T) {
	sq := edgeNormals(ccwSquare())
	for i := range sq {
		if got := turnAngle(sq, i); math.Abs(got-math.Pi/2) > 1e-12 {
			t.Errorf("square corner %d turn = %v, want pi/2", i, got)
		}
	}
	// Straight polyline point has zero turn.
	line := edgeNormals([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(2, 2), geom.Pt(0, 2)})
	if got := turnAngle(line, 1); got > 1e-12 {
		t.Errorf("straight vertex turn = %v, want 0", got)
	}
}

func circleLoop(n int, r float64) pslg.Loop {
	pts := make([]geom.Point, n)
	for i := range pts {
		th := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = geom.Pt(r*math.Cos(th), r*math.Sin(th))
	}
	return pslg.Loop{Points: pts, Name: "circle"}
}

func smoothParams() Params {
	p := DefaultParams()
	p.Growth = growth.Geometric{H0: 0.01, Ratio: 1.2}
	p.MaxLayers = 10
	p.IsotropyFactor = 0 // no cutoff: predictable layer counts
	return p
}

func TestCircleLayerNoIntersections(t *testing.T) {
	g := &pslg.Graph{Surfaces: []pslg.Loop{circleLoop(64, 1)}}
	p := smoothParams()
	layers := Generate(g, p)
	if len(layers) != 1 {
		t.Fatal("one layer expected")
	}
	l := layers[0]
	if l.Stats.SelfIntersections != 0 {
		t.Errorf("convex circle must have no self-intersections, got %d", l.Stats.SelfIntersections)
	}
	if l.Stats.FanRays != 0 {
		t.Errorf("smooth circle must have no fans, got %d", l.Stats.FanRays)
	}
	if len(l.Rays) != 64 {
		t.Errorf("rays = %d, want 64", len(l.Rays))
	}
	for i, pts := range l.Points {
		if len(pts) != p.MaxLayers {
			t.Fatalf("ray %d: %d layers, want %d", i, len(pts), p.MaxLayers)
		}
		// All points must lie outside the unit circle, at increasing radii.
		prev := 1.0
		for _, q := range pts {
			r := math.Hypot(q.X, q.Y)
			if r <= prev {
				t.Fatalf("ray %d: radius not increasing (%v after %v)", i, r, prev)
			}
			prev = r
		}
	}
}

func TestIsotropyCutoff(t *testing.T) {
	// With an isotropy factor, rays must stop when the normal spacing
	// reaches the tangential spacing (Figure 5's variable-height layer).
	g := &pslg.Graph{Surfaces: []pslg.Loop{circleLoop(64, 1)}}
	p := smoothParams()
	p.IsotropyFactor = 1.0
	p.MaxLayers = 100
	layers := Generate(g, p)
	l := layers[0]
	tangential := l.Rays[0].Tangential
	for i, pts := range l.Points {
		n := len(pts)
		if n == 0 || n == 100 {
			t.Fatalf("ray %d: unexpected layer count %d", i, n)
		}
		if sp := p.Growth.Spacing(n - 1); sp >= tangential {
			t.Fatalf("ray %d: spacing %v at last layer exceeds tangential %v", i, sp, tangential)
		}
		if sp := p.Growth.Spacing(n); sp < tangential {
			t.Fatalf("ray %d: next spacing %v still below tangential; stopped early", i, sp)
		}
	}
}

func TestConcaveCornerSelfIntersection(t *testing.T) {
	// An L-shaped body (CCW): rays at the concave notch converge and must
	// be trimmed (Figure 13c: resolved self intersection at a 90 degree
	// concave corner).
	l := pslg.Loop{Name: "L", Points: []geom.Point{
		geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 2), geom.Pt(2, 2), geom.Pt(2, 4), geom.Pt(0, 4),
	}}
	// Subdivide the edges so rays are dense enough to collide.
	var pts []geom.Point
	n := len(l.Points)
	for i := 0; i < n; i++ {
		a, b := l.Points[i], l.Points[(i+1)%n]
		for k := 0; k < 8; k++ {
			pts = append(pts, a.Lerp(b, float64(k)/8))
		}
	}
	g := &pslg.Graph{Surfaces: []pslg.Loop{{Name: "L", Points: pts}}}
	p := smoothParams()
	p.Growth = growth.Geometric{H0: 0.05, Ratio: 1.3}
	p.MaxLayers = 12
	layers := Generate(g, p)
	st := layers[0].Stats
	if st.SelfIntersections == 0 {
		t.Error("concave corner must produce self-intersections")
	}
	if st.TrimmedRays == 0 {
		t.Error("intersecting rays must be trimmed")
	}
	// No two inserted points from converging rays may cross the bisector
	// of the notch: check that all points remain outside the body.
	loop := layers[0].Surface
	for i, rayPts := range layers[0].Points {
		for _, q := range rayPts {
			if loop.Contains(q) {
				t.Fatalf("ray %d: point %v inside the body", i, q)
			}
		}
	}
}

func TestCuspFanAtTrailingEdge(t *testing.T) {
	// The sharp (closed) NACA 0012 trailing edge is a cusp: a fan of rays
	// must be emitted there (Figure 4).
	cfg := airfoil.Single(airfoil.NACA0012, 48, 30)
	g, err := cfg.Graph()
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Growth = growth.Geometric{H0: 1e-3, Ratio: 1.3}
	p.MaxLayers = 15
	layers := Generate(g, p)
	st := layers[0].Stats
	if st.FanRays < 3 {
		t.Errorf("sharp trailing edge must emit a fan, got %d fan rays", st.FanRays)
	}
}

func TestFanCurvesTowardBisector(t *testing.T) {
	// A wedge body whose apex emits a fan: with curving on, the fan's
	// outermost points must bend toward the bisector compared to straight
	// extrapolation.
	wedge := pslg.Loop{Name: "wedge", Points: []geom.Point{
		geom.Pt(0, 0.4), geom.Pt(-2, 0.4), geom.Pt(-2, -0.4), geom.Pt(0, -0.4),
	}}
	g := &pslg.Graph{Surfaces: []pslg.Loop{wedge}}
	p := smoothParams()
	p.FanCurving = 0.8
	p.CuspAngleDeg = 60
	layers := Generate(g, p)
	l := layers[0]
	if l.Stats.FanRays == 0 {
		t.Skip("no fan emitted for this wedge; corner below cusp angle")
	}
	for i := range l.Rays {
		r := &l.Rays[i]
		if !r.Fan || len(l.Points[i]) < 3 {
			continue
		}
		last := l.Points[i][len(l.Points[i])-1]
		straight := r.Origin.Add(r.Dir.Scale(last.Dist(r.Origin)))
		// Unless the ray is already the bisector, the curved endpoint must
		// be closer to the bisector ray than the straight endpoint.
		if math.Abs(r.Dir.Dot(r.FanBisector)) > 0.999 {
			continue
		}
		bisLine := geom.Segment{A: r.Origin, B: r.Origin.Add(r.FanBisector.Scale(100))}
		if geom.PointSegDist(last, bisLine) >= geom.PointSegDist(straight, bisLine) {
			t.Fatalf("fan ray %d did not curve toward the bisector", i)
		}
	}
}

func TestMultiElementTrimming(t *testing.T) {
	// Two nearby squares whose layers overlap: rays of each must be
	// trimmed against the other's outer border (Figure 13d).
	a := pslg.Loop{Name: "a", Points: subdiv([]geom.Point{
		geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}, 6)}
	b := pslg.Loop{Name: "b", Points: subdiv([]geom.Point{
		geom.Pt(1.2, 0), geom.Pt(2.2, 0), geom.Pt(2.2, 1), geom.Pt(1.2, 1)}, 6)}
	g := &pslg.Graph{Surfaces: []pslg.Loop{a, b}}
	p := smoothParams()
	p.Growth = growth.Geometric{H0: 0.04, Ratio: 1.3}
	p.MaxLayers = 10 // full height ~1.7: guaranteed overlap across the 0.2 gap
	layers := Generate(g, p)
	multi := layers[0].Stats.MultiIntersections + layers[1].Stats.MultiIntersections
	if multi == 0 {
		t.Fatal("overlapping layers must report multi-element intersections")
	}
	// Points of element a facing b must not cross b's surface.
	for i, rayPts := range layers[0].Points {
		for _, q := range rayPts {
			if layers[1].Surface.Contains(q) {
				t.Fatalf("element a ray %d point %v entered element b", i, q)
			}
		}
	}
}

func subdiv(pts []geom.Point, k int) []geom.Point {
	var out []geom.Point
	n := len(pts)
	for i := 0; i < n; i++ {
		a, b := pts[i], pts[(i+1)%n]
		for j := 0; j < k; j++ {
			out = append(out, a.Lerp(b, float64(j)/float64(k)))
		}
	}
	return out
}

func TestLargeAngleSurfaceRefinement(t *testing.T) {
	// A coarse circle has large angles between neighboring vertex normals;
	// refinement must insert interpolated surface points.
	g := &pslg.Graph{Surfaces: []pslg.Loop{circleLoop(8, 1)}}
	p := smoothParams()
	p.MaxAngleDeg = 10
	layers := Generate(g, p)
	st := layers[0].Stats
	if st.InsertedVertices == 0 {
		t.Error("coarse circle must trigger large-angle surface refinement")
	}
	if len(layers[0].Surface.Points) != st.OriginalVertices+st.InsertedVertices {
		t.Errorf("refined surface size %d != %d original + %d inserted",
			len(layers[0].Surface.Points), st.OriginalVertices, st.InsertedVertices)
	}
}

func TestAllPointsCount(t *testing.T) {
	g := &pslg.Graph{Surfaces: []pslg.Loop{circleLoop(32, 1)}}
	p := smoothParams()
	layers := Generate(g, p)
	l := layers[0]
	want := len(l.Surface.Points) + l.Stats.TotalPoints
	if got := len(l.AllPoints()); got != want {
		t.Errorf("AllPoints = %d, want %d", got, want)
	}
}

func TestThreeElementEndToEnd(t *testing.T) {
	cfg := airfoil.ThreeElement(48)
	g, err := cfg.Graph()
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Growth = growth.Geometric{H0: 5e-4, Ratio: 1.25}
	p.MaxLayers = 25
	layers := Generate(g, p)
	if len(layers) != 3 {
		t.Fatalf("layers = %d", len(layers))
	}
	var totalPts, totalFans int
	for _, l := range layers {
		totalPts += l.Stats.TotalPoints
		totalFans += l.Stats.FanRays
		// No boundary-layer point may fall inside any element.
		for _, other := range layers {
			for i, rayPts := range l.Points {
				for _, q := range rayPts {
					if other.Surface.Contains(q) {
						t.Fatalf("layer %s ray %d point inside %s", l.Surface.Name, i, other.Surface.Name)
					}
				}
			}
		}
	}
	if totalPts < 1000 {
		t.Errorf("three-element config generated only %d points", totalPts)
	}
	if totalFans == 0 {
		t.Error("three-element config must emit cusp fans")
	}
	// Anisotropy must be significant (paper cites 10,000:1 for production;
	// this scaled-down config still must exceed 10:1): the largest ratio of
	// tangential spacing to first-layer height over the rays with points.
	h0 := p.Growth.Spacing(0)
	ar := 0.0
	for i, r := range layers[1].Rays {
		if len(layers[1].Points[i]) > 0 {
			ar = max(ar, r.Tangential/h0)
		}
	}
	if ar < 10 {
		t.Errorf("max aspect ratio = %v, want >= 10", ar)
	}
}

func BenchmarkGenerateNACA0012(b *testing.B) {
	cfg := airfoil.Single(airfoil.NACA0012, 256, 30)
	g, err := cfg.Graph()
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Generate(g, p)
	}
}

func BenchmarkGenerateThreeElement(b *testing.B) {
	cfg := airfoil.ThreeElement(128)
	g, err := cfg.Graph()
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Generate(g, p)
	}
}

// Property: for random convex polygons, boundary-layer generation never
// reports self-intersections and all inserted points stay outside the
// body, and on the polygon itself (surface refinement off: interpolated
// points sit on its edges and are not strictly convex) the convexity
// certificate covers the whole loop and every ray outside a cusp fan.
func TestConvexBodyProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%20 + 6
		rng := rand.New(rand.NewSource(seed))
		// Random convex polygon: sort random angles, radius jitter kept
		// small enough to stay convex-ish, then take the convex hull of
		// the candidate points to guarantee convexity.
		var cand []geom.Point
		for i := 0; i < n*2; i++ {
			th := 2 * math.Pi * float64(i) / float64(n*2)
			r := 1 + 0.3*rng.Float64()
			cand = append(cand, geom.Pt(r*math.Cos(th), r*math.Sin(th)))
		}
		pts := convexHull(cand)
		if len(pts) < 5 {
			return true
		}
		g := &pslg.Graph{Surfaces: []pslg.Loop{{Name: "body", Points: pts}}}
		p := smoothParams()
		p.Growth = growth.Geometric{H0: 0.02, Ratio: 1.25}
		p.MaxLayers = 8
		layers := Generate(g, p)
		l := layers[0]
		if l.Stats.SelfIntersections != 0 {
			return false
		}
		for _, rayPts := range l.Points {
			for _, q := range rayPts {
				if l.Surface.Contains(q) {
					return false
				}
			}
		}
		p.MaxAngleDeg = 180
		var st Stats
		rays := buildRays(refineSurface(pts, p, &st), p, &st)
		cv := newConvexRuns(pts)
		if st.InsertedVertices != 0 || !cv.whole {
			return false
		}
		for i := range rays {
			if !rays[i].Fan && cv.certify(&rays[i], fullLength(p)) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
