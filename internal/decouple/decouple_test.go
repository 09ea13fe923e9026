package decouple

import (
	"math"
	"testing"
	"time"

	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/sizing"
)

var (
	nb = geom.BBox{Min: geom.Pt(-1, -1), Max: geom.Pt(1, 1)}
	ff = geom.BBox{Min: geom.Pt(-8, -8), Max: geom.Pt(8, 8)}
)

func uniform(area float64) sizing.Func { return sizing.Uniform(area) }

func TestMarchBorderSpacing(t *testing.T) {
	size := uniform(0.5)
	k := sizing.K(0.5)
	pts := MarchBorder(geom.Pt(0, 0), geom.Pt(10, 0), size)
	if len(pts) < 3 {
		t.Fatalf("marched only %d points", len(pts))
	}
	if pts[0] != (geom.Pt(0, 0)) {
		t.Error("march must start at a")
	}
	for i := 1; i < len(pts); i++ {
		d := pts[i].Dist(pts[i-1])
		if d < 2*k/math.Sqrt(3)-1e-9 || d >= 2*k {
			t.Errorf("step %d spacing %v outside [2k/sqrt3, 2k) = [%v, %v)", i, d, 2*k/math.Sqrt(3), 2*k)
		}
	}
	// Last marched point must not be too close to b.
	last := pts[len(pts)-1]
	if last.Dist(geom.Pt(10, 0)) < k {
		t.Errorf("last point %v too close to the endpoint", last)
	}
}

func TestMarchBorderGraded(t *testing.T) {
	// Sizing growing with x: spacing must grow along the march and respect
	// D < 2*k_next.
	size := func(p geom.Point) float64 { return 0.05 + 0.2*math.Abs(p.X) }
	pts := MarchBorder(geom.Pt(0, 0), geom.Pt(20, 0), size)
	if len(pts) < 5 {
		t.Fatalf("marched only %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		d := pts[i].Dist(pts[i-1])
		kn := sizing.K(size(pts[i]))
		if d >= 2*kn {
			t.Errorf("step %d: spacing %v >= 2*k_next %v", i, d, 2*kn)
		}
	}
	// Spacings grow overall.
	first := pts[1].Dist(pts[0])
	last := pts[len(pts)-1].Dist(pts[len(pts)-2])
	if last <= first {
		t.Errorf("graded march: last spacing %v not larger than first %v", last, first)
	}
}

// TestMarchBorderNonFiniteSizing: a sizing function that answers NaN or an
// infinity (any func(geom.Point) float64 can), or an endpoint that is not finite, must
// not spin the march. At the parent commit a NaN k made the step NaN, the
// end test `pos+step >= total-0.5*step` false for ever, and the slice grow
// until the process died.
func TestMarchBorderNonFiniteSizing(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	a, b := geom.Pt(0, 0), geom.Pt(10, 0)
	cases := []struct {
		name string
		a, b geom.Point
		size sizing.Func
	}{
		{"NaN everywhere", a, b, uniform(nan)},
		{"+Inf everywhere", a, b, uniform(inf)},
		{"-Inf everywhere", a, b, uniform(-inf)},
		{"NaN ahead", a, b, func(p geom.Point) float64 {
			if p.X > 3 {
				return nan
			}
			return 0.5
		}},
		{"NaN at the start", a, b, func(p geom.Point) float64 {
			if p.X < 3 {
				return nan
			}
			return 0.5
		}},
		{"end at infinity", a, geom.Pt(inf, 0), uniform(0.5)},
		{"end at NaN", a, geom.Pt(nan, 0), uniform(0.5)},
		{"start at infinity", geom.Pt(0, -inf), b, uniform(0.5)},
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, c := range cases {
			pts := MarchBorder(c.a, c.b, c.size)
			if len(pts) == 0 || len(pts) > 100 {
				t.Errorf("%s: marched %d points", c.name, len(pts))
				continue
			}
			for _, p := range pts[1:] {
				if !(p.X > 0 && p.X < 10 && p.Y == 0) {
					t.Errorf("%s: marched to %v, off the open border", c.name, p)
				}
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("MarchBorder did not return within 5 s")
	}
}

func TestInitialQuadrants(t *testing.T) {
	quads, err := InitialQuadrants(nb, ff, uniform(1.0))
	if err != nil {
		t.Fatal(err)
	}
	totalArea := 0.0
	for i, q := range quads {
		if a := q.Area(); a <= 0 {
			t.Errorf("quadrant %d not CCW (area %v)", i, a)
		}
		totalArea += q.Area()
		if len(q.Border) < 8 {
			t.Errorf("quadrant %d border has only %d points", i, len(q.Border))
		}
		// Corners must index valid border positions.
		for _, c := range q.Corners {
			if c < 0 || c >= len(q.Border) {
				t.Fatalf("quadrant %d corner index %d out of range", i, c)
			}
		}
	}
	want := ff.Width()*ff.Height() - nb.Width()*nb.Height()
	if math.Abs(totalArea-want) > 1e-9*want {
		t.Errorf("quadrant areas sum to %v, want %v", totalArea, want)
	}
}

func TestInitialQuadrantsBadBoxes(t *testing.T) {
	if _, err := InitialQuadrants(ff, nb, uniform(1)); err == nil {
		t.Error("near-body outside far field must fail")
	}
}

// sharedPoints returns how many border points of a appear in b.
func sharedPoints(a, b *Region) int {
	set := map[geom.Point]bool{}
	for _, p := range a.Border {
		set[p] = true
	}
	n := 0
	for _, p := range b.Border {
		if set[p] {
			n++
		}
	}
	return n
}

func TestQuadrantSharedBordersIdentical(t *testing.T) {
	quads, err := InitialQuadrants(nb, ff, uniform(1.0))
	if err != nil {
		t.Fatal(err)
	}
	// Adjacent quadrants share a full diagonal discretization.
	for i := 0; i < 4; i++ {
		j := (i + 1) % 4
		if n := sharedPoints(quads[i], quads[j]); n < 3 {
			t.Errorf("quadrants %d and %d share only %d points", i, j, n)
		}
	}
}

func TestSplitPlus(t *testing.T) {
	quads, err := InitialQuadrants(nb, ff, uniform(0.5))
	if err != nil {
		t.Fatal(err)
	}
	parent := quads[0]
	parentPts := map[geom.Point]bool{}
	for _, p := range parent.Border {
		parentPts[p] = true
	}
	children := parent.SplitPlus(uniform(0.5))
	if children == nil {
		t.Fatal("quadrant must be splittable")
	}
	if len(children) != 4 {
		t.Fatalf("children = %d", len(children))
	}
	var areaSum float64
	for i, c := range children {
		if a := c.Area(); a <= 0 {
			t.Fatalf("child %d not CCW (area %v)", i, a)
		}
		areaSum += c.Area()
		if c.Depth != parent.Depth+1 {
			t.Error("child depth")
		}
	}
	if math.Abs(areaSum-parent.Area()) > 1e-9*parent.Area() {
		t.Errorf("children areas %v != parent %v", areaSum, parent.Area())
	}
	// The parent's outer border is untouched: every parent border point
	// appears in exactly one or two children (two at the connection mids),
	// and no child point outside the parent's border is on the parent
	// border polygon's edges.
	for _, c := range children {
		for _, p := range c.Border {
			if parentPts[p] {
				continue
			}
			// New point: must be strictly interior to the parent polygon.
			loopPts := parent.Border
			if !pointInPolygon(p, loopPts) {
				t.Fatalf("new point %v not interior to the parent", p)
			}
		}
	}
}

func pointInPolygon(p geom.Point, poly []geom.Point) bool {
	inside := false
	n := len(poly)
	for i := 0; i < n; i++ {
		a, b := poly[i], poly[(i+1)%n]
		if (a.Y > p.Y) != (b.Y > p.Y) {
			t := (p.Y - a.Y) / (b.Y - a.Y)
			if a.X+t*(b.X-a.X) > p.X {
				inside = !inside
			}
		}
	}
	return inside
}

func TestDecoupleToCount(t *testing.T) {
	quads, err := InitialQuadrants(nb, ff, uniform(0.5))
	if err != nil {
		t.Fatal(err)
	}
	regions := Decouple(quads[:], uniform(0.5), 16)
	if len(regions) < 16 {
		t.Fatalf("decoupled into %d regions, want >= 16", len(regions))
	}
	var total float64
	for _, r := range regions {
		if r.Area() <= 0 {
			t.Fatal("non-CCW region")
		}
		total += r.Area()
	}
	want := ff.Width()*ff.Height() - nb.Width()*nb.Height()
	if math.Abs(total-want) > 1e-6*want {
		t.Errorf("areas sum to %v, want %v", total, want)
	}
}

func TestDecoupleBalancesCost(t *testing.T) {
	size := uniform(0.5)
	quads, err := InitialQuadrants(nb, ff, size)
	if err != nil {
		t.Fatal(err)
	}
	regions := Decouple(quads[:], size, 32)
	var costs []float64
	var sum float64
	for _, r := range regions {
		c := r.Cost(size)
		costs = append(costs, c)
		sum += c
	}
	mean := sum / float64(len(costs))
	// Splitting the largest first keeps the max within a small factor of
	// the mean ("each subdomain has roughly the same number of triangles").
	for _, c := range costs {
		if c > 4*mean {
			t.Errorf("cost %v more than 4x the mean %v", c, mean)
		}
	}
}

func TestRefineRegion(t *testing.T) {
	size := uniform(0.8)
	quads, err := InitialQuadrants(nb, ff, size)
	if err != nil {
		t.Fatal(err)
	}
	frame := ff
	res, err := quads[0].Refine(size, frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triangles) < 10 {
		t.Fatalf("refined quadrant has %d triangles", len(res.Triangles))
	}
	var area float64
	for _, tri := range res.Triangles {
		area += math.Abs(geom.TriangleArea(res.Points[tri[0]], res.Points[tri[1]], res.Points[tri[2]]))
	}
	if math.Abs(area-quads[0].Area()) > 1e-6*quads[0].Area() {
		t.Errorf("refined area %v != region area %v", area, quads[0].Area())
	}
}

// TestDecouplingPreservesBorders is the core decoupling guarantee: after
// independent refinement, no Steiner point lies on a shared border (the
// borders were discretized so they are never encroached or split).
func TestDecouplingPreservesBorders(t *testing.T) {
	size := uniform(0.8)
	quads, err := InitialQuadrants(nb, ff, size)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range quads {
		res, err := q.Refine(size, ff)
		if err != nil {
			t.Fatal(err)
		}
		borderSet := map[geom.Point]bool{}
		for _, p := range q.Border {
			borderSet[p] = true
		}
		// Any result point on a border segment must be an original border
		// point.
		n := len(q.Border)
		for _, p := range res.Points {
			if borderSet[p] {
				continue
			}
			for i := 0; i < n; i++ {
				s := geom.Segment{A: q.Border[i], B: q.Border[(i+1)%n]}
				if geom.PointSegDist(p, s) < 1e-12 {
					t.Fatalf("quadrant %d: refinement split border segment %d at %v", qi, i, p)
				}
			}
		}
	}
}

// TestCrossBorderDelaunay merges two adjacent refined quadrants and checks
// the global Delaunay property across the shared border: for every
// triangle, no vertex of the other subdomain near the border lies strictly
// inside its circumcircle.
func TestCrossBorderDelaunay(t *testing.T) {
	size := uniform(1.2)
	quads, err := InitialQuadrants(nb, ff, size)
	if err != nil {
		t.Fatal(err)
	}
	res0, err := quads[0].Refine(size, ff)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := quads[1].Refine(size, ff)
	if err != nil {
		t.Fatal(err)
	}
	// Shared border points between quadrant 0 and 1.
	shared := map[geom.Point]bool{}
	set0 := map[geom.Point]bool{}
	for _, p := range quads[0].Border {
		set0[p] = true
	}
	for _, p := range quads[1].Border {
		if set0[p] {
			shared[p] = true
		}
	}
	if len(shared) < 3 {
		t.Fatal("no shared border found")
	}
	// For every triangle of res0 with a vertex on the shared border, no
	// point of res1 may lie strictly inside its circumcircle (and vice
	// versa). This is the decoupling guarantee that the union is globally
	// Delaunay.
	check := func(a, b *delaunay.Result) int {
		violations := 0
		for _, tri := range a.Triangles {
			pa, pb, pc := a.Points[tri[0]], a.Points[tri[1]], a.Points[tri[2]]
			touchesBorder := shared[pa] || shared[pb] || shared[pc]
			if !touchesBorder {
				continue
			}
			cc := geom.Circumcenter(pa, pb, pc)
			r := cc.Dist(pa)
			for _, q := range b.Points {
				if q == pa || q == pb || q == pc {
					continue
				}
				if cc.Dist(q) < r*(1-1e-9) {
					violations++
					break
				}
			}
		}
		return violations
	}
	if v := check(res0, res1); v > 0 {
		t.Errorf("%d triangles of quadrant 0 have quadrant-1 points inside their circumcircles", v)
	}
	if v := check(res1, res0); v > 0 {
		t.Errorf("%d triangles of quadrant 1 have quadrant-0 points inside their circumcircles", v)
	}
}

func BenchmarkDecouple64(b *testing.B) {
	size := uniform(0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		quads, err := InitialQuadrants(nb, ff, size)
		if err != nil {
			b.Fatal(err)
		}
		Decouple(quads[:], size, 64)
	}
}

func BenchmarkRefineQuadrant(b *testing.B) {
	size := uniform(0.5)
	quads, err := InitialQuadrants(nb, ff, size)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := quads[0].Refine(size, ff); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPlusJunctionConformity refines the four children of one '+' split
// independently and checks conformity and the cross-border Delaunay
// property at the junction point and along the arms.
func TestPlusJunctionConformity(t *testing.T) {
	size := uniform(0.9)
	quads, err := InitialQuadrants(nb, ff, size)
	if err != nil {
		t.Fatal(err)
	}
	children := quads[0].SplitPlus(size)
	if children == nil {
		t.Fatal("quadrant must split")
	}
	var results []*delaunay.Result
	for i, c := range children {
		res, err := c.Refine(size, ff)
		if err != nil {
			t.Fatalf("child %d: %v", i, err)
		}
		results = append(results, res)
	}
	// Conformity: points on shared borders appear identically in both
	// neighbors. Collect per-child point sets and check each child's
	// border points against the union of the others.
	pointSets := make([]map[geom.Point]bool, len(children))
	for i, res := range results {
		pointSets[i] = map[geom.Point]bool{}
		for _, p := range res.Points {
			pointSets[i][p] = true
		}
	}
	for i, c := range children {
		for _, p := range c.Border {
			if !pointSets[i][p] {
				t.Fatalf("child %d lost its own border point %v", i, p)
			}
		}
	}
	// Global Delaunay across each pair of children (the '+' arms).
	for i := 0; i < len(results); i++ {
		for j := i + 1; j < len(results); j++ {
			for _, tri := range results[i].Triangles {
				pa := results[i].Points[tri[0]]
				pb := results[i].Points[tri[1]]
				pc := results[i].Points[tri[2]]
				cc := geom.Circumcenter(pa, pb, pc)
				r := cc.Dist(pa)
				for _, q := range results[j].Points {
					if q == pa || q == pb || q == pc {
						continue
					}
					if cc.Dist(q) < r*(1-1e-9) {
						t.Fatalf("child %d triangle has child-%d point %v inside its circumcircle", i, j, q)
					}
				}
			}
		}
	}
}
