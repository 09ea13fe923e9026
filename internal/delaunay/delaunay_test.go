package delaunay

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pamg2d/internal/geom"
)

// buildPlain triangulates a raw point set (no constraints) and returns the
// live triangulation for invariant checks.
func buildPlain(t *testing.T, pts []geom.Point) *Triangulation {
	t.Helper()
	tr := New(geom.BBoxOf(pts))
	for i, p := range pts {
		if _, err := tr.InsertPoint(p); err != nil && err != ErrDuplicate {
			t.Fatalf("insert %d %v: %v", i, p, err)
		}
	}
	return tr
}

func TestInsertSinglePoint(t *testing.T) {
	tr := New(geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)})
	v, err := tr.InsertPoint(geom.Pt(0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if v != 4 {
		t.Errorf("vertex index = %d, want 4 (after four corners)", v)
	}
	if err := tr.CheckDelaunay(true); err != nil {
		t.Fatal(err)
	}
	// 2 seed triangles split into a fan: the cavity around a point inside
	// one triangle has at least 3 boundary edges.
	if n := tr.LiveTriangles(); n < 4 {
		t.Errorf("live triangles = %d, want >= 4", n)
	}
}

func TestInsertDuplicate(t *testing.T) {
	tr := New(geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)})
	v1, err := tr.InsertPoint(geom.Pt(0.25, 0.75))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := tr.InsertPoint(geom.Pt(0.25, 0.75))
	if err != ErrDuplicate {
		t.Fatalf("duplicate insert: err = %v, want ErrDuplicate", err)
	}
	if v1 != v2 {
		t.Errorf("duplicate returned %d, want %d", v2, v1)
	}
}

func TestInsertOnEdge(t *testing.T) {
	tr := New(geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(4, 4)})
	a, _ := tr.InsertPoint(geom.Pt(1, 1))
	b, _ := tr.InsertPoint(geom.Pt(3, 3))
	_ = a
	_ = b
	// The midpoint (2,2) lies exactly on edge (1,1)-(3,3) if that edge
	// exists; either way insertion must keep the structure valid.
	if _, err := tr.InsertPoint(geom.Pt(2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckDelaunay(true); err != nil {
		t.Fatal(err)
	}
}

func TestGridDelaunayInvariant(t *testing.T) {
	var pts []geom.Point
	for i := 0; i <= 6; i++ {
		for j := 0; j <= 6; j++ {
			pts = append(pts, geom.Pt(float64(i), float64(j)))
		}
	}
	tr := buildPlain(t, pts)
	if err := tr.CheckDelaunay(true); err != nil {
		t.Fatal(err)
	}
}

func TestCocircularGrid(t *testing.T) {
	// A perfect grid has massively cocircular quadruples; the kernel must
	// produce some valid triangulation without violating invariants.
	var pts []geom.Point
	for i := 0; i <= 10; i++ {
		for j := 0; j <= 10; j++ {
			pts = append(pts, geom.Pt(float64(i), float64(j)))
		}
	}
	tr := buildPlain(t, pts)
	if err := tr.CheckDelaunay(false); err != nil {
		t.Fatal(err)
	}
}

func TestRandomDelaunayProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 60
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*10, rng.Float64()*10)
		}
		tr := New(geom.BBoxOf(pts))
		for _, p := range pts {
			if _, err := tr.InsertPoint(p); err != nil && err != ErrDuplicate {
				return false
			}
		}
		return tr.CheckDelaunay(true) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCollinearInput(t *testing.T) {
	pts := []geom.Point{}
	for i := 0; i < 20; i++ {
		pts = append(pts, geom.Pt(float64(i), 2))
	}
	tr := buildPlain(t, pts)
	if err := tr.CheckDelaunay(true); err != nil {
		t.Fatal(err)
	}
}

func TestTriangulateSquare(t *testing.T) {
	in := Input{
		Points:   []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)},
		Segments: [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	}
	res, err := Triangulate(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triangles) != 2 {
		t.Errorf("square: %d triangles, want 2", len(res.Triangles))
	}
	if len(res.Points) != 4 {
		t.Errorf("square: %d points, want 4", len(res.Points))
	}
	checkResult(t, res)
}

// checkResult validates CCW orientation, no duplicate triangles, and area
// conservation against the polygon the constrained edges bound.
func checkResult(t *testing.T, res *Result) {
	t.Helper()
	seen := map[[3]int32]bool{}
	for i, tri := range res.Triangles {
		a, b, c := res.Points[tri[0]], res.Points[tri[1]], res.Points[tri[2]]
		if geom.Orient2DSign(a, b, c) <= 0 {
			t.Fatalf("triangle %d not CCW", i)
		}
		key := tri
		if seen[key] {
			t.Fatalf("duplicate triangle %v", tri)
		}
		seen[key] = true
	}
}

func meshArea(res *Result) float64 {
	var sum float64
	for _, tri := range res.Triangles {
		sum += math.Abs(geom.TriangleArea(res.Points[tri[0]], res.Points[tri[1]], res.Points[tri[2]]))
	}
	return sum
}

func TestTriangulateConcavePolygon(t *testing.T) {
	// An L-shaped (concave) domain: exterior carving must remove the
	// notch.
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 2), geom.Pt(2, 2), geom.Pt(2, 4), geom.Pt(0, 4),
	}
	segs := [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}
	res, err := Triangulate(Input{Points: pts, Segments: segs})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
	if got, want := meshArea(res), 12.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("L-shape area = %v, want %v", got, want)
	}
}

func TestTriangulateWithHole(t *testing.T) {
	// Outer square [0,4]^2 with inner square hole [1,3]^2.
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4),
		geom.Pt(1, 1), geom.Pt(3, 1), geom.Pt(3, 3), geom.Pt(1, 3),
	}
	segs := [][2]int32{
		{0, 1}, {1, 2}, {2, 3}, {3, 0},
		{4, 5}, {5, 6}, {6, 7}, {7, 4},
	}
	res, err := Triangulate(Input{Points: pts, Segments: segs, Holes: []geom.Point{geom.Pt(2, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
	if got, want := meshArea(res), 16.0-4.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("holed square area = %v, want %v", got, want)
	}
}

func TestSegmentThroughInterior(t *testing.T) {
	// Force a diagonal through a point cloud; it must exist afterwards.
	rng := rand.New(rand.NewSource(5))
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 10)}
	for i := 0; i < 200; i++ {
		pts = append(pts, geom.Pt(rng.Float64()*10, rng.Float64()*10))
	}
	tr := New(geom.BBoxOf(pts))
	ids := make([]int32, len(pts))
	for i, p := range pts {
		v, err := tr.InsertPoint(p)
		if err != nil && err != ErrDuplicate {
			t.Fatal(err)
		}
		ids[i] = v
	}
	if err := tr.InsertSegment(ids[0], ids[1]); err != nil {
		t.Fatal(err)
	}
	if ti, e := tr.findEdge(ids[0], ids[1]); ti == invalid {
		// The segment may have been split at collinear vertices; verify
		// a constrained path from ids[0] to ids[1] along the line exists.
		if !constrainedPathExists(tr, ids[0], ids[1]) {
			t.Fatal("constrained segment missing after insertion")
		}
	} else if !tr.tris[ti].C[e] {
		t.Fatal("edge present but not constrained")
	}
	if err := tr.CheckDelaunay(false); err != nil {
		t.Fatal(err)
	}
}

// constrainedPathExists walks constrained edges collinear with (a, b) from
// a to b.
func constrainedPathExists(tr *Triangulation, a, b int32) bool {
	pa, pb := tr.pts[a], tr.pts[b]
	cur := a
	for steps := 0; steps < 10000; steps++ {
		if cur == b {
			return true
		}
		next := invalid
		tr.visitStar(cur, func(ti int32) bool {
			trr := tr.tris[ti]
			for e := int32(0); e < 3; e++ {
				if trr.V[e] != cur || !trr.C[e] {
					continue
				}
				cand := trr.V[(e+1)%3]
				p := tr.pts[cand]
				if geom.Orient2DSign(pa, pb, p) != 0 {
					continue
				}
				// Progress toward b?
				if (p.X-tr.pts[cur].X)*(pb.X-pa.X)+(p.Y-tr.pts[cur].Y)*(pb.Y-pa.Y) > 0 {
					next = cand
					return false
				}
			}
			return true
		})
		if next == invalid {
			return false
		}
		cur = next
	}
	return false
}

func TestSegmentCrossingConstraintFails(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(4, 4), geom.Pt(0, 4), geom.Pt(4, 0),
	}
	tr := New(geom.BBoxOf(pts))
	ids := make([]int32, len(pts))
	for i, p := range pts {
		ids[i], _ = tr.InsertPoint(p)
	}
	if err := tr.InsertSegment(ids[0], ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := tr.InsertSegment(ids[2], ids[3]); err == nil {
		t.Fatal("crossing constrained segments must fail")
	}
}

func TestTriangulateErrors(t *testing.T) {
	if _, err := Triangulate(Input{Points: []geom.Point{geom.Pt(0, 0)}}); err == nil {
		t.Error("too few points must fail")
	}
}

func TestExtractOnlyInterior(t *testing.T) {
	// After carving a square domain, no frame-corner vertex may appear in
	// the result.
	in := Input{
		Points:   []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)},
		Segments: [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	}
	res, err := Triangulate(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
			t.Errorf("point %v outside the domain", p)
		}
	}
}

// TestExtractNeighborsMatchesSharedEdges: ExtractNeighbors returns
// Extract's result, and names across each edge exactly the result
// triangle holding the reversed edge, or -1 when none does — on a point
// cloud and on a carved square with a hole.
func TestExtractNeighborsMatchesSharedEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cloud := Input{Frame: geom.BBox{Min: geom.Pt(-1, -1), Max: geom.Pt(2, 2)}}
	for i := 0; i < 300; i++ {
		cloud.Points = append(cloud.Points, geom.Pt(rng.Float64(), rng.Float64()))
	}
	holed := Input{
		Points: []geom.Point{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4),
			geom.Pt(1, 1), geom.Pt(3, 1), geom.Pt(3, 3), geom.Pt(1, 3), geom.Pt(0.5, 2), geom.Pt(3.5, 0.5)},
		Segments: [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}, {6, 7}, {7, 4}},
		Holes:    []geom.Point{geom.Pt(2, 2)},
	}
	for _, in := range []Input{cloud, holed} {
		tr, err := Build(in)
		if err != nil {
			t.Fatal(err)
		}
		res, nb := tr.ExtractNeighbors()
		if want := tr.Extract(); !slices.Equal(res.Points, want.Points) || !slices.Equal(res.Triangles, want.Triangles) {
			t.Fatal("ExtractNeighbors' result differs from Extract's")
		}
		owner := make(map[[2]int32]int32)
		for i, tri := range res.Triangles {
			for e := 0; e < 3; e++ {
				owner[[2]int32{tri[e], tri[(e+1)%3]}] = int32(i)
			}
		}
		if len(nb) != len(res.Triangles) {
			t.Fatalf("%d neighbour triples for %d triangles", len(nb), len(res.Triangles))
		}
		open := 0
		for i, tri := range res.Triangles {
			for e := 0; e < 3; e++ {
				want, ok := owner[[2]int32{tri[(e+1)%3], tri[e]}]
				if !ok {
					want = -1
					open++
				}
				if nb[i][e] != want {
					t.Errorf("triangle %d edge %d: neighbour %d, want %d", i, e, nb[i][e], want)
				}
			}
		}
		if open == 0 {
			t.Error("no triangle edge without a neighbour")
		}
	}
}

func TestRefineQuality(t *testing.T) {
	// A long thin rectangle refined with a quality bound: every interior
	// triangle must meet the circumradius-to-shortest-edge bound.
	in := Input{
		Points:   []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 1), geom.Pt(0, 1)},
		Segments: [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	}
	res, err := TriangulateRefined(in, Quality{MaxRadiusEdgeRatio: math.Sqrt2, MaxArea: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
	if math.Abs(meshArea(res)-10) > 1e-6 {
		t.Errorf("refined area = %v, want 10", meshArea(res))
	}
	worst := 0.0
	for _, tri := range res.Triangles {
		a, b, c := res.Points[tri[0]], res.Points[tri[1]], res.Points[tri[2]]
		if r := geom.CircumradiusToShortestEdge(a, b, c); r > worst {
			worst = r
		}
		if area := math.Abs(geom.TriangleArea(a, b, c)); area > 0.2+1e-9 {
			t.Errorf("triangle area %v exceeds bound", area)
		}
	}
	if worst > math.Sqrt2+1e-9 {
		t.Errorf("worst radius-edge ratio %v exceeds sqrt(2)", worst)
	}
	if len(res.Triangles) < 60 {
		t.Errorf("refinement made only %d triangles; expected >= 60 for area 10 at max 0.2", len(res.Triangles))
	}
}

func TestRefineSizingFunction(t *testing.T) {
	// Sizing that demands tiny triangles near the origin corner and large
	// ones far away.
	in := Input{
		Points:   []geom.Point{geom.Pt(0, 0), geom.Pt(8, 0), geom.Pt(8, 8), geom.Pt(0, 8)},
		Segments: [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	}
	size := func(p geom.Point) float64 {
		d := math.Hypot(p.X, p.Y)
		return 0.01 + 0.05*d*d
	}
	res, err := TriangulateRefined(in, Quality{MaxRadiusEdgeRatio: math.Sqrt2, SizeAt: size})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
	// Triangles near the origin must be smaller than triangles near the
	// far corner on average.
	var nearSum, nearN, farSum, farN float64
	for _, tri := range res.Triangles {
		a, b, c := res.Points[tri[0]], res.Points[tri[1]], res.Points[tri[2]]
		cx, cy := (a.X+b.X+c.X)/3, (a.Y+b.Y+c.Y)/3
		area := math.Abs(geom.TriangleArea(a, b, c))
		if d := math.Hypot(cx, cy); d < 2 {
			nearSum += area
			nearN++
		} else if d > 8 {
			farSum += area
			farN++
		}
	}
	if nearN == 0 || farN == 0 {
		t.Fatal("sampling regions empty")
	}
	if nearSum/nearN >= farSum/farN {
		t.Errorf("graded sizing failed: near avg %v >= far avg %v", nearSum/nearN, farSum/farN)
	}
}

func TestRefineHoleDomain(t *testing.T) {
	// Refinement must not fill the hole back in.
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(6, 0), geom.Pt(6, 6), geom.Pt(0, 6),
		geom.Pt(2, 2), geom.Pt(4, 2), geom.Pt(4, 4), geom.Pt(2, 4),
	}
	segs := [][2]int32{
		{0, 1}, {1, 2}, {2, 3}, {3, 0},
		{4, 5}, {5, 6}, {6, 7}, {7, 4},
	}
	res, err := TriangulateRefined(
		Input{Points: pts, Segments: segs, Holes: []geom.Point{geom.Pt(3, 3)}},
		Quality{MaxRadiusEdgeRatio: math.Sqrt2, MaxArea: 0.5},
	)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
	if got, want := meshArea(res), 36.0-4.0; math.Abs(got-want) > 1e-6 {
		t.Errorf("area = %v, want %v", got, want)
	}
	for _, tri := range res.Triangles {
		a, b, c := res.Points[tri[0]], res.Points[tri[1]], res.Points[tri[2]]
		cx, cy := (a.X+b.X+c.X)/3, (a.Y+b.Y+c.Y)/3
		if cx > 2 && cx < 4 && cy > 2 && cy < 4 {
			t.Fatalf("triangle centroid (%v,%v) inside the hole", cx, cy)
		}
	}
}

func TestRefineMaxPoints(t *testing.T) {
	in := Input{
		Points:   []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)},
		Segments: [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	}
	_, err := TriangulateRefined(in, Quality{MaxArea: 1e-7, MaxPoints: 50})
	if err == nil {
		t.Error("MaxPoints cap must abort runaway refinement")
	}
}

func TestResultConstrainedFlags(t *testing.T) {
	in := Input{
		Points:   []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)},
		Segments: [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	}
	res, err := Triangulate(in)
	if err != nil {
		t.Fatal(err)
	}
	// Every border edge must be flagged; the one interior diagonal not.
	nConstrained := 0
	for i := range res.Triangles {
		for e := 0; e < 3; e++ {
			if res.Constrained[i][e] {
				nConstrained++
			}
		}
	}
	if nConstrained != 4 {
		t.Errorf("constrained edge flags = %d, want 4", nConstrained)
	}
}

func BenchmarkInsertRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 5000)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	bb := geom.BBoxOf(pts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New(bb)
		for _, p := range pts {
			tr.InsertPoint(p)
		}
	}
}

func BenchmarkTriangulateSorted(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 5000)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Triangulate(Input{Points: pts}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRefineUnitSquare(b *testing.B) {
	in := Input{
		Points:   []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)},
		Segments: [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TriangulateRefined(in, Quality{MaxRadiusEdgeRatio: math.Sqrt2, MaxArea: 1e-3}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWalkVisibleStepLimit: a walk that runs out of steps reports no
// blocking edge, and splitTri leaves the triangle alone. The triangle's
// exit edge is its own neighbour, so the walk toward its circumcenter,
// (2, -1.5) below that edge, never ends; splitTri used to index the
// triangle's vertices with the walk's -1 and panic.
func TestWalkVisibleStepLimit(t *testing.T) {
	tri := &Triangulation{
		pts:  []geom.Point{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(2, 1)},
		tris: []Tri{{V: [3]int32{0, 1, 2}, N: [3]int32{0, invalid, invalid}}},
	}
	cc := geom.Circumcenter(tri.pts[0], tri.pts[1], tri.pts[2])
	if end, e, reached, inside := tri.walkVisible(0, cc); end != invalid || e != -1 || reached || inside {
		t.Fatalf("walkVisible = %d, %d, %v, %v; want invalid, -1, false, false", end, e, reached, inside)
	}
	r := &refiner{t: tri, q: Quality{MaxRadiusEdgeRatio: math.Sqrt2}, minLen: 1e-9, star: invalid}
	r.splitTri(0)
	if len(tri.pts) != 3 || len(tri.tris) != 1 || len(r.segs) != 0 || len(r.tris) != 0 {
		t.Errorf("splitTri changed the triangulation or queued work: %d points, %d triangles, %d segments, %d triangles queued",
			len(tri.pts), len(tri.tris), len(r.segs), len(r.tris))
	}
}

// TestRefineAsksSizeAtMostOncePerTestedTriangle pins how often refinement
// asks the sizing function: at most once per triangle it tests for the
// queue, plus once per inserted vertex when a slope is declared. A
// triangle is tested when it is queued (considerTri) and split on that
// answer when it is popped: its three points never move, so the pop checks
// only that it still exists. The size test runs after the quality test,
// so a triangle that fails the quality bound asks nothing; with the size
// test first and a re-check at every pop the two regions below cost 2,446
// and 3,026 calls, and with the size test first alone 2,048 and 2,635.
// A declared slope lets the star of each new
// vertex be settled from one query at the vertex. A changed call pattern
// fails on the count; a changed mesh fails on the sizes, and on the
// comparison across counted, uncounted, slope-free and sloped runs.
func TestRefineAsksSizeAtMostOncePerTestedTriangle(t *testing.T) {
	// √size = 0.1·√(0.2 + d²) has slope 0.1 in d = |p|, hence in p.
	size := func(p geom.Point) float64 {
		d := math.Hypot(p.X, p.Y)
		return 0.002 + 0.01*d*d
	}
	const slope = 0.1
	coarse := Input{
		Points:   []geom.Point{geom.Pt(0, 0), geom.Pt(8, 0), geom.Pt(8, 8), geom.Pt(0, 8)},
		Segments: [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	}
	// The pipeline's case: a border discretised beforehand and never split.
	var marched Input
	const perSide = 32
	for side, from := range coarse.Points {
		to := coarse.Points[(side+1)%4]
		for i := 0; i < perSide; i++ {
			s := float64(i) / perSide
			marched.Points = append(marched.Points, geom.Pt(from.X+s*(to.X-from.X), from.Y+s*(to.Y-from.Y)))
		}
	}
	for i := range marched.Points {
		marched.Segments = append(marched.Segments, [2]int32{int32(i), int32((i + 1) % len(marched.Points))})
	}
	for _, c := range []struct {
		name              string
		in                Input
		noSplit           bool
		calls, slopeCalls int
		points, triangles int
	}{
		{"segments split", coarse, false, 1993, 841, 402, 725},
		{"segments kept (-Y)", marched, true, 1998, 688, 497, 864},
	} {
		plain := Quality{MaxRadiusEdgeRatio: math.Sqrt2, NoSplitSegments: c.noSplit, SizeAt: size}
		want, err := TriangulateRefined(c.in, plain)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, s := range []float64{0, slope} {
			calls := 0
			counted := plain
			counted.SizeAt = func(p geom.Point) float64 { calls++; return size(p) }
			counted.SizeSlope = s
			got, err := TriangulateRefined(c.in, counted)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			wantCalls := c.calls
			if s > 0 {
				wantCalls = c.slopeCalls
			}
			if calls != wantCalls || len(got.Points) != c.points || len(got.Triangles) != c.triangles {
				t.Errorf("%s, slope %v: %d SizeAt calls for %d points, %d triangles; want %d for %d, %d",
					c.name, s, calls, len(got.Points), len(got.Triangles), wantCalls, c.points, c.triangles)
			}
			if !slices.Equal(got.Points, want.Points) || !slices.Equal(got.Triangles, want.Triangles) {
				t.Errorf("%s, slope %v: the mesh differs from the uncounted slope-free refinement", c.name, s)
			}
		}
	}
}
