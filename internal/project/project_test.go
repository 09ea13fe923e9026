package project

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
)

func randPts(seed int64, n int) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*10, rng.Float64()*10)
	}
	return pts
}

func TestNewSortedInvariants(t *testing.T) {
	s := New(randPts(1, 200))
	for i := 1; i < len(s.XS); i++ {
		if geom.Compare(s.XS[i].P, s.XS[i-1].P) < 0 {
			t.Fatal("XS not sorted")
		}
	}
	for i := 1; i < len(s.YS); i++ {
		if geom.CompareYX(s.YS[i].P, s.YS[i-1].P) < 0 {
			t.Fatal("YS not sorted")
		}
	}
	if s.Len() != 200 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestNewDedups(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(1, 1), geom.Pt(2, 2)}
	s := New(pts)
	if s.Len() != 2 {
		t.Errorf("dedup: Len = %d, want 2", s.Len())
	}
}

// TestNewKeepsFirstDuplicate: of the points equal to one another, the
// root keeps the first in input order, on clouds dense in duplicates.
func TestNewKeepsFirstDuplicate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		pts := make([]geom.Point, 50+rng.Intn(401))
		first := map[geom.Point]int32{}
		for i := range pts {
			pts[i] = geom.Pt(float64(rng.Intn(6)), float64(rng.Intn(6)))
			if _, ok := first[pts[i]]; !ok {
				first[pts[i]] = int32(i)
			}
		}
		s := New(pts)
		if s.Len() != len(first) {
			t.Fatalf("trial %d: %d vertices, want %d distinct points", trial, s.Len(), len(first))
		}
		for _, v := range s.XS {
			if v.ID != first[v.P] {
				t.Fatalf("trial %d: point %v kept as id %d, first is id %d", trial, v.P, v.ID, first[v.P])
			}
		}
	}
}

func TestBBoxO1(t *testing.T) {
	pts := randPts(2, 500)
	s := New(pts)
	want := geom.BBoxOf(pts)
	if got := s.BBox(); got != want {
		t.Errorf("BBox = %+v, want %+v", got, want)
	}
}

func TestCutAxisChoice(t *testing.T) {
	// Wide box: cut with vertical line.
	wide := New([]geom.Point{geom.Pt(0, 0), geom.Pt(10, 1), geom.Pt(5, 0.5), geom.Pt(2, 0.2)})
	if !wide.CutVertical() {
		t.Error("wide box must cut vertically")
	}
	tall := New([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 10), geom.Pt(0.5, 5), geom.Pt(0.1, 3)})
	if tall.CutVertical() {
		t.Error("tall box must cut horizontally")
	}
}

func TestSplitPreservesMultiset(t *testing.T) {
	pts := randPts(3, 301)
	s := New(pts)
	n := s.Len()
	l, r, path := s.Split()
	if len(path) == 0 {
		t.Fatal("no dividing path")
	}
	// Hull vertices are duplicated; total = n + len(hull dupes).
	dupes := 0
	seen := map[int32]int{}
	for _, v := range l.XS {
		seen[v.ID]++
	}
	for _, v := range r.XS {
		seen[v.ID]++
	}
	for _, c := range seen {
		if c == 2 {
			dupes++
		} else if c != 1 {
			t.Fatalf("vertex appears %d times", c)
		}
	}
	if len(seen) != n {
		t.Errorf("union covers %d of %d vertices", len(seen), n)
	}
	if dupes == 0 {
		t.Error("hull vertices must appear in both halves")
	}
	// Sorted invariants hold in both halves.
	for _, sd := range []*Subdomain{l, r} {
		for i := 1; i < len(sd.XS); i++ {
			if geom.Compare(sd.XS[i].P, sd.XS[i-1].P) < 0 {
				t.Fatal("child XS not sorted")
			}
		}
		for i := 1; i < len(sd.YS); i++ {
			if geom.CompareYX(sd.YS[i].P, sd.YS[i-1].P) < 0 {
				t.Fatal("child YS not sorted")
			}
		}
		if len(sd.XS) != len(sd.YS) {
			t.Fatal("XS and YS lengths differ")
		}
	}
}

// dtEdges returns the set of undirected edges of the Delaunay
// triangulation of pts, keyed by point coordinates.
func dtEdges(t *testing.T, pts []geom.Point) map[[4]float64]bool {
	t.Helper()
	res, err := delaunay.Triangulate(delaunay.Input{Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	edges := map[[4]float64]bool{}
	for _, tri := range res.Triangles {
		for e := 0; e < 3; e++ {
			a := res.Points[tri[e]]
			b := res.Points[tri[(e+1)%3]]
			edges[edgeKey(a, b)] = true
		}
	}
	return edges
}

func edgeKey(a, b geom.Point) [4]float64 {
	if a.X > b.X || (a.X == b.X && a.Y > b.Y) {
		a, b = b, a
	}
	return [4]float64{a.X, a.Y, b.X, b.Y}
}

// TestDividingPathEdgesAreDelaunay is the Figure 6/7 property: every edge
// of the dividing path must be an edge of the Delaunay triangulation of
// the full point set.
func TestDividingPathEdgesAreDelaunay(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		pts := randPts(seed, 120)
		edges := dtEdges(t, pts)
		s := New(pts)
		_, _, path := s.Split()
		if len(path) < 2 {
			t.Fatal("path too short")
		}
		for _, pe := range path {
			if !edges[edgeKey(pe.A.P, pe.B.P)] {
				t.Fatalf("seed %d: path edge %v-%v not a Delaunay edge", seed, pe.A.P, pe.B.P)
			}
		}
	}
}

// TestMergedTriangulationExact reconstructs the full Delaunay
// triangulation from independently triangulated leaves via the
// circumcenter-region rule and compares it with the direct triangulation.
func TestMergedTriangulationExact(t *testing.T) {
	for seed := int64(10); seed < 13; seed++ {
		pts := randPts(seed, 400)
		frame := geom.BBoxOf(pts)
		leaves, _ := Decompose(New(pts), Options{MinVerts: 40})
		if len(leaves) < 4 {
			t.Fatalf("seed %d: only %d leaves", seed, len(leaves))
		}
		var merged []triKey
		for _, leaf := range leaves {
			res, err := delaunay.Triangulate(delaunay.Input{Points: leaf.Points(), Frame: frame})
			if err != nil {
				t.Fatal(err)
			}
			for _, tri := range res.Triangles {
				a, b, c := res.Points[tri[0]], res.Points[tri[1]], res.Points[tri[2]]
				cc := geom.Circumcenter(a, b, c)
				if leaf.Region.Contains(cc) {
					merged = append(merged, canonTri(a, b, c))
				}
			}
		}
		// Direct triangulation with the same frame.
		res, err := delaunay.Triangulate(delaunay.Input{Points: pts, Frame: frame})
		if err != nil {
			t.Fatal(err)
		}
		var direct []triKey
		for _, tri := range res.Triangles {
			direct = append(direct, canonTri(res.Points[tri[0]], res.Points[tri[1]], res.Points[tri[2]]))
		}
		sortTris(merged)
		sortTris(direct)
		if len(merged) != len(direct) {
			t.Fatalf("seed %d: merged %d triangles, direct %d", seed, len(merged), len(direct))
		}
		for i := range merged {
			if merged[i] != direct[i] {
				t.Fatalf("seed %d: triangle %d differs: %v vs %v", seed, i, merged[i], direct[i])
			}
		}
	}
}

type triKey = [6]float64

func canonTri(a, b, c geom.Point) triKey {
	ps := []geom.Point{a, b, c}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].X != ps[j].X {
			return ps[i].X < ps[j].X
		}
		return ps[i].Y < ps[j].Y
	})
	return triKey{ps[0].X, ps[0].Y, ps[1].X, ps[1].Y, ps[2].X, ps[2].Y}
}

func sortTris(ts []triKey) {
	sort.Slice(ts, func(i, j int) bool {
		for k := 0; k < 6; k++ {
			if ts[i][k] != ts[j][k] {
				return ts[i][k] < ts[j][k]
			}
		}
		return false
	})
}

func TestDecomposeLeafCount(t *testing.T) {
	pts := randPts(7, 1<<13)
	// MaxDepth 7 yields up to 128 leaves (Figure 8: the boundary layer
	// decomposed into 128 independent Delaunay subdomains).
	leaves, paths := Decompose(New(pts), Options{MinVerts: 2, MaxDepth: 7})
	if len(leaves) != 128 {
		t.Errorf("leaves = %d, want 128", len(leaves))
	}
	if len(paths) == 0 {
		t.Error("no dividing paths recorded")
	}
}

func TestDecomposeMinVerts(t *testing.T) {
	pts := randPts(8, 1000)
	leaves, _ := Decompose(New(pts), Options{MinVerts: 100})
	for _, l := range leaves {
		// A leaf is either below the threshold or the result of splitting
		// a parent above it; parents above 2*threshold always split into
		// smaller halves, so leaves stay under ~threshold + hull dupes.
		if l.Len() >= 2*100+50 {
			t.Errorf("leaf with %d vertices; decomposition stopped too early", l.Len())
		}
	}
}

func TestDegenerateInputs(t *testing.T) {
	// All-collinear points.
	var pts []geom.Point
	for i := 0; i < 64; i++ {
		pts = append(pts, geom.Pt(float64(i), 0))
	}
	leaves, _ := Decompose(New(pts), Options{MinVerts: 8})
	total := 0
	for _, l := range leaves {
		total += l.Len()
	}
	if total < 64 {
		t.Errorf("collinear: leaves cover %d of 64 vertices", total)
	}
	// A single point and empty input must not crash.
	if l, _, _ := New([]geom.Point{geom.Pt(1, 1)}).Split(); l.Len() != 1 {
		t.Error("single-point split")
	}
	if s := New(nil); s.Len() != 0 {
		t.Error("empty input")
	}
}

func TestDropYSorted(t *testing.T) {
	s := New(randPts(9, 50))
	s.DropYSorted()
	if s.YS != nil {
		t.Error("DropYSorted must release the y-sorted array")
	}
	if len(s.Points()) != 50 {
		t.Error("Points must still work from XS")
	}
}

// Property: decomposition covers every vertex and keeps region ownership
// disjoint (each point belongs to exactly one region).
func TestRegionPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		pts := randPts(seed, 150)
		leaves, _ := Decompose(New(pts), Options{MinVerts: 20})
		for _, p := range pts {
			owners := 0
			for _, l := range leaves {
				if l.Region.Contains(p) {
					owners++
				}
			}
			if owners != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSplit(b *testing.B) {
	pts := randPts(1, 100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New(pts)
		b.StartTimer()
		s.Split()
	}
}

func BenchmarkDecompose128(b *testing.B) {
	pts := randPts(1, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New(pts)
		b.StartTimer()
		Decompose(s, Options{MinVerts: 2, MaxDepth: 7})
	}
}

func TestVertexSize(t *testing.T) {
	if n := unsafe.Sizeof(Vertex{}); n != 24 {
		t.Errorf("Vertex is %d bytes, want 24", n)
	}
}

// TestDecomposeAllocations: New and Decompose allocate per split and per
// store, never per vertex, so ten times the points cost no more
// allocations.
func TestDecomposeAllocations(t *testing.T) {
	allocs := func(n int) float64 {
		pts := randPts(11, n)
		return testing.AllocsPerRun(20, func() {
			Decompose(New(pts), Options{MinVerts: 2, MaxDepth: 3})
		})
	}
	if small, large := allocs(4000), allocs(40000); small != large {
		t.Errorf("%v allocations at 4k points, %v at 40k", small, large)
	}
}

// inOrder returns the identity order on n points.
func inOrder(n int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	return order
}

func TestLowerSortedSquare(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0, 1), geom.Pt(1, 0), geom.Pt(1, 1)}
	// The chain runs from the lexicographically smallest point (0,0) to the
	// largest (1,1), passing under the square via (1,0).
	h := lowerSorted(pts, inOrder(len(pts)), nil)
	want := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1)}
	if len(h) != len(want) {
		t.Fatalf("lower hull of square: got %d points, want %d", len(h), len(want))
	}
	for i, hi := range h {
		if pts[hi] != want[i] {
			t.Errorf("hull[%d] = %v, want %v", i, pts[hi], want[i])
		}
	}
}

func TestLowerSortedV(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 1), geom.Pt(1, 0), geom.Pt(2, 1)}
	if h := lowerSorted(pts, inOrder(3), nil); len(h) != 3 {
		t.Fatalf("V shape: got %d hull points, want 3", len(h))
	}
}

func TestLowerSortedCollinearRemoved(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0)}
	if h := lowerSorted(pts, inOrder(4), nil); len(h) != 2 {
		t.Fatalf("collinear points: got %d hull points, want 2 (endpoints)", len(h))
	}
}

// TestLowerSortedSmall: the chain of no point is empty, of one point that
// point, of two both; and it reads the points in the order given.
func TestLowerSortedSmall(t *testing.T) {
	if h := lowerSorted(nil, nil, nil); len(h) != 0 {
		t.Error("empty input must give an empty hull")
	}
	if h := lowerSorted([]geom.Point{geom.Pt(1, 1)}, inOrder(1), nil); len(h) != 1 || h[0] != 0 {
		t.Error("single point must give itself")
	}
	if h := lowerSorted([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}, inOrder(2), nil); len(h) != 2 {
		t.Error("two points must both be on the hull")
	}
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(0, 0), geom.Pt(1, 0)}
	if h := lowerSorted(pts, []int32{1, 2, 0}, nil); !slices.Equal(h, []int32{1, 2, 0}) {
		t.Errorf("hull through an order: got %v, want [1 2 0]", h)
	}
}

// Property: every input point lies on or above the lower hull chain
// (no point below), and hull vertices make strict left turns.
func TestLowerHullProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%100 + 3
		rng := rand.New(rand.NewSource(seed))
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(math.Round(rng.Float64()*100)/10, math.Round(rng.Float64()*100)/10)
		}
		slices.SortFunc(pts, geom.Compare)
		h := lowerSorted(pts, inOrder(n), nil)
		// Strict left turns along the hull.
		for i := 0; i+2 < len(h); i++ {
			if geom.Orient2DSign(pts[h[i]], pts[h[i+1]], pts[h[i+2]]) <= 0 {
				return false
			}
		}
		// No input point strictly below any hull edge.
		for i := 0; i+1 < len(h); i++ {
			a, b := pts[h[i]], pts[h[i+1]]
			for _, p := range pts {
				if p.X < a.X || p.X > b.X {
					continue
				}
				if geom.Orient2DSign(a, b, p) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLowerSorted(b *testing.B) {
	pts := randPts(1, 10000)
	slices.SortFunc(pts, geom.Compare)
	order := inOrder(len(pts))
	hullSink = make([]int32, 0, len(pts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hullSink = lowerSorted(pts, order, hullSink[:0])
	}
}

// hullSink keeps BenchmarkLowerSorted's result live.
var hullSink []int32
