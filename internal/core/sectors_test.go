package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"pamg2d/internal/decouple"
	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/project"
	"pamg2d/internal/sizing"
)

func TestChainSingleLoop(t *testing.T) {
	// A 4-cycle among the first 4 points, in scrambled segment order.
	segs := [][2]int32{{2, 3}, {0, 1}, {3, 0}, {1, 2}, {4, 5}}
	loop, ok := chainSingleLoop(segs, 4)
	if !ok {
		t.Fatal("4-cycle must chain")
	}
	if len(loop) != 4 {
		t.Fatalf("loop = %v", loop)
	}
	// Follow the successor relation around.
	for i := 0; i < 4; i++ {
		want := (loop[i] + 1) % 4
		if loop[(i+1)%4] != want {
			t.Fatalf("loop order broken: %v", loop)
		}
	}
}

func TestChainSingleLoopRejectsTwoLoops(t *testing.T) {
	segs := [][2]int32{{0, 1}, {1, 0}, {2, 3}, {3, 2}}
	if _, ok := chainSingleLoop(segs, 4); ok {
		t.Error("two loops must be rejected")
	}
}

func TestChainSingleLoopRejectsOpenChain(t *testing.T) {
	segs := [][2]int32{{0, 1}, {1, 2}}
	if _, ok := chainSingleLoop(segs, 3); ok {
		t.Error("open chain must be rejected")
	}
}

func TestChainSingleLoopRejectsDuplicateStart(t *testing.T) {
	segs := [][2]int32{{0, 1}, {0, 2}, {1, 2}}
	if _, ok := chainSingleLoop(segs, 3); ok {
		t.Error("vertex starting two segments must be rejected")
	}
}

func TestAngleDiff(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 0, 0},
		{math.Pi / 2, 0, math.Pi / 2},
		{-math.Pi + 0.1, math.Pi - 0.1, 0.2},
		{math.Pi - 0.1, -math.Pi + 0.1, -0.2},
	}
	for _, c := range cases {
		if got := angleDiff(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("angleDiff(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestTransitionSectorsOnRing(t *testing.T) {
	// Synthetic annulus: inner ring of 64 points (the "outer boundary"),
	// box ring of marched points. Sector decomposition must succeed and
	// tile the annulus.
	var in delaunay.Input
	nInner := 64
	for i := 0; i < nInner; i++ {
		th := 2 * math.Pi * float64(i) / float64(nInner)
		in.Points = append(in.Points, geom.Pt(math.Cos(th), math.Sin(th)))
	}
	for i := 0; i < nInner; i++ {
		in.Segments = append(in.Segments, [2]int32{int32(i), int32((i + 1) % nInner)})
	}
	// Box ring.
	size := sizing.Uniform(0.05)
	nbBox := geom.BBox{Min: geom.Pt(-3, -3), Max: geom.Pt(3, 3)}
	nbc := [4]geom.Point{
		geom.Pt(nbBox.Min.X, nbBox.Min.Y), geom.Pt(nbBox.Max.X, nbBox.Min.Y),
		geom.Pt(nbBox.Max.X, nbBox.Max.Y), geom.Pt(nbBox.Min.X, nbBox.Max.Y),
	}
	first := int32(len(in.Points))
	for i := 0; i < 4; i++ {
		in.Points = append(in.Points, decouple.MarchBorder(nbc[i], nbc[(i+1)%4], size)...)
	}
	last := int32(len(in.Points)) - 1
	for k := first; k < last; k++ {
		in.Segments = append(in.Segments, [2]int32{k, k + 1})
	}
	in.Segments = append(in.Segments, [2]int32{last, first})

	sectors, ok := transitionSectors(in, nInner, size, 8)
	if !ok {
		t.Fatal("sector decomposition must succeed on a clean annulus")
	}
	if len(sectors) != 8 {
		t.Fatalf("sectors = %d", len(sectors))
	}
	// Refine every sector and verify the union area equals the annulus.
	var area float64
	for si, sec := range sectors {
		res, err := delaunay.TriangulateRefined(sec, qualityFor(size, 0))
		if err != nil {
			t.Fatalf("sector %d: %v", si, err)
		}
		for _, tri := range res.Triangles {
			area += math.Abs(geom.TriangleArea(res.Points[tri[0]], res.Points[tri[1]], res.Points[tri[2]]))
		}
	}
	// Annulus area: 6x6 box minus the polygonal disk (area of regular
	// 64-gon with circumradius 1).
	poly := float64(nInner) / 2 * math.Sin(2*math.Pi/float64(nInner))
	want := 36 - poly
	if math.Abs(area-want) > 1e-6*want {
		t.Errorf("sector union area %v, want %v", area, want)
	}
}

func TestTransitionSectorsFallsBackOnTwoLoops(t *testing.T) {
	var in delaunay.Input
	// Two separate inner triangles: multi-element outer boundary.
	in.Points = []geom.Point{
		geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1),
		geom.Pt(3, 0), geom.Pt(4, 0), geom.Pt(3, 1),
	}
	in.Segments = [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}
	if _, ok := transitionSectors(in, 6, sizing.Uniform(0.1), 4); ok {
		t.Error("two inner loops must fall back")
	}
}

func TestTaskCodecRoundTrips(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0.5, 1)}
	segs := [][2]int32{{0, 1}, {1, 2}, {2, 0}}
	holes := []geom.Point{geom.Pt(0.5, 0.3)}
	vals := regionTaskVals(kindInviscid, pts, segs, holes)
	if int(vals[0]) != kindInviscid || int(vals[1]) != 3 || int(vals[2]) != 3 || int(vals[3]) != 1 {
		t.Fatalf("header built as %v", vals[:4])
	}
	// Processing the task yields one triangle... the hole removes it,
	// so use no holes for the positive check.
	vals = regionTaskVals(kindInviscid, pts, segs, nil)
	sub, err := processTaskCtx(vals, taskCtx{frame: geom.BBox{Min: geom.Pt(-1, -1), Max: geom.Pt(2, 2)}, size: sizing.Uniform(10)})
	if err != nil {
		t.Fatal(err)
	}
	got := resultTriangles(sub)
	if len(got) != 1 {
		t.Fatalf("processed %d triangles, want 1", len(got))
	}
	// The kernel may rotate the triangle; it must be CCW over the inputs.
	r := indexOf(pts, got[0][0])
	if r < 0 || got[0] != [3]geom.Point{pts[r], pts[(r+1)%3], pts[(r+2)%3]} {
		t.Fatalf("triangle %v is not a rotation of the input %v", got[0], pts)
	}
}

func TestProcessTaskErrors(t *testing.T) {
	if _, err := processTaskCtx(nil, taskCtx{}); err == nil {
		t.Error("empty payload must fail")
	}
	bad := regionTaskVals(99, nil, nil, nil)
	if _, err := processTaskCtx(bad, taskCtx{}); err == nil {
		t.Error("unknown kind must fail")
	}
}

// TestTaskPayloadRejectsMalformed: a stolen task's payload comes from
// another process, so one that no encoder could have written — short,
// with a count, index or coordinate that does not fit — fails with a
// *PayloadError instead of panicking, for every kind.
func TestTaskPayloadRejectsMalformed(t *testing.T) {
	seeds, tctx := smallTasks(t)
	leaf, trans := seeds[0], seeds[1]
	for i, vals := range seeds {
		if _, err := processTaskCtx(vals, tctx); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
	}
	nPath := int(leaf[leafPath])
	if nPath < 2 {
		t.Fatalf("the leaf payload lists %d path vertices, want at least 2", nPath)
	}
	firstPath, firstPoint := leafHeader, leafHeader+nPath
	with := func(vals []float64, slot int, v float64) []float64 {
		out := append([]float64(nil), vals...)
		out[slot] = v
		return out
	}
	cases := []struct {
		name string
		vals []float64
	}{
		{"leaf without a region", []float64{kindBLLeaf}},
		{"leaf cut inside the region", []float64{kindBLLeaf, 0, 1}},
		{"transition without segment and hole counts", []float64{kindTransition, 3}},
		{"NaN kind", with(trans, 0, math.NaN())},
		{"fractional kind", with(trans, 0, 1.5)},
		{"kind past the last", with(trans, 0, kindInviscid+1)},
		{"leaf path count NaN", with(leaf, leafPath, math.NaN())},
		{"leaf path count past the vector", with(leaf, leafPath, float64(len(leaf)))},
		{"leaf path count leaving half a point", with(leaf, leafPath, float64(nPath+1))},
		{"leaf path index at the point count", with(leaf, firstPath+nPath-1, float64((len(leaf)-firstPoint)/2))},
		{"leaf path indices descending", with(leaf, firstPath+1, leaf[firstPath]-1)},
		{"leaf path index repeated", with(leaf, firstPath+1, leaf[firstPath])},
		{"leaf path index fractional", with(leaf, firstPath, 0.5)},
		{"leaf point NaN", with(leaf, firstPoint+3, math.NaN())},
		{"leaf points out of x order", with(leaf, firstPoint+2, leaf[firstPoint]-1)},
		{"leaf point infinite", with(leaf, firstPoint+4, math.Inf(1))},
		{"region point count the length contradicts", with(trans, 1, 3)},
		{"region segment count infinite", with(trans, 2, math.Inf(1))},
		{"region segment index at the point count", with(trans, regionHeader+2*4+1, 4)},
		{"region segment index negative", with(trans, regionHeader+2*4, -1)},
		{"region point infinite", with(trans, regionHeader+1, math.Inf(-1))},
		{"region cut short", trans[:len(trans)-1]},
	}
	for _, c := range cases {
		out, err := processTaskCtx(c.vals, tctx)
		var pe *PayloadError
		if !errors.As(err, &pe) {
			t.Errorf("%s: returned %d triangles and %v, want a *PayloadError", c.name, len(out.tris), err)
		} else if pe.Kind == kindInviscid+1 && pe.Reason != "unknown kind" {
			t.Errorf("%s: refused for %q, want as an unknown kind", c.name, pe.Reason)
		}
	}
}

func TestBLLeafPayloadUsesOnlyXSorted(t *testing.T) {
	// The paper ships only the x-sorted vertices of a sufficiently
	// decomposed subdomain (the y-sorted copy is dropped). Beside one copy
	// of the points the payload carries the region header and the indices
	// of the leaf's dividing-path vertices — on one cut, the points both
	// halves hold — and nothing else.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0.1), geom.Pt(0.1, 1), geom.Pt(1.1, 1.2),
		geom.Pt(0.5, 0.4), geom.Pt(0.3, 0.7), geom.Pt(0.8, 0.6), geom.Pt(0.6, 1.3)}
	leaves, _ := project.Decompose(project.New(pts), project.Options{MaxDepth: 1})
	if len(leaves) != 2 {
		t.Fatalf("%d leaves, want 2", len(leaves))
	}
	tasks := blLeafTasks(leaves, len(pts))
	var path [2][]geom.Point
	for i, leaf := range leaves {
		vals := tasks[i].Vals
		nPath := int(vals[leafPath])
		wantFloats := leafHeader + nPath + 2*leaf.Len() // kind, region, path count, path indices, coordinates
		if len(vals) != wantFloats {
			t.Errorf("leaf %d: task vector = %d floats, want %d (one copy of the coordinates)", i, len(vals), wantFloats)
		}
		if cap(vals) != wantFloats {
			t.Errorf("leaf %d: task vector capacity = %d, want exactly %d (no over-allocation)", i, cap(vals), wantFloats)
		}
		for _, v := range vals[leafHeader : leafHeader+nPath] {
			path[i] = append(path[i], leaf.XS[int(v)].P)
		}
		if len(path[i]) < 2 || len(path[i]) == leaf.Len() {
			t.Errorf("leaf %d lists %d of its %d points as path vertices", i, len(path[i]), leaf.Len())
		}
	}
	if !reflect.DeepEqual(path[0], path[1]) {
		t.Errorf("the two leaves list different path vertices: %v and %v", path[0], path[1])
	}
}
