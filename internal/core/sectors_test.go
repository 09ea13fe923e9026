package core

import (
	"math"
	"reflect"
	"slices"
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

// TestTaskCodecRoundTrips: a typed inviscid task over one triangle keeps
// that triangle, a hole seed inside it carves it away, and the kept
// submesh survives the task-result codec.
func TestTaskCodecRoundTrips(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0.5, 1)}
	segs := [][2]int32{{0, 1}, {1, 2}, {2, 0}}
	tctx := taskCtx{frame: geom.BBox{Min: geom.Pt(-1, -1), Max: geom.Pt(2, 2)}, size: sizing.Uniform(10)}
	holed := meshTask{kind: kindInviscid, in: delaunay.Input{Points: pts, Segments: segs, Holes: []geom.Point{geom.Pt(0.5, 0.3)}}}
	ws := new(delaunay.Triangulation)
	if sub, err := processTask(&holed, tctx, ws); err == nil && len(sub.tris) != 0 {
		t.Errorf("the hole seed left %d triangles", len(sub.tris))
	}
	task := meshTask{kind: kindInviscid, in: delaunay.Input{Points: pts, Segments: segs}}
	sub, err := processTask(&task, tctx, ws)
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
	back, err := decodeTaskResultRef(resultFrame(sub))
	if err != nil || !sameSubmesh(back.(*taskResult).sub, sub) {
		t.Errorf("the submesh does not survive the task-result codec: %v", err)
	}
}

// TestTaskInputsStayUnchanged: every process holds every task's input, a
// re-queued task runs twice on the same input, and the audit reads the
// transition inputs afterwards (rc.transInputs). So a task of each kind,
// run twice on one real input — in a fresh workspace, then in the
// workspace every task before it ran in — gives identical submeshes and
// leaves the input's slices as they were.
func TestTaskInputsStayUnchanged(t *testing.T) {
	cfg := smallConfig(2)
	cfg.TransitionSectors = 1
	rc := newRunCtx(cfg)
	if err := rc.runStages(pipeline[:3:3]); err != nil {
		t.Fatal(err)
	}
	blTasks, blCtx, merge, err := prepareBLTriangulation(rc)
	if err != nil {
		t.Fatal(err)
	}
	results, err := runPhase(rc, StageBLTriangulation, blTasks, blCtx)
	if err != nil {
		t.Fatal(err)
	}
	if err := merge(results); err != nil {
		t.Fatal(err)
	}
	isoTasks, isoCtx, _, err := prepareInviscid(rc)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func(task *meshTask) (xs []project.Vertex, in delaunay.Input) {
		if task.leaf != nil {
			xs = slices.Clone(task.leaf.XS)
		}
		return xs, delaunay.Input{Points: slices.Clone(task.in.Points), Segments: slices.Clone(task.in.Segments), Holes: slices.Clone(task.in.Holes)}
	}
	ws := new(delaunay.Triangulation)
	for _, c := range []struct {
		task *meshTask
		tctx taskCtx
	}{{&blTasks[0], blCtx}, {&isoTasks[0], isoCtx}, {&isoTasks[len(isoTasks)-1], isoCtx}} {
		task := c.task
		xs, in := snapshot(task)
		first, err := processTask(task, c.tctx, new(delaunay.Triangulation))
		if err != nil {
			t.Fatalf("%s: %v", task.kindName(), err)
		}
		second, err := processTask(task, c.tctx, ws)
		if err != nil {
			t.Fatalf("%s, second run: %v", task.kindName(), err)
		}
		if len(first.tris) == 0 || !sameSubmesh(first, second) {
			t.Errorf("%s: the two runs gave %d and %d triangles, or other submeshes", task.kindName(), len(first.tris), len(second.tris))
		}
		if xs2, in2 := snapshot(task); !reflect.DeepEqual(xs, xs2) || !reflect.DeepEqual(in, in2) {
			t.Errorf("%s: running the task changed its input", task.kindName())
		}
	}
	if isoTasks[0].kind != kindTransition || isoTasks[len(isoTasks)-1].kind != kindInviscid || len(isoTasks[0].in.Holes) == 0 {
		t.Errorf("the region tasks tested are not a transition with holes and an inviscid region")
	}
}

func TestBLLeafPayloadUsesOnlyXSorted(t *testing.T) {
	// The paper ships only the x-sorted vertices of a sufficiently
	// decomposed subdomain (the y-sorted copy is dropped). A leaf task's
	// input is its subdomain with the y-sorted copy dropped, measured as
	// one copy of the points; its path vertices — on one cut, the points
	// both halves hold — are its vertices dealt twice.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0.1), geom.Pt(0.1, 1), geom.Pt(1.1, 1.2),
		geom.Pt(0.5, 0.4), geom.Pt(0.3, 0.7), geom.Pt(0.8, 0.6), geom.Pt(0.6, 1.3)}
	leaves, _ := project.Decompose(project.New(pts), project.Options{MaxDepth: 1})
	if len(leaves) != 2 {
		t.Fatalf("%d leaves, want 2", len(leaves))
	}
	tasks, dealt := blLeafTasks(leaves, len(pts))
	var path [2][]geom.Point
	for i, leaf := range leaves {
		task := tasks[i]
		if task.kind != kindBLLeaf || task.leaf != leaf || leaf.YS != nil {
			t.Errorf("leaf %d: task %+v does not hold the leaf alone, with its y-sorted copy dropped", i, task)
		}
		if task.cost != float64(leaf.Len()) || task.bytes() != 16*int64(leaf.Len()) {
			t.Errorf("leaf %d: cost %v and %d bytes, want %d points", i, task.cost, task.bytes(), leaf.Len())
		}
		for _, v := range leaf.XS {
			if dealt[v.ID] > 1 {
				path[i] = append(path[i], v.P)
			}
		}
		if len(path[i]) < 2 || len(path[i]) == leaf.Len() {
			t.Errorf("leaf %d lists %d of its %d points as path vertices", i, len(path[i]), leaf.Len())
		}
	}
	if !reflect.DeepEqual(path[0], path[1]) {
		t.Errorf("the two leaves list different path vertices: %v and %v", path[0], path[1])
	}
}
