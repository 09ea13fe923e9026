package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"pamg2d/internal/airfoil"
	"pamg2d/internal/geom"
	"pamg2d/internal/loadbal"
	"pamg2d/internal/mesh"
)

// resultTriangles expands a meshing task's result to coordinate triples,
// through the decoder the root uses.
func resultTriangles(t testing.TB, vals []float64) [][3]geom.Point {
	t.Helper()
	var s submesh
	if err := s.decode(vals); err != nil {
		t.Fatalf("task result does not decode: %v", err)
	}
	out := make([][3]geom.Point, len(s.tris))
	for i, tri := range s.tris {
		out[i] = [3]geom.Point{s.pts[tri[0]], s.pts[tri[1]], s.pts[tri[2]]}
	}
	return out
}

func indexOf(pts []geom.Point, p geom.Point) int {
	for i, q := range pts {
		if q == p {
			return i
		}
	}
	return -1
}

// runCapturing runs the push-button pipeline on cfg and also returns every
// meshing task's result in task order: the boundary-layer leaves', then
// the transition and inviscid tasks' (the transition tasks lead).
func runCapturing(t testing.TB, cfg Config) (res *Result, bl, iso [][]float64) {
	t.Helper()
	capture := func(prepare prepareFunc, into *[][]float64) prepareFunc {
		return func(rc *RunCtx) ([]loadbal.Task, taskCtx, mergeFunc, error) {
			tasks, tctx, merge, err := prepare(rc)
			return tasks, tctx, func(rs [][]float64) error {
				*into = rs
				return merge(rs)
			}, err
		}
	}
	rc := newRunCtx(cfg)
	err := rc.runStages([]Stage{
		stageFunc{StageValidate, runValidate},
		stageFunc{StageRays, runRays},
		stageFunc{StageRayInsertion, runRayInsertion},
		&distStage{StageBLTriangulation, capture(prepareBLTriangulation, &bl)},
		&distStage{StageInviscid, capture(prepareInviscid, &iso)},
		stageFunc{StageMerge, runMerge},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rc.res, bl, iso
}

// TestOffsetAssemblyMatchesInterning: the mesh the root assembles by offset
// from the tasks' indexed results is, point for point and triangle for
// triangle, the mesh obtained by expanding every result to coordinates and
// interning each corner through Builder.AddTriangle — on one and three
// elements, at 1, 2 and 4 ranks. At the bench's high-lift size the
// transition task repeats a boundary-layer triangle spanned by three
// outer-boundary points, which only Builder.Share's triangle registration
// drops.
func TestOffsetAssemblyMatchesInterning(t *testing.T) {
	three := func(n int) Config {
		cfg := smallConfig(1)
		cfg.Geometry = airfoil.ThreeElement(n)
		cfg.Geometry.FarfieldChords = 8
		return cfg
	}
	for _, geometry := range []struct {
		name string
		cfg  Config
	}{{"naca0012", smallConfig(1)}, {"three-element", three(64)}, {"three-element-256", three(256)}} {
		for _, ranks := range []int{1, 2, 4} {
			cfg := geometry.cfg
			cfg.Ranks = ranks
			res, bl, iso := runCapturing(t, cfg)
			ref := mesh.NewBuilder()
			for _, r := range append(bl, iso...) {
				for _, tri := range resultTriangles(t, r) {
					ref.AddTriangle(tri[0], tri[1], tri[2])
				}
			}
			name := fmt.Sprintf("%s, %d ranks", geometry.name, ranks)
			if res.Mesh.NumTriangles() == 0 {
				t.Fatalf("%s: empty mesh", name)
			}
			if !reflect.DeepEqual(res.Mesh.Points, ref.Mesh().Points) {
				t.Errorf("%s: %d points, interning gives %d or another order", name, res.Mesh.NumPoints(), ref.Mesh().NumPoints())
			}
			if !reflect.DeepEqual(res.Mesh.Triangles, ref.Mesh().Triangles) {
				t.Errorf("%s: %d triangles, interning gives %d or other indices", name, res.Mesh.NumTriangles(), ref.Mesh().NumTriangles())
			}
		}
	}
}

// TestBLMergeInternsOnlySharedPoints: after the boundary-layer merge the
// builder's coordinate index holds exactly the dividing-path vertices —
// the points the decomposition dealt to two or more leaves — and the
// outer-boundary points the transition task shares, not every
// boundary-layer point.
func TestBLMergeInternsOnlySharedPoints(t *testing.T) {
	for _, ranks := range []int{1, 4} {
		rc, tasks := runThroughBLMerge(t, smallConfig(ranks))
		dealt := make(map[geom.Point]int)
		for _, task := range tasks {
			coords := task.Vals[leafHeader+int(task.Vals[leafPath]):]
			for i := 0; i < len(coords); i += 2 {
				dealt[geom.Pt(coords[i], coords[i+1])]++
			}
		}
		shared := make(map[geom.Point]bool)
		for p, n := range dealt {
			shared[p] = n > 1
		}
		for _, p := range rc.outerPts {
			shared[p] = true
		}
		pts := rc.builder.Mesh().Points
		np := len(pts)
		count := 0
		for i, in := range interned(rc.builder, np) {
			if in != shared[pts[i]] {
				t.Errorf("%d ranks: point %d %v: interned %v, shared %v", ranks, i, pts[i], in, shared[pts[i]])
			}
			if in {
				count++
			}
		}
		if len(tasks) < 2 || count == 0 || count > np/2 {
			t.Errorf("%d ranks: %d leaves, %d of %d boundary-layer points interned", ranks, len(tasks), count, np)
		}
	}
}

// TestOnPathFindsPointsInTieRuns: a leaf's points never decrease in X, but
// the projection's tie fix-up can leave points of equal X out of Y order
// (a NACA 0012 at n = 20 has such a leaf); every path point is still found,
// and no other point.
func TestOnPathFindsPointsInTieRuns(t *testing.T) {
	path := []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0.2), geom.Pt(0.5, -0.2), geom.Pt(0.5, 0.1), geom.Pt(1, 3), geom.Pt(2, -1)}
	for _, p := range path {
		if !onPath(path, p) {
			t.Errorf("path point %v not found", p)
		}
	}
	for _, p := range []geom.Point{geom.Pt(0.5, 0), geom.Pt(0, 1), geom.Pt(-1, 0), geom.Pt(3, 0), geom.Pt(1.5, 3)} {
		if onPath(path, p) {
			t.Errorf("point %v found on the path", p)
		}
	}
	if onPath(nil, geom.Pt(0, 0)) {
		t.Error("a point found on an empty path")
	}
}

// TestTaskTriangleCountsAddUp: every task reports the triangles it made,
// so the per-task counts sum to the stage counts, and those to the mesh: on a NACA input the merge's duplicate
// check dropped nothing. (On three-element inputs it can drop a
// boundary-layer triangle the transition task reproduces; see
// TestOffsetAssemblyMatchesInterning.)
func TestTaskTriangleCountsAddUp(t *testing.T) {
	for _, ranks := range []int{1, 4} {
		res, err := Generate(smallConfig(ranks))
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		sum := 0
		for _, task := range st.Tasks {
			sum += task.Triangles
		}
		if stages := st.BLTriangles + st.TransitionTris + st.InviscidTris; sum != stages || stages != st.TotalTriangles {
			t.Errorf("%d ranks: tasks report %d triangles, the stages %d (BL %d, transition %d, inviscid %d), the mesh %d",
				ranks, sum, stages, st.BLTriangles, st.TransitionTris, st.InviscidTris, st.TotalTriangles)
		}
	}
}

// TestFullAuditWithSectorsFindsNoDuplicatePoints: with the transition
// region cut into sectors, sector cuts join the borders tasks share. The
// invariant audit's conformity check looks points up by coordinates, so a
// shared point some task flagged interior would show as a duplicate.
func TestFullAuditWithSectorsFindsNoDuplicatePoints(t *testing.T) {
	cfg := smallConfig(4)
	cfg.Audit = true
	cfg.TransitionSectors = 1
	whole, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TransitionSectors = 4
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Stats.Tasks), len(whole.Stats.Tasks)+3; got != want {
		t.Fatalf("%d tasks, want %d: the transition was not cut into 4 sectors", got, want)
	}
	if res.Stats.Audit == nil {
		t.Fatal("no audit report")
	}
	for _, v := range res.Stats.Audit.Violations {
		t.Errorf("violation: %v", v)
	}
}

func TestSubmeshDecodeRejects(t *testing.T) {
	// Two triangles over four points, points 1 and 3 shared, with an open,
	// a seam and an open seam edge.
	good := submesh{
		pts:    []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)},
		shared: []int32{1, 3},
		tris:   [][3]int32{{0, 1, 2}, {0, 2, 3}},
		edges:  []leafEdge{{0, 1, edgeOpen}, {2, 3, edgeSeam}, {3, 0, edgeOpen | edgeSeam}},
	}.encode()
	var s submesh
	if err := s.decode(good); err != nil || len(s.pts) != 4 || len(s.shared) != 2 || len(s.tris) != 2 || len(s.edges) != 3 {
		t.Fatalf("a valid submesh decodes to %+v, %v", s, err)
	}
	const firstShared, firstIndex = subHeader + 8, subHeader + 8 + 2
	const firstEdge = firstIndex + 6
	cases := []struct {
		name string
		slot int
		v    float64
	}{
		{"NaN point count", subPoints, math.NaN()},
		{"infinite triangle count", subTriangles, math.Inf(1)},
		{"negative shared count", subShared, -1},
		{"fractional point count", subPoints, 4.5},
		{"point count over int32", subPoints, 1 << 40},
		{"more shared than points", subShared, 5},
		{"point count the length contradicts", subPoints, 3},
		{"triangle count the length contradicts", subTriangles, 3},
		{"shared index at the point count", firstShared + 1, 4},
		{"shared indices descending", firstShared + 1, 0},
		{"shared index repeated", firstShared + 1, 1},
		{"NaN shared index", firstShared, math.NaN()},
		{"triangle index at the point count", firstIndex + 4, 4},
		{"negative triangle index", firstIndex, -1},
		{"fractional triangle index", firstIndex + 2, 1.5},
		{"NaN triangle index", firstIndex + 5, math.NaN()},
		{"infinite triangle index", firstIndex + 5, math.Inf(-1)},
		{"negative edge count", subEdges, -1},
		{"edge count the length contradicts", subEdges, 2},
		{"edge index at the point count", firstEdge + 3, 4},
		{"negative edge index", firstEdge + 1, -1},
		{"NaN edge index", firstEdge, math.NaN()},
		{"edge kind 0", firstEdge + 2, 0},
		{"edge kind above open and seam", firstEdge + 5, 4},
		{"fractional edge kind", firstEdge + 8, 1.5},
	}
	for _, c := range cases {
		bad := append([]float64(nil), good...)
		bad[c.slot] = c.v
		if err := s.decode(bad); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
	}
	for _, n := range []int{0, 1, 2, 3, len(good) - 1} {
		if err := s.decode(good[:n]); err == nil {
			t.Errorf("a vector cut to %d floats decoded without error", n)
		}
	}
	if err := s.decode(append(append([]float64(nil), good...), 0)); err == nil {
		t.Error("a vector with a trailing float decoded without error")
	}
}

// TestCorruptResultFailsTheStage: a result vector that does not decode —
// over TCP it comes from another process — fails the stage that consumes
// it with a *PhaseError, at every place one is read.
func TestCorruptResultFailsTheStage(t *testing.T) {
	_, bl, _ := runCapturing(t, smallConfig(1))
	corrupt := append([]float64(nil), bl[0]...)
	corrupt[len(corrupt)-1] = math.NaN()
	huge := append([]float64(nil), bl[0]...)
	huge[subTriangles] = math.MaxInt32 - 1

	for _, bad := range [][]float64{corrupt, huge, nil} {
		rc := newRunCtx(smallConfig(1))
		rc.builder = mesh.NewBuilder()
		rc.isoResults = [][]float64{bad}
		err := rc.runStages([]Stage{stageFunc{StageMerge, runMerge}})
		var pe *PhaseError
		if !errors.As(err, &pe) || pe.Stage != StageMerge || !strings.Contains(err.Error(), "task 0 result") {
			t.Errorf("merge over a corrupt result returned %v, want a merge-stage PhaseError naming task 0", err)
		}
	}

	// The two distributed stages read results in their merge closures.
	for _, stage := range []struct {
		name    string
		prepare prepareFunc
		upTo    int
	}{{StageBLTriangulation, prepareBLTriangulation, 3}, {StageInviscid, prepareInviscid, 4}} {
		rc := newRunCtx(smallConfig(1))
		if err := rc.runStages(pipeline[:stage.upTo]); err != nil {
			t.Fatal(err)
		}
		broken := &distStage{stage.name, func(rc *RunCtx) ([]loadbal.Task, taskCtx, mergeFunc, error) {
			tasks, tctx, merge, err := stage.prepare(rc)
			return tasks, tctx, func(rs [][]float64) error {
				rs[len(rs)-1] = huge
				return merge(rs)
			}, err
		}}
		err := rc.runStages([]Stage{broken})
		var pe *PhaseError
		if !errors.As(err, &pe) || pe.Stage != stage.name {
			t.Errorf("%s over a corrupt result returned %v, want its PhaseError", stage.name, err)
		}
	}
}
