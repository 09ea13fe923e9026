package core

import (
	"fmt"
	"reflect"
	"testing"

	"pamg2d/internal/airfoil"
	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
)

// resultTriangles expands a meshing task's submesh to coordinate triples.
func resultTriangles(s submesh) [][3]geom.Point {
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
func runCapturing(t testing.TB, cfg Config) (res *Result, bl, iso []submesh) {
	t.Helper()
	capture := func(prepare prepareFunc, into *[]submesh) prepareFunc {
		return func(rc *RunCtx) ([]meshTask, taskCtx, mergeFunc, error) {
			tasks, tctx, merge, err := prepare(rc)
			return tasks, tctx, func(rs []submesh) error {
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
				for _, tri := range resultTriangles(r) {
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
			for _, v := range task.leaf.XS {
				dealt[v.P]++
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
