package adapt

import (
	"bytes"
	"math"
	"testing"

	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
	"pamg2d/internal/solver"
)

// heatedSlotMesh refines the unit square around a thin slot at
// x in [0.2, 0.25], y in [0.4, 0.6]. Under DefaultProblem the slot is the
// body (u = 1) and the square's perimeter the far field (u = 0), so the
// solution is a warm strip convected downstream of the slot, steep at the
// slot and across the strip's edges and flat above and below.
func heatedSlotMesh(t testing.TB) *mesh.Mesh {
	t.Helper()
	in := delaunay.Input{
		Points: []geom.Point{
			geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1),
			geom.Pt(0.2, 0.4), geom.Pt(0.25, 0.4), geom.Pt(0.25, 0.6), geom.Pt(0.2, 0.6),
		},
		Segments: [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}, {6, 7}, {7, 4}},
		Holes:    []geom.Point{geom.Pt(0.225, 0.5)},
	}
	res, err := delaunay.TriangulateRefined(in, delaunay.Quality{MaxRadiusEdgeRatio: math.Sqrt2, MaxArea: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	b := mesh.NewBuilder()
	for _, tri := range res.Triangles {
		b.AddTriangle(res.Points[tri[0]], res.Points[tri[1]], res.Points[tri[2]])
	}
	return b.Mesh()
}

// meanAreas returns the mean cell area inside the band |y - 0.5| < 0.15,
// which holds the slot and the strip behind it, and outside it.
func meanAreas(m *mesh.Mesh) (inside, outside float64) {
	var nIn, nOut float64
	for _, tri := range m.Triangles {
		a, b, c := m.Points[tri[0]], m.Points[tri[1]], m.Points[tri[2]]
		if math.Abs((a.Y+b.Y+c.Y)/3-0.5) < 0.15 {
			inside += geom.TriangleArea(a, b, c)
			nIn++
		} else {
			outside += geom.TriangleArea(a, b, c)
			nOut++
		}
	}
	return inside / nIn, outside / nOut
}

// TestCyclesHessianConcentrates is Figure 1 on the cavity engine: solve,
// build the Hessian metric, adapt, and again on the adapted mesh. After two
// cycles the cells have gone where the solution bends — those in the strip
// are less than half the size of those outside it, on a mesh that started
// uniform — every cycle's mesh passes the adapted audit, and the result is
// the same bytes whatever the worker count.
func TestCyclesHessianConcentrates(t *testing.T) {
	m := heatedSlotMesh(t)
	if in, out := meanAreas(m); in < out/1.5 {
		t.Fatalf("input mesh is already concentrated: mean area %v inside the strip, %v outside", in, out)
	}
	build, resample, err := MetricSource("hessian",
		DefaultSolve(solver.Options{Tol: 1e-8, MaxIters: 20000, Method: solver.GaussSeidel}))
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	for _, workers := range []int{1, 3} {
		out, reps, err := Cycles(m, 2, Options{Workers: workers, Resample: resample}, build)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if len(reps) != 2 || !reps[0].Audit.Ok() || !reps[1].Audit.Ok() {
			t.Fatalf("%d workers: want two cycles with clean audits, got %+v", workers, reps)
		}
		if in, outside := meanAreas(out); in > outside/2 {
			t.Errorf("%d workers: mean cell area %v inside the strip, %v outside: not 2x smaller", workers, in, outside)
		}
		var buf bytes.Buffer
		if err := out.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Errorf("%d workers: adapted mesh differs from the 1-worker mesh", workers)
		}
	}
}
