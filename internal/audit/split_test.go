package audit

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"pamg2d/internal/airfoil"
	"pamg2d/internal/blayer"
	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
)

// matchSequential holds the executor's report on a copy of s — every
// check in parts and a tail, on every CPU — to sequentialRun's with the
// single-pass checks on another copy: the same per-check counts and the
// same violations in the same order. It returns the report.
func matchSequential(t *testing.T, name string, s Snapshot) *Report {
	t.Helper()
	ref := s
	got, want := Run(&s, All()), sequentialRun(&ref, sequentialChecks())
	for i := range got.Checks {
		got.Checks[i].Wall, got.Checks[i].Allocs = 0, 0
	}
	if !reflect.DeepEqual(got.Checks, want.Checks) {
		t.Errorf("%s: checks\n got %+v\nwant %+v", name, got.Checks, want.Checks)
	}
	if !reflect.DeepEqual(got.Violations, want.Violations) {
		t.Errorf("%s: %d violations, the single-pass checks %d or in another order", name, len(got.Violations), len(want.Violations))
	}
	return got
}

// highliftLayers are the boundary layers of the three-element high-lift
// geometry at nHalf surface points per side, and a mesh over them: the
// unconstrained Delaunay triangulation of every surface and layer point.
// The surfaces are not holes of that mesh, so surface recovery fails
// along them.
func highliftLayers(t *testing.T, nHalf int) Snapshot {
	t.Helper()
	g, err := airfoil.ThreeElement(nHalf).Graph()
	if err != nil {
		t.Fatal(err)
	}
	p := blayer.DefaultParams()
	layers := blayer.GenerateRays(g, p)
	var pts []geom.Point
	for _, l := range layers {
		l.InsertPoints(p)
		pts = append(pts, l.AllPoints()...)
	}
	return Snapshot{Mesh: triangulate(t, pts), Layers: layers, BL: p}
}

// TestSplitChecksMatchSequential: every check reports in parts exactly
// what it does in one pass, on meshes large enough for several parts
// each: every grid corruption, with and without context, strict and not;
// the high-lift boundary layers, before and after their chains are made
// to cross; a mesh whose conformity check alone reports many times
// maxRecorded violations, in every part; one with more than maxRecorded
// orientation violations in every part; and a Delaunay violation on an
// edge between two parts.
func TestSplitChecksMatchSequential(t *testing.T) {
	const n = 60 // 7200 triangles and 3721 points: several parts per check
	if gridMesh(n).NumTriangles() < 3*jobChunk {
		t.Fatalf("a %d grid makes fewer than three chunks of %d", n, jobChunk)
	}
	for _, c := range gridCorruptions(n) {
		for seed := int64(1); seed <= 2; seed++ {
			for _, strict := range []bool{false, true} {
				m := gridMesh(n)
				c.apply(m, rand.New(rand.NewSource(seed)))
				matchSequential(t, c.name, Snapshot{Mesh: m, StrictDelaunay: strict})
				matchSequential(t, c.name+" in context", gridContext(m, n, strict))
			}
		}
	}

	hl := highliftLayers(t, 64)
	rep := matchSequential(t, "high-lift layers", hl)
	if b := findCheck(rep, "boundary"); b.Violations == 0 {
		t.Error("high-lift layers: surface recovery passed on a mesh without holes")
	}
	// Swap the outermost points of every eighth pair of neighbouring rays:
	// their chains cross.
	l := hl.Layers[0]
	for ri := 0; ri+1 < len(l.Points); ri += 8 {
		a, b := l.Points[ri], l.Points[ri+1]
		if len(a) > 0 && len(b) > 0 {
			a[len(a)-1], b[len(b)-1] = b[len(b)-1], a[len(a)-1]
		}
	}
	rep = matchSequential(t, "high-lift layers with crossed chains", hl)
	if bl := findCheck(rep, "boundary-layer"); bl.Violations < 10 {
		t.Errorf("high-lift layers with crossed chains: %d boundary-layer violations, want at least 10", bl.Violations)
	}

	m := gridMesh(n)
	m.Triangles = append(m.Triangles, m.Triangles...)
	rep = matchSequential(t, "every triangle twice", Snapshot{Mesh: m})
	if c := findCheck(rep, "conformity"); c.Violations < 10*maxRecorded {
		t.Errorf("every triangle twice: %d conformity violations, want at least %d", c.Violations, 10*maxRecorded)
	}

	// Every fifth triangle flipped: well over maxRecorded orientation
	// violations in every part.
	m = triangulate(t, gridPoints(n))
	for i := 0; i < m.NumTriangles(); i += 5 {
		m.Triangles[i][0], m.Triangles[i][1] = m.Triangles[i][1], m.Triangles[i][0]
	}
	rep = matchSequential(t, "every fifth triangle flipped", Snapshot{Mesh: m})
	if o := findCheck(rep, "orientation"); o.Violations < m.NumTriangles()/5 || jobChunk/5 <= maxRecorded {
		t.Errorf("every fifth triangle flipped: %d orientation violations, want %d, more than %d a part",
			o.Violations, m.NumTriangles()/5, maxRecorded)
	}

	// The Delaunay diagonal of a convex pair of triangles, one in the first
	// part and one in the second, flipped: the violation straddles the parts.
	m = triangulate(t, gridPoints(n))
	i, nb := straddlingFlip(t, m, jobChunk)
	rep = matchSequential(t, "a flip across a part edge", Snapshot{Mesh: m})
	want := fmt.Sprintf("of neighbor %d inside circumcircle", nb)
	if !slices.ContainsFunc(rep.Violations, func(v Violation) bool {
		return v.Check == "delaunay" && v.Element == i && strings.Contains(v.Detail, want)
	}) {
		t.Errorf("a flip across a part edge: no delaunay violation of triangle %d against %d in %v", i, nb, rep.Violations)
	}
}

// straddlingFlip flips the shared edge of the first triangle i < edge
// whose neighbour nb >= edge makes a convex quadrilateral with it, keeping
// both triangles' indices, and returns the two.
func straddlingFlip(t *testing.T, m *mesh.Mesh, edge int) (i, nb int) {
	t.Helper()
	adj := m.Adjacency()
	for i := range edge {
		for e, nb := range adj[i] {
			if nb < int32(edge) {
				continue
			}
			a, b, c := m.Triangles[i][e], m.Triangles[i][(e+1)%3], m.Triangles[i][(e+2)%3]
			var d int32
			for _, v := range m.Triangles[nb] {
				if v != a && v != b {
					d = v
				}
			}
			p := m.Points
			if geom.Orient2DSign(p[a], p[d], p[c]) > 0 && geom.Orient2DSign(p[d], p[b], p[c]) > 0 {
				m.Triangles[i], m.Triangles[nb] = [3]int32{a, d, c}, [3]int32{d, b, c}
				return i, int(nb)
			}
		}
	}
	t.Fatalf("no convex pair of triangles across %d", edge)
	return 0, 0
}

// TestStartedCheckCollected: a check Start began on the layers alone is
// collected by the later RunContext in its place, with the report the
// inline run gives; Stop afterwards returns at once.
func TestStartedCheckCollected(t *testing.T) {
	hl := highliftLayers(t, 32)
	inline := hl
	want := Run(&inline, All())

	s := &Snapshot{Layers: hl.Layers, BL: hl.BL}
	s.Start(context.Background(), All(), nil)
	s.Mesh = hl.Mesh
	got := Run(s, All())
	s.Stop()
	for _, rep := range []*Report{got, want} {
		for i := range rep.Checks {
			rep.Checks[i].Wall, rep.Checks[i].Allocs = 0, 0
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("started report\n got %+v\nwant %+v", got.Checks, want.Checks)
	}
	if len(s.ahead) != 1 || s.started("boundary-layer") == nil {
		t.Errorf("Start began %d checks, want the boundary-layer check alone", len(s.ahead))
	}
}

// panicLayers is a layer check with a bug.
type panicLayers struct{ panicCheck }

func (panicLayers) LayersOnly() {}

// slowLayers is a layer check that takes a while, as a large boundary
// layer does.
type slowLayers struct{}

func (slowLayers) Name() string              { return "slow" }
func (slowLayers) Applicable(*Snapshot) bool { return true }
func (slowLayers) LayersOnly()               {}
func (slowLayers) Begin(*Snapshot, *Reporter) Parts {
	time.Sleep(20 * time.Millisecond)
	return done{}
}

// TestStartedCheckFailures: a started check that panics comes back from
// RunContext as the error naming it, as an inline one does, and from Run
// as the panic; one stopped before the audit collects it is joined, and
// the stop is what a later RunContext reports.
func TestStartedCheckFailures(t *testing.T) {
	layers := []*blayer.Layer{squareLayer()}
	s := &Snapshot{Layers: layers}
	s.Start(context.Background(), []Check{orientationCheck{}, panicLayers{}}, nil)
	s.Mesh = goodQuadMesh()
	_, err := RunContext(context.Background(), s, []Check{orientationCheck{}, panicLayers{}})
	_, inline := RunContext(context.Background(), &Snapshot{Mesh: goodQuadMesh(), Layers: layers}, []Check{orientationCheck{}, panicLayers{}})
	if err == nil || inline == nil || err.Error() != inline.Error() {
		t.Errorf("started check panicked: RunContext returned %v, inline %v", err, inline)
	}
	s.Stop()

	s = &Snapshot{Layers: layers}
	s.Start(context.Background(), []Check{slowLayers{}}, nil)
	s.Stop()
	select {
	case <-s.started("slow").done:
	default:
		t.Fatal("Stop returned before the started check's goroutine")
	}
	s.Mesh = goodQuadMesh()
	if _, err := RunContext(context.Background(), s, []Check{slowLayers{}}); err != errStopped {
		t.Errorf("RunContext after Stop returned %v, want %v", err, errStopped)
	}
}
