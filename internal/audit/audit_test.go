package audit

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"pamg2d/internal/blayer"
	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
	"pamg2d/internal/pslg"
)

// triangulate builds a plain Delaunay mesh of the given points for tests.
func triangulate(t *testing.T, pts []geom.Point) *mesh.Mesh {
	t.Helper()
	res, err := delaunay.Triangulate(delaunay.Input{Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	return &mesh.Mesh{Points: res.Points, Triangles: res.Triangles}
}

// gridPoints returns a deterministic, slightly jittered n x n point grid.
func gridPoints(n int) []geom.Point {
	pts := make([]geom.Point, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			// Deterministic pseudo-jitter keeps the set in general position.
			dx := float64((i*7+j*13)%11) / 37
			dy := float64((i*5+j*17)%13) / 41
			pts = append(pts, geom.Pt(float64(i)+dx, float64(j)+dy))
		}
	}
	return pts
}

func findCheck(rep *Report, name string) CheckStat {
	for _, c := range rep.Checks {
		if c.Name == name {
			return c
		}
	}
	return CheckStat{Name: name, Skipped: true}
}

func TestCleanDelaunayPasses(t *testing.T) {
	m := triangulate(t, gridPoints(8))
	s := &Snapshot{Mesh: m, StrictDelaunay: true}
	rep := Run(s, All())
	if !rep.Ok() {
		t.Fatalf("clean Delaunay mesh failed audit: %+v", rep.Violations)
	}
	for _, name := range []string{"orientation", "conformity", "boundary", "delaunay"} {
		c := findCheck(rep, name)
		if c.Skipped {
			t.Errorf("check %s skipped on a bare mesh snapshot", name)
		}
	}
	for _, name := range []string{"boundary-layer", "decoupling"} {
		if c := findCheck(rep, name); !c.Skipped {
			t.Errorf("check %s ran without its inputs", name)
		}
	}
}

func TestFlippedTriangleAttributed(t *testing.T) {
	m := triangulate(t, gridPoints(6))
	victim := m.NumTriangles() / 2
	m.Triangles[victim][1], m.Triangles[victim][2] = m.Triangles[victim][2], m.Triangles[victim][1]
	rep := Run(&Snapshot{Mesh: m}, []Check{orientationCheck{}})
	if rep.Ok() {
		t.Fatal("flipped triangle not flagged")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Check == "orientation" && v.Element == victim {
			found = true
			if !strings.Contains(v.Detail, "clockwise") {
				t.Errorf("flip reported as %q, want clockwise", v.Detail)
			}
		}
	}
	if !found {
		t.Errorf("no orientation violation attributed to element %d: %+v", victim, rep.Violations)
	}
}

func TestOutOfRangeIndexFlaggedWithoutPanic(t *testing.T) {
	m := triangulate(t, gridPoints(4))
	m.Triangles[0][2] = int32(len(m.Points)) + 7
	rep := Run(&Snapshot{Mesh: m, StrictDelaunay: true}, All())
	c := findCheck(rep, "orientation")
	if c.Violations == 0 {
		t.Fatalf("out-of-range index not flagged: %+v", rep.Violations)
	}
	if rep.Violations[0].Element != 0 {
		t.Errorf("violation attributed to element %d, want 0", rep.Violations[0].Element)
	}
}

func TestDuplicateAndOrphanFlagged(t *testing.T) {
	m := triangulate(t, gridPoints(4))
	m.Triangles = append(m.Triangles, m.Triangles[3]) // duplicate element
	m.Points = append(m.Points, geom.Pt(-50, -50))    // orphan vertex
	rep := Run(&Snapshot{Mesh: m}, []Check{conformityCheck{}})
	var dup, orphan bool
	for _, v := range rep.Violations {
		if strings.Contains(v.Detail, "duplicate of triangle") {
			dup = true
			if v.Element != m.NumTriangles()-1 {
				t.Errorf("duplicate attributed to element %d, want %d", v.Element, m.NumTriangles()-1)
			}
		}
		if strings.Contains(v.Detail, "orphan point") {
			orphan = true
		}
	}
	if !dup || !orphan {
		t.Errorf("dup=%v orphan=%v, want both flagged: %+v", dup, orphan, rep.Violations)
	}
}

func TestDeletedTriangleTearsBoundary(t *testing.T) {
	m := triangulate(t, gridPoints(6))
	// Find a strictly interior triangle (no boundary edge) and delete it.
	adj := m.Adjacency()
	victim := -1
	for i, a := range adj {
		if a[0] >= 0 && a[1] >= 0 && a[2] >= 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no interior triangle in test mesh")
	}
	m.Triangles = append(m.Triangles[:victim], m.Triangles[victim+1:]...)
	rep := Run(&Snapshot{Mesh: m, StrictDelaunay: true}, []Check{boundaryCheck{}})
	if rep.Ok() {
		t.Fatal("deleted interior triangle not flagged by strict boundary check")
	}
}

// quadMeshes returns the two diagonalizations of a kite quad: the Delaunay
// one and the non-Delaunay one (the flat triangle's circumcircle contains
// the opposite vertex).
func quadPoints() (a, b, c, d geom.Point) {
	return geom.Pt(0, 0), geom.Pt(1, -0.2), geom.Pt(2, 0), geom.Pt(1, 2)
}

func goodQuadMesh() *mesh.Mesh {
	a, b, c, d := quadPoints()
	return &mesh.Mesh{
		Points:    []geom.Point{a, b, c, d},
		Triangles: [][3]int32{{0, 1, 3}, {1, 2, 3}}, // diagonal b-d
	}
}

func badQuadMesh() *mesh.Mesh {
	a, b, c, d := quadPoints()
	return &mesh.Mesh{
		Points:    []geom.Point{a, b, c, d},
		Triangles: [][3]int32{{0, 1, 2}, {0, 2, 3}}, // diagonal a-c: abc is non-Delaunay
	}
}

func TestDelaunayViolationFlagged(t *testing.T) {
	if rep := Run(&Snapshot{Mesh: goodQuadMesh(), StrictDelaunay: true}, All()); !rep.Ok() {
		t.Fatalf("Delaunay diagonal flagged: %+v", rep.Violations)
	}
	rep := Run(&Snapshot{Mesh: badQuadMesh(), StrictDelaunay: true}, []Check{delaunayCheck{}})
	if rep.Ok() {
		t.Fatal("non-Delaunay diagonal not flagged")
	}
	v := rep.Violations[0]
	if v.Check != "delaunay" || v.Element != 0 {
		t.Errorf("violation %+v, want delaunay at element 0", v)
	}
}

// TestConstrainedEdgeExemption verifies the CDT semantics: an edge that is
// a decoupling/constrained path is exempt from the empty-circumcircle
// audit (non-strict mode), and strict mode has no exemptions.
func TestConstrainedEdgeExemption(t *testing.T) {
	a, _, c, _ := quadPoints()
	paths := [][2]geom.Point{{a, c}}
	m := badQuadMesh()
	if rep := Run(&Snapshot{Mesh: m, Paths: paths}, []Check{delaunayCheck{}}); !rep.Ok() {
		t.Fatalf("constrained diagonal not exempt in CDT mode: %+v", rep.Violations)
	}
	if rep := Run(&Snapshot{Mesh: m, Paths: paths, StrictDelaunay: true}, []Check{delaunayCheck{}}); rep.Ok() {
		t.Fatal("strict mode honored a constraint exemption")
	}
}

func TestDecouplingPathEdges(t *testing.T) {
	a, b, c, d := quadPoints()
	paths := [][2]geom.Point{{a, c}}
	// Mesh on diagonal a-c conforms to the path.
	if rep := Run(&Snapshot{Mesh: badQuadMesh(), Paths: paths}, []Check{decoupleCheck{}}); !rep.Ok() {
		t.Fatalf("conforming path edge flagged: %+v", rep.Violations)
	}
	// Mesh on diagonal b-d straddles it.
	rep := Run(&Snapshot{Mesh: goodQuadMesh(), Paths: paths}, []Check{decoupleCheck{}})
	if rep.Ok() {
		t.Fatal("straddled decoupling path not flagged")
	}
	if !strings.Contains(rep.Violations[0].Detail, "straddles") {
		t.Errorf("unexpected detail %q", rep.Violations[0].Detail)
	}
	// A path edge with a single incident triangle means the neighbor sector
	// is missing — unless the edge lies on the far-field border.
	half := &mesh.Mesh{Points: []geom.Point{a, b, c, d}, Triangles: [][3]int32{{0, 2, 3}}}
	rep = Run(&Snapshot{Mesh: half, Paths: paths}, []Check{decoupleCheck{}})
	if rep.Ok() {
		t.Fatal("one-sided path edge not flagged")
	}
	// On the far-field border a single incident triangle is legitimate.
	ff := geom.BBoxOf([]geom.Point{a, b, c, d})
	rep = Run(&Snapshot{
		Mesh:     &mesh.Mesh{Points: []geom.Point{a, c, d}, Triangles: [][3]int32{{0, 1, 2}}},
		Paths:    [][2]geom.Point{{c, d}},
		Farfield: ff,
	}, []Check{decoupleCheck{}})
	if !rep.Ok() {
		t.Fatalf("far-field border path edge flagged: %+v", rep.Violations)
	}
}

// squareLayer builds a synthetic boundary layer around the unit square for
// the boundary-layer checks: one outward ray per vertex, two monotone
// points each.
func squareLayer() *blayer.Layer {
	sq := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}
	l := &blayer.Layer{Surface: pslg.Loop{Points: sq}}
	dirs := []geom.Vec{{X: -1, Y: -1}, {X: 1, Y: -1}, {X: 1, Y: 1}, {X: -1, Y: 1}}
	for i, p := range sq {
		d := dirs[i].Unit()
		l.Rays = append(l.Rays, blayer.Ray{
			Origin: p, Dir: d, MaxLen: math.Inf(1), Tangential: 1, SurfaceIdx: i,
		})
		l.Points = append(l.Points, []geom.Point{
			p.Add(d.Scale(0.1)),
			p.Add(d.Scale(0.25)),
		})
	}
	return l
}

func blSnapshot(l *blayer.Layer) *Snapshot {
	// Any valid mesh satisfies Prepare; the boundary-layer check reads only
	// the layers.
	return &Snapshot{Mesh: goodQuadMesh(), Layers: []*blayer.Layer{l}}
}

func TestBoundaryLayerClean(t *testing.T) {
	rep := Run(blSnapshot(squareLayer()), []Check{blayerCheck{}})
	if !rep.Ok() {
		t.Fatalf("clean synthetic layer flagged: %+v", rep.Violations)
	}
}

func TestBoundaryLayerBackwardStep(t *testing.T) {
	l := squareLayer()
	l.Points[2][1] = l.Rays[2].Origin // second point collapses back onto the origin
	rep := Run(blSnapshot(l), []Check{blayerCheck{}})
	if rep.Ok() {
		t.Fatal("backward extrusion step not flagged")
	}
	if !strings.Contains(rep.Violations[0].Detail, "backward") {
		t.Errorf("unexpected detail %q", rep.Violations[0].Detail)
	}
}

func TestBoundaryLayerTrimEscape(t *testing.T) {
	l := squareLayer()
	l.Rays[1].MaxLen = 0.2 // trimmed below the second point's distance
	rep := Run(blSnapshot(l), []Check{blayerCheck{}})
	if rep.Ok() {
		t.Fatal("point beyond trimmed length not flagged")
	}
	if !strings.Contains(rep.Violations[0].Detail, "exceeds trimmed length") {
		t.Errorf("unexpected detail %q", rep.Violations[0].Detail)
	}
}

func TestBoundaryLayerChainCrossing(t *testing.T) {
	l := squareLayer()
	// Extend ray 0's chain and redirect ray 1 (origin (1,0)) across it while
	// both stay monotone along their own directions.
	l.Points[0] = append(l.Points[0], l.Rays[0].Origin.Add(l.Rays[0].Dir.Scale(1.0)))
	dir := geom.V(-2, -0.5).Unit()
	l.Rays[1].Dir = dir
	l.Points[1] = []geom.Point{geom.Pt(-1, -0.5)}
	rep := Run(blSnapshot(l), []Check{blayerCheck{}})
	if rep.Ok() {
		t.Fatal("crossing extrusion chains not flagged")
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v.Detail, "cross") {
			found = true
		}
	}
	if !found {
		t.Errorf("no crossing violation recorded: %+v", rep.Violations)
	}
}

func TestBoundaryLayerRayOrder(t *testing.T) {
	l := squareLayer()
	l.Rays[2].SurfaceIdx = 0 // out of loop order
	rep := Run(blSnapshot(l), []Check{blayerCheck{}})
	if rep.Ok() {
		t.Fatal("out-of-order ray not flagged")
	}
}

func TestSurfaceRecovery(t *testing.T) {
	// Triangulate an annulus-like domain: square outer boundary with a
	// triangular hole whose loop is the "surface".
	outer := []geom.Point{geom.Pt(-2, -2), geom.Pt(3, -2), geom.Pt(3, 3), geom.Pt(-2, 3)}
	hole := []geom.Point{geom.Pt(0.2, 0.2), geom.Pt(0.8, 0.3), geom.Pt(0.5, 0.8)}
	pts := append(append([]geom.Point{}, outer...), hole...)
	segs := [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}, {6, 4}}
	res, err := delaunay.Triangulate(delaunay.Input{
		Points:   pts,
		Segments: segs,
		Holes:    []geom.Point{geom.Pt(0.5, 0.4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := &mesh.Mesh{Points: res.Points, Triangles: res.Triangles}
	layer := &blayer.Layer{Surface: pslg.Loop{Points: hole}}
	s := &Snapshot{Mesh: m, Layers: []*blayer.Layer{layer}}
	rep := Run(s, []Check{boundaryCheck{}})
	if !rep.Ok() {
		t.Fatalf("recovered surface flagged: %+v", rep.Violations)
	}
	// Knock the hole out of the mesh entirely: surface segments are gone.
	res2, err := delaunay.Triangulate(delaunay.Input{Points: outer})
	if err != nil {
		t.Fatal(err)
	}
	m2 := &mesh.Mesh{Points: res2.Points, Triangles: res2.Triangles}
	rep = Run(&Snapshot{Mesh: m2, Layers: []*blayer.Layer{layer}}, []Check{boundaryCheck{}})
	if rep.Ok() {
		t.Fatal("missing surface not flagged")
	}
}

// A surface segment whose endpoints are mesh vertices but which no
// triangle uses must be reported, not divide by its zero use count.
func TestSurfaceSegmentNotRecovered(t *testing.T) {
	a, _, c, d := quadPoints()
	// goodQuadMesh's diagonal is b-d, so a-c is an edge of no triangle;
	// c-d and d-a are boundary edges.
	layer := &blayer.Layer{Surface: pslg.Loop{Points: []geom.Point{a, c, d}}}
	rep := Run(&Snapshot{Mesh: goodQuadMesh(), Layers: []*blayer.Layer{layer}}, []Check{boundaryCheck{}})
	if len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0].Detail, "segment 0") ||
		!strings.Contains(rep.Violations[0].Detail, "not recovered") {
		t.Fatalf("want one unrecovered-segment violation for segment 0, got %+v", rep.Violations)
	}
}

func TestByName(t *testing.T) {
	checks, err := ByName("orientation, delaunay")
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) != 2 || checks[0].Name() != "orientation" || checks[1].Name() != "delaunay" {
		t.Fatalf("ByName returned %v", checks)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown check accepted")
	}
	if _, err := ByName(" , "); err == nil {
		t.Fatal("empty selection accepted")
	}
}

// sequentialRun is the reference Run is held to: each check once over the
// whole mesh, in order, on the caller's goroutine.
func sequentialRun(s *Snapshot, checks []Check) *Report {
	s.Prepare()
	rep := &Report{}
	for _, c := range checks {
		if !c.Applicable(s) {
			rep.Checks = append(rep.Checks, CheckStat{Name: c.Name(), Skipped: true})
			continue
		}
		r := NewReporter(c.Name())
		c.Run(s, 0, s.Mesh.NumTriangles(), r)
		rep.Checks = append(rep.Checks, CheckStat{Name: c.Name(), Elements: s.Mesh.NumTriangles(), Violations: r.Count()})
		rep.Violations = append(rep.Violations, r.Violations()...)
	}
	return rep
}

// TestPlanJobsMatchesSequential verifies chunked local execution finds
// exactly what a sequential run finds, and that Run's parallel fold is the
// sequential loop's report: the same counts and, past the recording cap,
// the same first violations in element order.
func TestPlanJobsMatchesSequential(t *testing.T) {
	m := triangulate(t, gridPoints(7))
	// Flip two triangles far apart.
	for _, i := range []int{1, m.NumTriangles() - 2} {
		m.Triangles[i][0], m.Triangles[i][1] = m.Triangles[i][1], m.Triangles[i][0]
	}
	s := &Snapshot{Mesh: m}
	s.Prepare()
	checks := []Check{orientationCheck{}, conformityCheck{}}
	jobs, skipped := PlanJobs(s, checks, 10)
	if len(skipped) != 0 {
		t.Fatalf("unexpected skips: %v", skipped)
	}
	if len(jobs) < 3 {
		t.Fatalf("chunking produced only %d jobs", len(jobs))
	}
	var got []Violation
	for _, j := range jobs {
		r := NewReporter(j.Check.Name())
		j.Check.Run(s, j.From, j.To, r)
		got = append(got, r.Violations()...)
	}
	want := Run(&Snapshot{Mesh: m}, checks).Violations
	if len(got) != len(want) {
		t.Fatalf("chunked run found %d violations, sequential %d", len(got), len(want))
	}

	// Every fifth triangle of a mesh several chunks long flipped: well over
	// maxRecorded orientation violations, in every chunk.
	big := triangulate(t, gridPoints(60))
	if big.NumTriangles() < 3*jobChunk {
		t.Fatalf("%d triangles make fewer than three chunks of %d", big.NumTriangles(), jobChunk)
	}
	for i := 0; i < big.NumTriangles(); i += 5 {
		big.Triangles[i][0], big.Triangles[i][1] = big.Triangles[i][1], big.Triangles[i][0]
	}
	rep := Run(&Snapshot{Mesh: big}, All())
	ref := sequentialRun(&Snapshot{Mesh: big}, All())
	if o := findCheck(ref, "orientation"); o.Violations <= maxRecorded {
		t.Fatalf("only %d orientation violations, want more than %d", o.Violations, maxRecorded)
	}
	for i := range rep.Checks {
		rep.Checks[i].Wall, rep.Checks[i].Allocs = 0, 0
	}
	if !reflect.DeepEqual(rep.Checks, ref.Checks) {
		t.Errorf("checks\n got %+v\nwant %+v", rep.Checks, ref.Checks)
	}
	if !reflect.DeepEqual(rep.Violations, ref.Violations) {
		t.Errorf("Run recorded %d violations, the sequential loop %d, or in another order", len(rep.Violations), len(ref.Violations))
	}
}

// panicCheck is a check with a bug.
type panicCheck struct{}

func (panicCheck) Name() string                       { return "panics" }
func (panicCheck) Applicable(*Snapshot) bool          { return true }
func (panicCheck) Local() bool                        { return false }
func (panicCheck) Run(*Snapshot, int, int, *Reporter) { panic("boom") }

// TestCheckPanic: a panicking check is an error naming it from RunContext,
// and a panic with the original value from Run, on the caller's goroutine.
func TestCheckPanic(t *testing.T) {
	checks := []Check{orientationCheck{}, panicCheck{}}
	_, err := RunContext(context.Background(), &Snapshot{Mesh: goodQuadMesh()}, checks)
	if err == nil || !strings.Contains(err.Error(), "panics") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("RunContext returned %v, want an error naming the check and the panic", err)
	}
	defer func() {
		if p := recover(); p != "boom" {
			t.Errorf("Run panicked with %v, want the check's boom", p)
		}
	}()
	Run(&Snapshot{Mesh: goodQuadMesh()}, checks)
}

// cancelCheck cancels the audit from its first job; every other job waits
// for that, so each goroutine runs at most one job.
type cancelCheck struct {
	ctx    context.Context
	cancel context.CancelCauseFunc
	ran    *atomic.Int64
}

func (cancelCheck) Name() string              { return "cancels" }
func (cancelCheck) Applicable(*Snapshot) bool { return true }
func (cancelCheck) Local() bool               { return true }
func (c cancelCheck) Run(*Snapshot, int, int, *Reporter) {
	if c.ran.Add(1) == 1 {
		c.cancel(errStop)
	}
	<-c.ctx.Done()
}

var errStop = errors.New("stop the audit")

// TestCancelStopsHandingOutJobs: canceling the context returns its cause
// before every job has run, and a context canceled up front runs none.
func TestCancelStopsHandingOutJobs(t *testing.T) {
	// Triangles of no point: Prepare skips them, and cancelCheck reads
	// nothing. One job more than goroutines, whatever GOMAXPROCS is.
	jobs := runtime.GOMAXPROCS(0) + 1
	s := &Snapshot{Mesh: &mesh.Mesh{Triangles: make([][3]int32, jobs*jobChunk)}}
	for _, upFront := range []bool{false, true} {
		ctx, cancel := context.WithCancelCause(context.Background())
		c := cancelCheck{ctx: ctx, cancel: cancel, ran: new(atomic.Int64)}
		if upFront {
			cancel(errStop)
		}
		_, err := RunContext(ctx, s, []Check{c})
		if !errors.Is(err, errStop) {
			t.Errorf("up front %v: RunContext returned %v, want the cancel cause", upFront, err)
		}
		if ran := c.ran.Load(); ran >= int64(jobs) || upFront && ran != 0 {
			t.Errorf("up front %v: %d of %d jobs ran", upFront, ran, jobs)
		}
	}
}

func TestReporterCap(t *testing.T) {
	r := NewReporter("x")
	for i := 0; i < maxRecorded+50; i++ {
		r.Reportf(i, "v")
	}
	if r.Count() != maxRecorded+50 {
		t.Errorf("Count = %d, want %d", r.Count(), maxRecorded+50)
	}
	if len(r.Violations()) != maxRecorded {
		t.Errorf("recorded %d violations, want cap %d", len(r.Violations()), maxRecorded)
	}
}

func TestReportError(t *testing.T) {
	rep := Run(&Snapshot{Mesh: badQuadMesh(), StrictDelaunay: true}, []Check{delaunayCheck{}})
	err := rep.Error()
	if err == nil {
		t.Fatal("failing report produced nil error")
	}
	if !strings.Contains(err.Error(), "delaunay") {
		t.Errorf("error %q does not name the failing check", err)
	}
	clean := Run(&Snapshot{Mesh: goodQuadMesh()}, []Check{orientationCheck{}})
	if clean.Error() != nil {
		t.Errorf("clean report produced error %v", clean.Error())
	}
}

func TestAdaptedProfile(t *testing.T) {
	names := map[string]bool{}
	for _, c := range Adapted() {
		names[c.Name()] = true
	}
	if names["delaunay"] {
		t.Fatal("Adapted profile includes the delaunay check")
	}
	if len(Adapted()) != len(All())-1 {
		t.Fatalf("Adapted has %d checks, want %d", len(Adapted()), len(All())-1)
	}
	for _, want := range []string{"orientation", "conformity", "boundary"} {
		if !names[want] {
			t.Fatalf("Adapted profile missing %q", want)
		}
	}
	// A structurally sound but non-Delaunay mesh (anisotropic-style sliver
	// pair) must pass Adapted and fail All under strict mode.
	m := &mesh.Mesh{
		Points: []geom.Point{
			{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 0.05}, {X: 0, Y: 0.05},
		},
		Triangles: [][3]int32{{0, 1, 2}, {0, 2, 3}},
	}
	if rep := Run(&Snapshot{Mesh: m, StrictDelaunay: true}, Adapted()); !rep.Ok() {
		t.Fatalf("adapted profile rejected a structurally sound mesh: %+v", rep)
	}
}
