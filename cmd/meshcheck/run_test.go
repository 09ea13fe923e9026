package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
)

// gridMesh triangulates a deterministic jittered n x n grid.
func gridMesh(t *testing.T, n int) *mesh.Mesh {
	t.Helper()
	pts := make([]geom.Point, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dx := float64((i*7+j*13)%11) / 37
			dy := float64((i*5+j*17)%13) / 41
			pts = append(pts, geom.Pt(float64(i)+dx, float64(j)+dy))
		}
	}
	res, err := delaunay.Triangulate(delaunay.Input{Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	return &mesh.Mesh{Points: res.Points, Triangles: res.Triangles}
}

// writeMesh writes m in the given format to a temp file and returns the
// path.
func writeMesh(t *testing.T, m *mesh.Mesh, format string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "mesh."+format)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if format == "binary" {
		err = m.WriteBinary(f)
	} else {
		err = m.WriteASCII(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// check runs meshcheck and decodes the JSON report.
func check(t *testing.T, args ...string) (report, error) {
	t.Helper()
	var out, errb bytes.Buffer
	err := run(args, &out, &errb)
	var rep report
	if out.Len() > 0 {
		if jerr := json.Unmarshal(out.Bytes(), &rep); jerr != nil {
			t.Fatalf("report is not valid JSON: %v\n%s", jerr, out.String())
		}
	}
	return rep, err
}

func TestCleanMeshPasses(t *testing.T) {
	m := gridMesh(t, 8)
	for _, format := range []string{"ascii", "binary"} {
		path := writeMesh(t, m, format)
		// Auto-detection must handle both formats; -delaunay is sound here
		// because the grid triangulation has no constrained edges.
		rep, err := check(t, "-delaunay", path)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if !rep.Ok {
			t.Fatalf("%s: clean mesh flagged: %+v", format, rep.Violations)
		}
		if rep.Points != m.NumPoints() || rep.Triangles != m.NumTriangles() {
			t.Errorf("%s: report sizes %d/%d, want %d/%d", format, rep.Points, rep.Triangles, m.NumPoints(), m.NumTriangles())
		}
		for _, c := range rep.Checks {
			switch c.Name {
			case "orientation", "conformity", "boundary", "delaunay":
				if c.Skipped {
					t.Errorf("%s: check %s skipped", format, c.Name)
				}
			case "boundary-layer", "decoupling":
				if !c.Skipped {
					t.Errorf("%s: check %s ran without its inputs", format, c.Name)
				}
			}
		}
	}
}

// TestDefaultChecksAreStructural: without -delaunay the circumcircle
// check must not run — a mesh file does not record which edges were
// constrained, so CDT output from meshgen would otherwise be flagged.
func TestDefaultChecksAreStructural(t *testing.T) {
	m := &mesh.Mesh{
		Points: []geom.Point{
			geom.Pt(0, 0), geom.Pt(1, -0.2), geom.Pt(2, 0), geom.Pt(1, 2),
		},
		// Non-Delaunay diagonal, as a CDT with a constrained a-c edge
		// would legally produce.
		Triangles: [][3]int32{{0, 1, 2}, {0, 2, 3}},
	}
	rep, err := check(t, writeMesh(t, m, "ascii"))
	if err != nil {
		t.Fatalf("structural audit of a CDT-shaped mesh failed: %v", err)
	}
	for _, c := range rep.Checks {
		if c.Name == "delaunay" {
			t.Error("delaunay check ran without -delaunay")
		}
	}
	if !rep.Ok {
		t.Errorf("structurally sound mesh flagged: %+v", rep.Violations)
	}
}

// TestFlippedTriangleFlagged: re-orienting one element must fail the check
// run with the element attributed in the report, while the report itself
// still prints.
func TestFlippedTriangleFlagged(t *testing.T) {
	m := gridMesh(t, 6)
	victim := m.NumTriangles() / 2
	m.Triangles[victim][1], m.Triangles[victim][2] = m.Triangles[victim][2], m.Triangles[victim][1]
	rep, err := check(t, writeMesh(t, m, "ascii"))
	if !errors.Is(err, errViolations) {
		t.Fatalf("err = %v, want errViolations", err)
	}
	if rep.Ok {
		t.Fatal("report claims ok with a flipped triangle")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Check == "orientation" && v.Element == victim {
			found = true
		}
	}
	if !found {
		t.Errorf("no orientation violation attributes element %d: %+v", victim, rep.Violations)
	}
}

// TestDeletedTriangleFlaggedStrict: removing an interior element tears a
// hole in the mesh; strict mode requires a single watertight boundary
// loop, so the audit must flag it.
func TestDeletedTriangleFlaggedStrict(t *testing.T) {
	m := gridMesh(t, 6)
	adj := m.Adjacency()
	victim := -1
	for i, a := range adj {
		if a[0] >= 0 && a[1] >= 0 && a[2] >= 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no interior triangle in the grid mesh")
	}
	m.Triangles = append(m.Triangles[:victim], m.Triangles[victim+1:]...)
	path := writeMesh(t, m, "ascii")
	rep, err := check(t, "-strict", path)
	if !errors.Is(err, errViolations) {
		t.Fatalf("err = %v, want errViolations", err)
	}
	found := false
	for _, v := range rep.Violations {
		if v.Check == "boundary" {
			found = true
		}
	}
	if !found {
		t.Errorf("torn mesh produced no boundary violation: %+v", rep.Violations)
	}
	// Without -strict, the hole is a legal inner boundary.
	if _, err := check(t, path); err != nil {
		t.Errorf("non-strict audit of the torn mesh failed: %v", err)
	}
}

// TestRediagonalizedQuadFlagged: flipping a convex quad onto its
// non-Delaunay diagonal must trip the empty-circumcircle check.
func TestRediagonalizedQuadFlagged(t *testing.T) {
	m := &mesh.Mesh{
		Points: []geom.Point{
			geom.Pt(0, 0), geom.Pt(1, -0.2), geom.Pt(2, 0), geom.Pt(1, 2),
		},
		// The a-c diagonal: the flat triangle (a,b,c)'s circumcircle
		// contains d.
		Triangles: [][3]int32{{0, 1, 2}, {0, 2, 3}},
	}
	rep, err := check(t, "-delaunay", writeMesh(t, m, "ascii"))
	if !errors.Is(err, errViolations) {
		t.Fatalf("err = %v, want errViolations", err)
	}
	found := false
	for _, v := range rep.Violations {
		if v.Check == "delaunay" {
			found = true
		}
	}
	if !found {
		t.Errorf("non-Delaunay diagonal not flagged: %+v", rep.Violations)
	}
}

// TestChecksSelection: -checks restricts the run to the named checks.
func TestChecksSelection(t *testing.T) {
	m := gridMesh(t, 5)
	victim := m.NumTriangles() / 2
	m.Triangles[victim][1], m.Triangles[victim][2] = m.Triangles[victim][2], m.Triangles[victim][1]
	path := writeMesh(t, m, "ascii")
	// Conformity alone does not look at orientation, but the flipped
	// triangle's reversed directed edges collide with its neighbors'.
	rep, err := check(t, "-checks", "conformity", path)
	if !errors.Is(err, errViolations) {
		t.Fatalf("err = %v, want errViolations", err)
	}
	if len(rep.Checks) != 1 || rep.Checks[0].Name != "conformity" {
		t.Errorf("checks = %+v, want conformity alone", rep.Checks)
	}
}

// TestCorruptedFileIsReadError: an element referencing a missing vertex
// must fail the read (exit-2 class), not the audit.
func TestCorruptedFileIsReadError(t *testing.T) {
	m := gridMesh(t, 4)
	path := writeMesh(t, m, "binary")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idxOff := 12 + 16*m.NumPoints()
	binary.LittleEndian.PutUint32(data[idxOff:], uint32(int32(m.NumPoints()+100)))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = check(t, path)
	if err == nil || errors.Is(err, errViolations) {
		t.Fatalf("corrupted file: err = %v, want a read error", err)
	}
	var re *mesh.ElemRefError
	if !errors.As(err, &re) {
		t.Errorf("read error is %T (%v), want *mesh.ElemRefError", err, err)
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(nil, &out, &errb); err == nil {
		t.Error("no arguments must fail")
	}
	if err := run([]string{"/nonexistent/mesh.txt"}, &out, &errb); err == nil {
		t.Error("missing file must fail")
	}
	if err := run([]string{"-checks", "bogus", "x"}, &out, &errb); err == nil {
		t.Error("unknown check name must fail")
	}
}
