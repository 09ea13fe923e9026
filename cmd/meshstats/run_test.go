package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
)

func sampleMesh() *mesh.Mesh {
	b := mesh.NewBuilder()
	b.AddTriangle(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1))
	b.AddTriangle(geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(0, 1))
	return b.Mesh()
}

func writeSample(t *testing.T, binary bool) string {
	t.Helper()
	return writeMesh(t, sampleMesh(), binary)
}

func writeMesh(t *testing.T, m *mesh.Mesh, binary bool) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.dat")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if binary {
		err = m.WriteBinary(f)
	} else {
		err = m.WriteASCII(f)
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestStatsASCIIAuto(t *testing.T) {
	path := writeSample(t, false)
	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"triangles     2", "audit         ok", "min angle     45.00", "40- 50 deg"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestStatsBinaryAuto(t *testing.T) {
	path := writeSample(t, true)
	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "triangles     2") {
		t.Errorf("binary auto-detect failed:\n%s", out.String())
	}
}

// TestStatsTriangleSet checks the triangle set line: the same triangles
// with the points permuted, the triangles reordered and each starting at
// another corner print the same line, in either format; moving one point
// changes it.
func TestStatsTriangleSet(t *testing.T) {
	setLine := func(m *mesh.Mesh, binary bool) string {
		t.Helper()
		var out bytes.Buffer
		if err := run([]string{writeMesh(t, m, binary)}, &out); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "triangle set  ") {
				return line
			}
		}
		t.Fatalf("no triangle set line:\n%s", out.String())
		return ""
	}
	b := mesh.NewBuilder()
	b.AddTriangle(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1))
	b.AddTriangle(geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(0, 1))
	b.AddTriangle(geom.Pt(1, 0), geom.Pt(2, 0.5), geom.Pt(1, 1))
	m := b.Mesh()
	want := setLine(m, false)

	// Reverse the points and the triangles; rotate each triangle by one.
	n := int32(len(m.Points))
	perm := &mesh.Mesh{Points: slices.Clone(m.Points)}
	slices.Reverse(perm.Points)
	for i := len(m.Triangles) - 1; i >= 0; i-- {
		tri := m.Triangles[i]
		perm.Triangles = append(perm.Triangles, [3]int32{n - 1 - tri[1], n - 1 - tri[2], n - 1 - tri[0]})
	}
	if got := setLine(perm, true); got != want {
		t.Errorf("reordered copy prints %q, want %q", got, want)
	}

	moved := &mesh.Mesh{Points: slices.Clone(m.Points), Triangles: m.Triangles}
	moved.Points[len(moved.Points)-1].X += 0.25
	if got := setLine(moved, false); got == want {
		t.Errorf("moving a point left the line at %q", got)
	}
}

func TestStatsExplicitFormats(t *testing.T) {
	ascii := writeSample(t, false)
	bin := writeSample(t, true)
	var out bytes.Buffer
	if err := run([]string{"-format", "ascii", ascii}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-format", "binary", bin}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-format", "binary", ascii}, &out); err == nil {
		t.Error("reading ASCII as binary must fail")
	}
}

func TestStatsErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Error("missing file argument must fail")
	}
	if err := run([]string{"/nonexistent"}, &out); err == nil {
		t.Error("missing file must fail")
	}
	if err := run([]string{"-format", "bogus", writeSample(t, false)}, &out); err == nil {
		t.Error("bogus format must fail")
	}
}

func TestStatsFailedAudit(t *testing.T) {
	// Write a mesh with a CW triangle directly.
	m := &mesh.Mesh{
		Points:    []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)},
		Triangles: [][3]int32{{0, 2, 1}},
	}
	path := filepath.Join(t.TempDir(), "bad.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteASCII(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out bytes.Buffer
	if err := run([]string{path}, &out); err == nil {
		t.Error("failed audit must surface as an error")
	}
	if !strings.Contains(out.String(), "FAILED") {
		t.Error("report must mark the failed audit")
	}
}

func TestStatsMetricSection(t *testing.T) {
	path := writeSample(t, false)
	var out bytes.Buffer
	if err := run([]string{"-metric", "uniform:h=0.5", path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"metric        uniform:h=0.5", "metric edges  5", "in band", "anisotropy"} {
		if !strings.Contains(s, want) {
			t.Errorf("metric section missing %q:\n%s", want, s)
		}
	}
	// The unit square under h=0.5 has edges of metric length 2 and 2*sqrt2:
	// none in the quasi-unit band.
	if !strings.Contains(s, "in band       0.0%") {
		t.Errorf("expected no edges in band:\n%s", s)
	}
	if err := run([]string{"-metric", "bogus:spec", path}, &out); err == nil {
		t.Error("bogus metric spec must fail")
	}
}
