package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pamg2d/internal/audit"
	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
)

// grid writes an n×n structured unit-square mesh to a temp file.
func grid(t *testing.T, n int, binary bool) string {
	t.Helper()
	b := mesh.NewBuilder()
	h := 1.0 / float64(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p00 := geom.Pt(float64(i)*h, float64(j)*h)
			p10 := geom.Pt(float64(i+1)*h, float64(j)*h)
			p01 := geom.Pt(float64(i)*h, float64(j+1)*h)
			p11 := geom.Pt(float64(i+1)*h, float64(j+1)*h)
			b.AddTriangle(p00, p10, p11)
			b.AddTriangle(p00, p11, p01)
		}
	}
	m := b.Mesh()
	path := filepath.Join(t.TempDir(), "grid.mesh")
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

func TestAdaptAnalyticSpec(t *testing.T) {
	in := grid(t, 4, false)
	out := filepath.Join(t.TempDir(), "out.mesh")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-metric", "uniform:h=0.125", "-o", out, in}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "cycle 0") {
		t.Errorf("missing cycle report:\n%s", stderr.String())
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := mesh.ReadASCII(f)
	if err != nil {
		t.Fatal(err)
	}
	// h=0.125 on a 4x4 grid quadruples the resolution.
	if m.NumTriangles() <= 32 {
		t.Errorf("refinement produced only %d triangles", m.NumTriangles())
	}
	if rep := audit.Run(&audit.Snapshot{Mesh: m}, audit.Adapted()); !rep.Ok() {
		t.Errorf("adapted output fails audit: %+v", rep.Violations)
	}
}

func TestAdaptBinaryInOut(t *testing.T) {
	in := grid(t, 4, true)
	out := filepath.Join(t.TempDir(), "out.bin")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-metric", "uniform:h=0.25", "-format", "binary", "-q", "-o", out, in}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("-q must silence the reports: %s", stderr.String())
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := mesh.ReadBinary(f); err != nil {
		t.Fatalf("binary output unreadable: %v", err)
	}
}

func TestAdaptHessianSource(t *testing.T) {
	in := grid(t, 8, false)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-metric", "hessian", "-cycles", "1", "-q", "-o", filepath.Join(t.TempDir(), "h.mesh"), in}, &stdout, &stderr); err != nil {
		t.Fatalf("hessian run: %v\n%s", err, stderr.String())
	}
}

func TestAdaptObservability(t *testing.T) {
	in := grid(t, 4, false)
	dir := t.TempDir()
	tr, mts := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.json")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-metric", "uniform:h=0.25", "-q", "-trace", tr, "-metrics", mts, "-o", filepath.Join(dir, "o.mesh"), in}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	b, err := os.ReadFile(mts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "adapt.split") {
		t.Errorf("metrics file missing adapt counters:\n%s", b)
	}
	if _, err := os.Stat(tr); err != nil {
		t.Errorf("trace file missing: %v", err)
	}
}

// TestAdaptWorkersInvariant: the written mesh is the same bytes for every
// -workers value.
func TestAdaptWorkersInvariant(t *testing.T) {
	in := grid(t, 6, false)
	dir := t.TempDir()
	var ref []byte
	for _, w := range []string{"1", "3"} {
		out := filepath.Join(dir, "w"+w+".mesh")
		var stdout, stderr bytes.Buffer
		err := run([]string{"-metric", "bl:x0=0,y0=0,x1=1,y1=0,hn=0.03,ht=0.2,grow=0.7", "-workers", w, "-q", "-o", out, in}, &stdout, &stderr)
		if err != nil {
			t.Fatalf("-workers %s: %v\n%s", w, err, stderr.String())
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = b
		} else if !bytes.Equal(ref, b) {
			t.Fatalf("-workers %s wrote a different mesh than -workers 1", w)
		}
	}
}

func TestAdaptErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{}, &stdout, &stderr); err == nil {
		t.Error("missing file argument must fail")
	}
	if err := run([]string{"/nonexistent"}, &stdout, &stderr); err == nil {
		t.Error("missing file must fail")
	}
	in := grid(t, 2, false)
	if err := run([]string{"-ranks", "2", in}, &stdout, &stderr); err == nil {
		t.Error("-ranks is not a flag of meshadapt and must fail")
	}
	if err := run([]string{"-metric", "bogus", in}, &stdout, &stderr); err == nil {
		t.Error("bogus metric spec must fail")
	}
	if err := run([]string{"-metric", "uniform:h=0.5", "-format", "bogus", in}, &stdout, &stderr); err == nil {
		t.Error("bogus output format must fail")
	}
}
