package cli

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
	"pamg2d/internal/trace"
)

// TestReadMeshBothFormats: a file in either format reads back as the mesh
// written, and a read error names the file.
func TestReadMeshBothFormats(t *testing.T) {
	b := mesh.NewBuilder()
	b.AddTriangle(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1))
	m := b.Mesh()
	dir := t.TempDir()
	for _, name := range []string{"ascii", "binary"} {
		f, err := mesh.OutputFormat(name)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := WriteFile(path, func(w io.Writer) error { return f.Write(m, w) }); err != nil {
			t.Fatal(err)
		}
		got, err := ReadMesh(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.NumPoints() != 3 || got.NumTriangles() != 1 {
			t.Errorf("%s: read %d points, %d triangles", name, got.NumPoints(), got.NumTriangles())
		}
	}
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("D2M"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMesh(bad); err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("truncated file: err = %v, want one naming %s", err, bad)
	}
}

// TestWriteFileReturnsEmitError: the emitter's error wins, and the file
// is closed either way.
func TestWriteFileReturnsEmitError(t *testing.T) {
	boom := errors.New("boom")
	err := WriteFile(filepath.Join(t.TempDir(), "f"), func(io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the emitter's", err)
	}
	if err := WriteFile(filepath.Join(t.TempDir(), "no", "such", "dir"), nil); err == nil {
		t.Error("an uncreatable path wrote without error")
	}
}

func TestNewLogger(t *testing.T) {
	if l, err := NewLogger(io.Discard, "text", "off"); l != nil || err != nil {
		t.Errorf("level off: %v, %v, want nil, nil", l, err)
	}
	for _, format := range []string{"text", "json"} {
		if l, err := NewLogger(io.Discard, format, "warn"); l == nil || err != nil {
			t.Errorf("%s/warn: %v, %v", format, l, err)
		}
	}
	if _, err := NewLogger(io.Discard, "xml", "info"); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := NewLogger(io.Discard, "text", "loud"); err == nil {
		t.Error("unknown level accepted")
	}
}

// TestWriteObservability: the trace written is the validated merge of the
// snapshots, and the metrics file is the tracer's registry.
func TestWriteObservability(t *testing.T) {
	tr := trace.New(1)
	tr.Metrics().Count("cli.test", 1)
	dir := t.TempDir()
	tp, mp := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.json")
	if err := WriteObservability(tr, tp, mp, []*trace.Telemetry{tr.Export(0)}, nil, ""); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(tp)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := trace.ValidateTrace(f); err != nil {
		t.Errorf("trace invalid: %v", err)
	}
	m, err := os.ReadFile(mp)
	if err != nil || !strings.Contains(string(m), "cli.test") {
		t.Errorf("metrics file: %v\n%s", err, m)
	}
}
