package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunGeneratesAllFigures(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(dir, &out); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fig02_normals.svg", "fig04_fans.svg", "fig05_isotropy.svg",
		"fig08_subdomains.svg", "fig09_quadrants.svg", "fig10_decoupled.svg",
		"fig13_intersections.svg", "mesh.svg",
	}
	for _, name := range want {
		path := filepath.Join(dir, name)
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Size() < 500 {
			t.Errorf("%s is suspiciously small (%d bytes)", name, st.Size())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "<svg") {
			t.Errorf("%s is not an SVG", name)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "eval.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec evalRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("eval.json: %v", err)
	}
	if rec.Scaling == nil || rec.Convergence == nil || rec.Host.NumCPU < 1 || rec.Host.GoVersion == "" {
		t.Errorf("eval.json lacks a study or the host:\n%s", data)
	}
	if got := strings.Count(out.String(), "wrote "); got != len(want)+1 {
		t.Errorf("log lines = %d, want %d", got, len(want)+1)
	}
}

// TestScalingStudySmall runs Figures 11/12 on a small calibration mesh:
// the table reaches 16 ranks and the sequential fraction is measured.
func TestScalingStudySmall(t *testing.T) {
	var out bytes.Buffer
	r, err := scalingStudy(scalingSetup{N: 24, SubdomainsPerRank: 16, MaxRanks: 16, H0: 0.08, HMax: 2}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "      16 ") {
		t.Errorf("no 16-rank row:\n%s", out.String())
	}
	if r.SerialS <= 0 || r.TaskS <= 0 || len(r.Points) != 5 || r.Points[4].Ranks != 16 {
		t.Errorf("serial_s %v, task_s %v, points %+v", r.SerialS, r.TaskS, r.Points)
	}
}

// TestConvergenceStudySmall runs Figure 16 on small meshes: both solves
// record their iterations, and the element ratio is iso over aniso.
func TestConvergenceStudySmall(t *testing.T) {
	var out bytes.Buffer
	r, err := convergenceStudy(convergenceSetup{N: 20, Layers: 8, BLH0: 4e-3, IsoFactor: 3, Tol: 1e-6}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if r.Aniso.Iterations <= 0 || r.Iso.Iterations <= 0 {
		t.Errorf("iterations: aniso %d, iso %d", r.Aniso.Iterations, r.Iso.Iterations)
	}
	if want := float64(r.Iso.Triangles) / float64(r.Aniso.Triangles); r.ElementRatio != want || want <= 0 {
		t.Errorf("element ratio %v, want %v", r.ElementRatio, want)
	}
	for _, s := range []string{"anisotropic", "isotropic", "element ratio", "iteration ratio", "stagnation"} {
		if !strings.Contains(out.String(), s) {
			t.Errorf("output missing %q:\n%s", s, out.String())
		}
	}
}
