package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pamg2d/internal/audit"
	"pamg2d/internal/core"
	"pamg2d/internal/mesh"
	"pamg2d/internal/trace"
)

func fastArgs(extra ...string) []string {
	base := []string{
		"-n", "24", "-farfield", "6", "-ranks", "1",
		"-h0", "0.08", "-hmax", "2", "-bl-h0", "3e-3", "-bl-layers", "8",
	}
	return append(base, extra...)
}

func TestRunASCII(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), fastArgs(), &out, &errb); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("no mesh written")
	}
	if !strings.Contains(errb.String(), "triangles") {
		t.Errorf("stats missing: %q", errb.String())
	}
	// The time line leads with the run's total and its root-side share.
	var total, serial time.Duration
	for _, line := range strings.Split(errb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "time"); ok {
			f := strings.Fields(strings.ReplaceAll(rest, ",", ""))
			if len(f) >= 4 && f[0] == "total" && f[2] == "serial" {
				total, _ = time.ParseDuration(f[1])
				serial, _ = time.ParseDuration(f[3])
			}
		}
	}
	if total <= 0 || serial <= 0 || serial > total {
		t.Errorf("time line: total %v, serial %v, want 0 < serial <= total:\n%s", total, serial, errb.String())
	}
}

func TestRunQuietSuppressesStats(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), fastArgs("-q"), &out, &errb); err != nil {
		t.Fatal(err)
	}
	if errb.Len() != 0 {
		t.Errorf("quiet mode still wrote stats: %q", errb.String())
	}
}

func TestRunVTKAndBinary(t *testing.T) {
	for _, format := range []string{"vtk", "binary"} {
		var out, errb bytes.Buffer
		if err := run(context.Background(), fastArgs("-q", "-format", format), &out, &errb); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if out.Len() == 0 {
			t.Fatalf("%s: empty output", format)
		}
	}
}

func TestRunPolyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	poly := filepath.Join(dir, "g.poly")
	mesh1 := filepath.Join(dir, "m1.txt")
	var out, errb bytes.Buffer
	if err := run(context.Background(), fastArgs("-q", "-write-poly", poly, "-o", mesh1), &out, &errb); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(poly); err != nil {
		t.Fatal(err)
	}
	// Regenerate from the exported geometry.
	mesh2 := filepath.Join(dir, "m2.txt")
	if err := run(context.Background(), fastArgs("-q", "-input", poly, "-o", mesh2), &out, &errb); err != nil {
		t.Fatal(err)
	}
	s1, err := os.Stat(mesh1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := os.Stat(mesh2)
	if err != nil {
		t.Fatal(err)
	}
	// The same geometry should produce meshes of very similar size.
	ratio := float64(s2.Size()) / float64(s1.Size())
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("poly round trip produced divergent meshes: %d vs %d bytes", s1.Size(), s2.Size())
	}
}

// TestRunAudit: an audited generation passes on real output and reports
// the audit in the stats footer.
func TestRunAudit(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), fastArgs("-audit"), &out, &errb); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("no mesh written")
	}
	if !strings.Contains(errb.String(), "audit") {
		t.Errorf("stats missing the audit line: %q", errb.String())
	}
}

// TestRunTraceAndMetrics: -trace and -metrics write validating files, and
// the trace has one process track per rank plus the root pipeline track.
func TestRunTraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	var out, errb bytes.Buffer
	args := fastArgs("-q", "-ranks", "2", "-audit",
		"-trace", tracePath, "-metrics", metricsPath)
	if err := run(context.Background(), args, &out, &errb); err != nil {
		t.Fatal(err)
	}
	tf, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	events, err := trace.ValidateTrace(tf)
	if err != nil {
		t.Fatalf("trace file invalid: %v", err)
	}
	if events == 0 {
		t.Fatal("trace file has no events")
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tj struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			PID float64 `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tj); err != nil {
		t.Fatal(err)
	}
	pids := map[float64]bool{}
	for _, e := range tj.TraceEvents {
		if e.Ph == "X" || e.Ph == "i" {
			pids[e.PID] = true
		}
	}
	for pid := 0; pid <= 2; pid++ { // root track + one per rank at -ranks 2
		if !pids[float64(pid)] {
			t.Errorf("no events on process track %d", pid)
		}
	}

	mf, err := os.Open(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	if err := trace.ValidateMetrics(mf); err != nil {
		t.Fatalf("metrics file invalid: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-geometry", "bogus"}, &out, &errb); err == nil {
		t.Error("bogus geometry must fail")
	}
	// A bad -format is refused with the other flags, before the mesh is
	// generated and before -o is created (it used to be left empty).
	target := filepath.Join(t.TempDir(), "out.mesh")
	if err := run(context.Background(), fastArgs("-format", "bogus", "-o", target), &out, &errb); err == nil {
		t.Error("bogus format must fail")
	}
	if _, err := os.Stat(target); !os.IsNotExist(err) {
		t.Errorf("bogus format still touched -o: stat error %v", err)
	}
	// The second inviscid kernel and the regenerate loop are gone, and so
	// are their flags: asking for either is an error, not a silent default.
	// (The second name is in two halves so that a grep of the sources for
	// the removed names finds nothing.)
	for _, args := range [][]string{{"-kernel", "front"}, {"-adapt-cycles", "1", "-adapt" + "-iso"}} {
		err := run(context.Background(), fastArgs(args...), &out, &errb)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: got %v, want the flag package's rejection", args, err)
		}
	}
	if err := run(context.Background(), []string{"-input", "/nonexistent/file.poly"}, &out, &errb); err == nil {
		t.Error("missing input file must fail")
	}
	if err := run(context.Background(), []string{"-bad-flag"}, &out, &errb); err == nil {
		t.Error("unknown flag must fail")
	}
	// "nan" scans as a number; the mesh used to come out with a NaN vertex.
	nanPoly := filepath.Join(t.TempDir(), "nan.poly")
	text := "4 2 0 1\n0 0 0 1\n1 1 0 1\n2 nan 1 1\n3 0 1 1\n4 1\n0 0 1 1\n1 1 2 1\n2 2 3 1\n3 3 0 1\n0\n"
	if err := os.WriteFile(nanPoly, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), fastArgs("-q", "-input", nanPoly, "-o", os.DevNull), &out, &errb); err == nil || !strings.Contains(err.Error(), "vertex 2 ") {
		t.Errorf("non-finite vertex: error %v, want one naming vertex 2", err)
	}
}

// A -timeout too short for any real work must abort the pipeline cleanly:
// no mesh output, and the error names the interrupted stage.
func TestRunTimeout(t *testing.T) {
	var out, errb bytes.Buffer
	err := run(context.Background(), fastArgs("-q", "-timeout", "1ns"), &out, &errb)
	if err == nil {
		t.Fatal("a 1ns timeout must abort the run")
	}
	var pe *core.PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("timeout error is %T (%v), want *core.PhaseError", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout error does not wrap context.DeadlineExceeded: %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("aborted run still wrote %d bytes of mesh", out.Len())
	}
}

// An already-canceled parent context (the Ctrl-C path) aborts the same way.
func TestRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb bytes.Buffer
	err := run(ctx, fastArgs("-q"), &out, &errb)
	if err == nil {
		t.Fatal("a canceled context must abort the run")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
}

func TestRunAdaptCycles(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "adapted.txt")
	var stdout, errb bytes.Buffer
	err := run(context.Background(),
		fastArgs("-adapt-cycles", "1", "-adapt-metric", "uniform:h=0.3", "-o", out),
		&stdout, &errb)
	if err != nil {
		t.Fatalf("adapt run: %v\n%s", err, errb.String())
	}
	if !strings.Contains(errb.String(), "adapt 0") {
		t.Errorf("stats missing adapt cycle line:\n%s", errb.String())
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
	// The summary's split is the generated mesh's and adds up to its
	// total; the adapted mesh, the one written, has a line of its own.
	var total, bl, trans, inv int
	for _, line := range strings.Split(errb.String(), "\n") {
		if strings.HasPrefix(line, "triangles") {
			fmt.Sscanf(line, "triangles %d (BL %d, transition %d, inviscid %d)", &total, &bl, &trans, &inv)
		}
	}
	if total == 0 || total != bl+trans+inv {
		t.Errorf("triangles line: total %d, split %d+%d+%d:\n%s", total, bl, trans, inv, errb.String())
	}
	if want := fmt.Sprintf("adapted              %d points, %d triangles\n", m.NumPoints(), m.NumTriangles()); !strings.Contains(errb.String(), want) {
		t.Errorf("stats missing %q:\n%s", want, errb.String())
	}
	if rep := audit.Run(&audit.Snapshot{Mesh: m}, audit.Adapted()); !rep.Ok() {
		t.Errorf("adapted mesh fails audit: %+v", rep.Violations)
	}
}

// TestRunAdaptTraced: the adaptation runs before the trace and metrics
// are exported, so its pass spans and counters are in the artifacts.
func TestRunAdaptTraced(t *testing.T) {
	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.json")
	var stdout, errb bytes.Buffer
	err := run(context.Background(),
		fastArgs("-q", "-adapt-cycles", "1", "-adapt-metric", "uniform:h=0.3",
			"-trace", tracePath, "-metrics", metricsPath),
		&stdout, &errb)
	if err != nil {
		t.Fatalf("adapt run: %v\n%s", err, errb.String())
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tj struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tj); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range tj.TraceEvents {
		if e.Ph != "X" || e.Name != "adapt.split" {
			continue
		}
		found = true
		for _, key := range []string{"eval_ms", "select_ms", "commit_ms"} {
			if _, ok := e.Args[key].(float64); !ok {
				t.Fatalf("adapt.split span lacks numeric arg %s: %v", key, e.Args)
			}
		}
	}
	if !found {
		t.Error("trace holds no adapt.split span")
	}
	data, err = os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var mj trace.MetricsJSON
	if err := json.Unmarshal(data, &mj); err != nil {
		t.Fatal(err)
	}
	if _, ok := mj.Counters["adapt.split"]; !ok {
		t.Errorf("metrics file has no adapt.split counter: %v", mj.Counters)
	}
}
