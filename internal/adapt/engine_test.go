package adapt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
	"pamg2d/internal/metric"
	"pamg2d/internal/trace"
)

// egrid builds an n×n structured triangulation of the unit square.
func egrid(t testing.TB, n int) *mesh.Mesh {
	t.Helper()
	b := mesh.NewBuilder()
	h := 1.0 / float64(n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			x0, y0 := float64(i)*h, float64(j)*h
			x1, y1 := x0+h, y0+h
			b.AddTriangle(geom.Pt(x0, y0), geom.Pt(x1, y0), geom.Pt(x1, y1))
			b.AddTriangle(geom.Pt(x0, y0), geom.Pt(x1, y1), geom.Pt(x0, y1))
		}
	}
	m := b.Mesh()
	if err := m.Audit(); err != nil {
		t.Fatalf("grid mesh: %v", err)
	}
	return m
}

// structuralEach audits every intermediate mesh.
func structuralEach(t *testing.T) func(int, *mesh.Mesh) error {
	t.Helper()
	return func(sweep int, m *mesh.Mesh) error {
		if err := m.Audit(); err != nil {
			return fmt.Errorf("after sweep %d: %w", sweep, err)
		}
		return nil
	}
}

func TestAdaptUniformRefine(t *testing.T) {
	m := egrid(t, 4)
	h := 1.0 / 16 // four-fold refinement target
	iso := func(geom.Point) metric.M { return metric.Iso(h) }
	out, res, err := Adapt(m, metric.Analytic(m, iso), Options{
		Resample:  iso,
		CheckEach: structuralEach(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Splits == 0 {
		t.Fatal("refinement produced no splits")
	}
	if res.InBand < 0.9 {
		t.Fatalf("InBand = %.3f after %d sweeps (splits %d collapses %d swaps %d smooths %d)",
			res.InBand, res.Sweeps, res.Splits, res.Collapses, res.Swaps, res.Smooths)
	}
	if got, want := out.Area(), m.Area(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("area changed: %g -> %g", want, got)
	}
	if out.NumTriangles() <= m.NumTriangles() {
		t.Fatalf("refinement shrank the mesh: %d -> %d triangles",
			m.NumTriangles(), out.NumTriangles())
	}
}

func TestAdaptUniformCoarsen(t *testing.T) {
	// 16 -> 5: the coarse pitch is incommensurate with the fine grid, so
	// no edge lands exactly on the band boundary.
	m := egrid(t, 16)
	h := 1.0 / 5
	iso := func(geom.Point) metric.M { return metric.Iso(h) }
	out, res, err := Adapt(m, metric.Analytic(m, iso), Options{
		Resample:  iso,
		CheckEach: structuralEach(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Collapses == 0 {
		t.Fatal("coarsening produced no collapses")
	}
	if res.InBand < 0.9 {
		t.Fatalf("InBand = %.3f after %d sweeps (splits %d collapses %d)",
			res.InBand, res.Sweeps, res.Splits, res.Collapses)
	}
	if got, want := out.Area(), m.Area(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("area changed: %g -> %g", want, got)
	}
	if out.NumTriangles() >= m.NumTriangles() {
		t.Fatalf("coarsening grew the mesh: %d -> %d triangles",
			m.NumTriangles(), out.NumTriangles())
	}
}

// TestAdaptAnisotropicBL is the acceptance test: a boundary-layer metric
// along the bottom wall must pull >= 90% of the edges into the quasi-unit
// band, with every intermediate mesh structurally sound.
func TestAdaptAnisotropicBL(t *testing.T) {
	m := egrid(t, 8)
	f, err := metric.ParseSpec("bl:x0=0,y0=0,x1=1,y1=0,hn=0.02,ht=0.2,grow=0.6")
	if err != nil {
		t.Fatal(err)
	}
	out, res, err := Adapt(m, metric.Analytic(m, f), Options{
		Resample:  f,
		CheckEach: structuralEach(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.InBand < 0.9 {
		t.Fatalf("InBand = %.3f after %d sweeps (splits %d collapses %d swaps %d smooths %d, %d edges)",
			res.InBand, res.Sweeps, res.Splits, res.Collapses, res.Swaps, res.Smooths, res.Edges)
	}
	if err := out.Audit(); err != nil {
		t.Fatal(err)
	}
	if got, want := out.Area(), m.Area(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("area changed: %g -> %g", want, got)
	}
	// The wall band must actually be anisotropic: stretched triangles
	// hugging y=0.
	st, err := metric.FieldStats(out, metric.Analytic(out, f), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxAspect < 5 {
		t.Fatalf("metric max aspect %g, want boundary-layer anisotropy", st.MaxAspect)
	}
}

// sameMesh reports whether two meshes are identical point for point and
// triangle for triangle.
func sameMesh(a, b *mesh.Mesh) bool {
	return reflect.DeepEqual(a.Points, b.Points) && reflect.DeepEqual(a.Triangles, b.Triangles)
}

// fieldModes are the two ways Adapt obtains a tensor at a new or moved
// vertex: Options.Resample, or log-Euclidean interpolation of the
// per-vertex field alone.
var fieldModes = []struct {
	name     string
	resample bool
}{{"resample", true}, {"interp", false}}

// TestAdaptDeterministicWorkers demands byte-identical output for every
// worker count, in both field modes, and for the deprecated Ranks alias of
// Workers (the last two rows: this is the whole test of the alias).
func TestAdaptDeterministicWorkers(t *testing.T) {
	f, err := metric.ParseSpec("bl:x0=0,y0=0,x1=1,y1=0,hn=0.03,ht=0.2,grow=0.7")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range fieldModes {
		run := func(workers, ranks int) *mesh.Mesh {
			m := egrid(t, 6)
			opt := Options{Workers: workers, Ranks: ranks}
			if mode.resample {
				opt.Resample = f
			}
			out, res, err := Adapt(m, metric.Analytic(m, f), opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Splits == 0 || res.Smooths == 0 {
				t.Fatalf("%s: run planned too little to compare: %+v", mode.name, *res)
			}
			return out
		}
		ref := run(1, 0)
		for _, wr := range [][2]int{{2, 0}, {4, 0}, {7, 0}, {0, 3}, {2, 3}} {
			if !sameMesh(ref, run(wr[0], wr[1])) {
				t.Fatalf("%s, workers=%d ranks=%d: adapted mesh differs from sequential result", mode.name, wr[0], wr[1])
			}
		}
	}
}

// TestAdaptConcurrent exercises the parallel evaluate/commit phases on a
// larger problem; under -race this is the engine's data-race gate.
func TestAdaptConcurrent(t *testing.T) {
	f, err := metric.ParseSpec("bl:x0=0,y0=0,x1=1,y1=0,hn=0.015,ht=0.12,grow=0.5")
	if err != nil {
		t.Fatal(err)
	}
	m := egrid(t, 10)
	out, res, err := Adapt(m, metric.Analytic(m, f), Options{
		Workers:  8,
		Resample: f,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Audit(); err != nil {
		t.Fatal(err)
	}
	if res.InBand < 0.85 {
		t.Fatalf("InBand = %.3f, want >= 0.85", res.InBand)
	}
}

func TestAdaptTracerMetrics(t *testing.T) {
	tr := trace.New(1)
	f := func(geom.Point) metric.M { return metric.Iso(0.1) }
	m := egrid(t, 4)
	if _, _, err := Adapt(m, metric.Analytic(m, f), Options{
		Resample: f, Tracer: tr, MaxSweeps: 3,
	}); err != nil {
		t.Fatal(err)
	}
	if tr.OpenSpans() != 0 {
		t.Fatalf("%d spans leaked", tr.OpenSpans())
	}
	if tr.Events() == 0 {
		t.Fatal("no trace events recorded")
	}
	snap := tr.Metrics().Snapshot()
	found := false
	for name := range snap.Counters {
		if name == "adapt.split" {
			found = true
		}
	}
	if !found {
		t.Fatalf("adapt.split counter missing from %v", snap.Counters)
	}
	// Every pass span says where its time went and what selection dropped.
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"` // microseconds
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	passes := 0
	evals := map[string]float64{} // quality_evals by pass kind
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || !strings.HasPrefix(ev.Name, "adapt.") {
			continue
		}
		passes++
		arg := map[string]float64{}
		for _, key := range []string{"planned", "committed", "rejected", "quality_evals", "eval_ms", "select_ms", "commit_ms"} {
			v, ok := ev.Args[key].(float64)
			if !ok {
				t.Fatalf("span %s lacks numeric arg %s: %v", ev.Name, key, ev.Args)
			}
			arg[key] = v
		}
		if arg["rejected"] != arg["planned"]-arg["committed"] {
			t.Fatalf("span %s: rejected %v, planned %v, committed %v", ev.Name, arg["rejected"], arg["planned"], arg["committed"])
		}
		if sum := arg["eval_ms"] + arg["select_ms"] + arg["commit_ms"]; sum < 0 || sum > ev.Dur/1e3+0.01 {
			t.Fatalf("span %s: phases sum to %g ms in a span of %g ms", ev.Name, sum, ev.Dur/1e3)
		}
		evals[ev.Name] += arg["quality_evals"]
	}
	if passes == 0 {
		t.Fatal("no adapt.<kind> span in the trace")
	}
	// Only swap and smooth measure quality; smooth at least once per live
	// triangle, for its table.
	if evals["adapt.split"] != 0 || evals["adapt.collapse"] != 0 || evals["adapt.swap"] == 0 ||
		evals["adapt.smooth"] < float64(3*m.NumTriangles()) {
		t.Fatalf("quality_evals by pass kind %v over 3 sweeps of %d input triangles", evals, m.NumTriangles())
	}
}

func TestAdaptInputErrors(t *testing.T) {
	m := egrid(t, 2)
	f := metric.Uniform(m, 0.5)
	if _, _, err := Adapt(m, f[:2], Options{}); err == nil {
		t.Fatal("field length mismatch accepted")
	}
	bad := append(metric.Field(nil), f...)
	bad[0] = metric.M{XX: -1, YY: 1}
	if _, _, err := Adapt(m, bad, Options{}); err == nil {
		t.Fatal("non-SPD tensor accepted")
	}
}

// TestAdaptNoOp: a mesh already in band must come back unchanged.
func TestAdaptNoOp(t *testing.T) {
	m := egrid(t, 4)
	f := metric.Uniform(m, 0.25) // exactly the grid pitch
	out, res, err := Adapt(m, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Sweeps != 1 {
		t.Fatalf("expected immediate convergence, got %+v", res)
	}
	if res.Splits+res.Collapses != 0 {
		t.Fatalf("no-op adaptation changed the mesh: %+v", res)
	}
	if out.NumTriangles() != m.NumTriangles() {
		t.Fatalf("triangle count changed: %d -> %d", m.NumTriangles(), out.NumTriangles())
	}
}
