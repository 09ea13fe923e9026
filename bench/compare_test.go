package main

import (
	"bytes"
	"strings"
	"testing"
)

func sample(vals ...float64) measure {
	q1, q3 := quartiles(vals)
	return measure{Value: median(vals), Q1: q1, Q3: q3, N: len(vals), Unit: "s"}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "wall", Unit: "s", Better: "lower", Kind: kindE2E, Bound: 0.10}
	higher := metricDef{Name: "rate", Unit: "1/s", Better: "higher", Kind: kindE2E, Bound: 0.10}
	cases := []struct {
		name string
		def  metricDef
		a, b measure
		want string
	}{
		{"within the bound", lower, sample(1.00, 1.01, 1.02), sample(1.05, 1.06, 1.07), verdictOK},
		{"better", lower, sample(1.00, 1.01, 1.02), sample(0.80, 0.81, 0.82), verdictOK},
		{"worse, tight runs", lower, sample(1.00, 1.01, 1.02), sample(1.20, 1.21, 1.22), verdictWorse},
		{"worse median but wide overlapping runs", lower, sample(0.8, 1.0, 1.4), sample(0.9, 1.15, 1.5), verdictUnresolved},
		{"wide runs that do not overlap", lower, sample(0.8, 1.0, 1.2), sample(2.0, 2.4, 2.8), verdictWorse},
		{"higher is better, dropped", higher, sample(100, 101, 102), sample(80, 81, 82), verdictWorse},
		{"higher is better, rose", higher, sample(100, 101, 102), sample(120, 121, 122), verdictOK},
		{"no bound", metricDef{Name: "x", Better: "lower"}, sample(1), sample(2), verdictNone},
	}
	for _, c := range cases {
		if _, got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if d, _ := judge(lower, sample(2), sample(3)); d != 0.5 {
		t.Errorf("worsening of 2 -> 3 is %v, want 0.5 of the base 2", d)
	}
}

func resultWith(wall1r, failFrac float64) *resultFile {
	r := newResult(wlViscous)
	for _, d := range metricDefs {
		r.col.set(d.Name, 1)
	}
	r.col.samples["wall_1r_s"] = []float64{wall1r, wall1r * 1.01, wall1r * 1.02}
	r.col.set("fail_frac", failFrac)
	r.col.set("core.serial_s", wall1r)
	r.Metrics = r.col.measures()
	return &resultFile{Schema: resultSchema, Seed: 1, Workloads: []*workloadResult{r}}
}

func TestComparisonExitCode(t *testing.T) {
	base := resultWith(1, 0)
	cases := []struct {
		name     string
		b        *resultFile
		code     int
		contains string
	}{
		{"same", resultWith(1, 0), 0, "ok"},
		{"end-to-end worse", resultWith(1.5, 0), 1, "worse"},
		{"failures rose", resultWith(1, 0.1), 1, "FAIL naca-viscous: fail_frac"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if code := printComparison(base, c.b, &out); code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		if !strings.Contains(out.String(), c.contains) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.contains, out.String())
		}
	}
	// A watched per-layer metric that worsens is flagged without failing.
	b := resultWith(1, 0)
	m := b.Workloads[0].Metrics["core.serial_s"]
	m.Value, m.Q1, m.Q3 = 2, 2, 2
	b.Workloads[0].Metrics["core.serial_s"] = m
	var out bytes.Buffer
	if code := printComparison(base, b, &out); code != 0 || !strings.Contains(out.String(), "worse (watched)") {
		t.Errorf("watched metric: exit code %d\n%s", code, out.String())
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Layer: "bench", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Layer: "core", StartNS: 10, EndNS: 60},
		{ID: 3, Parent: 2, Layer: "mpi", StartNS: 20, EndNS: 30},
		{ID: 4, Parent: 2, Layer: "mpi", StartNS: 25, EndNS: 40}, // overlaps span 3
		{ID: 5, Parent: 1, Layer: "mesh", StartNS: 70, EndNS: 90},
	}
	if err := validateSpans(spans); err != nil {
		t.Fatal(err)
	}
	got := selfTimes(spans)
	want := map[string]float64{"bench": 30e-9, "core": 30e-9, "mpi": 25e-9, "mesh": 20e-9}
	for layer, w := range want {
		if d := got[layer] - w; d > 1e-15 || d < -1e-15 {
			t.Errorf("%s: self time %v, want %v", layer, got[layer], w)
		}
	}
	if validateSpans([]span{{ID: 1, Parent: 7}}) == nil {
		t.Error("unknown parent accepted")
	}
	if validateSpans([]span{{ID: 1, StartNS: 5, EndNS: 4}}) == nil {
		t.Error("span ending before its start accepted")
	}
}
