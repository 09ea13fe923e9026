package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestQuickSmoke runs all five workloads end to end at the smoke size:
// meshd is built, started and stopped, every mesh is verified, every
// declared metric is reported, and every span file is well formed.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts meshd")
	}
	dir := t.TempDir()
	resultPath := filepath.Join(dir, "result.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-workload", "all", "-seed", "1", "-outdir", dir, "-o", resultPath}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	data, err := os.ReadFile(resultPath)
	if err != nil {
		t.Fatal(err)
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !file.Quick || len(file.Workloads) != len(workloadNames) {
		t.Fatalf("quick=%v with %d workloads", file.Quick, len(file.Workloads))
	}
	if file.Host.NumCPU < 1 || file.Host.GoVersion == "" || file.Host.ParallelismBefore <= 0 || file.Host.ParallelismAfter <= 0 {
		t.Errorf("host section incomplete: %+v", file.Host)
	}
	for i, w := range file.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
		if !w.Correct || w.Failed != 0 || w.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", w.Name, w.Correct, w.Attempted, w.Failed, w.Failures)
		}
		if len(w.Meshes) == 0 {
			t.Errorf("%s: no mesh hash recorded", w.Name)
		}
		for _, d := range metricDefs {
			m, ok := w.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("%s: metric %s missing or in unit %q, want %q", w.Name, d.Name, m.Unit, d.Unit)
			}
			if d.Kind == kindE2E && !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, m.Value)
			}
			if timeUnits[d.Unit] && !(m.Value > 0) {
				t.Errorf("%s: %s = %v %s: every time is measured on every workload", w.Name, d.Name, m.Value, d.Unit)
			}
		}
		var spans []span
		raw, err := os.ReadFile(filepath.Join(dir, w.Name+".spans.json"))
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		if err := json.Unmarshal(raw, &spans); err != nil {
			t.Errorf("%s: span file: %v", w.Name, err)
			continue
		}
		if err := validateSpans(spans); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		var self float64
		for _, s := range selfTimes(spans) {
			self += s
		}
		if d := self - w.TracedWallS; d > 0.05*w.TracedWallS || d < -0.05*w.TracedWallS {
			t.Errorf("%s: self times sum to %.3fs, traced pass took %.3fs", w.Name, self, w.TracedWallS)
		}
		if _, err := os.Stat(filepath.Join(dir, w.Name+".trace.json")); err != nil && w.Name != wlMeshd {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	// The last line is the driver's JSON object.
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	if len(keys) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("last line has keys %v, want correct, attempted, failed, metrics", keys)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "tmp-meshd-") {
			t.Errorf("temporary meshd build %s left behind", e.Name())
		}
	}
}

// timeUnits are the units of measured times: such a metric never reads 0.
var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true}

// TestContractLine checks the single-workload form of the last line: the
// end-to-end metrics without -trace, the per-layer metrics with it.
func TestContractLine(t *testing.T) {
	r := newResult(wlViscous)
	for _, d := range metricDefs {
		r.col.set(d.Name, 1.5)
	}
	r.Attempted, r.Correct = 3, true
	r.Metrics = r.col.measures()
	file := &resultFile{Workloads: []*workloadResult{r}}
	for _, traced := range []bool{false, true} {
		var buf bytes.Buffer
		if err := printContractLine(&buf, file, traced); err != nil {
			t.Fatal(err)
		}
		var line struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		want := map[string]string{}
		for _, d := range metricDefs {
			if (d.Kind == kindLayer) == traced {
				want[d.Name] = d.Unit
			}
		}
		got := map[string]string{}
		for name, m := range line.Metrics {
			got[name] = m.Unit
		}
		if !reflect.DeepEqual(got, want) || !line.Correct || line.Attempted != 3 {
			t.Errorf("traced=%v: line %s", traced, buf.String())
		}
	}
}

// benchmarkJSON is the driver's declaration at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTheProgram holds BENCHMARK.json and the metric
// table together: same workloads with the same reasons, same metric
// names, units, directions, kinds and bounds, same run length.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: %q / %q differs from the program's", i, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	var e2eDefs, layerDefs []metricDef
	for _, d := range metricDefs {
		if d.Kind == kindE2E {
			e2eDefs = append(e2eDefs, d)
		} else {
			layerDefs = append(layerDefs, d)
		}
	}
	if len(b.EndToEnd) != len(e2eDefs) || len(b.PerLayer) != len(layerDefs) || len(layerDefs) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics, the program has %d and %d", len(b.EndToEnd), len(b.PerLayer), len(e2eDefs), len(layerDefs))
	}
	for i, m := range b.EndToEnd {
		d := e2eDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, the program has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range b.PerLayer {
		d := layerDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, the program has %+v", i, m, d)
		}
	}
	seen := map[string]bool{}
	for _, d := range metricDefs {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q (%q): duplicate or too long", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
}
