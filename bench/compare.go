package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload x metric row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictNone       = "-"
)

// compareRow is one line of the comparison table.
type compareRow struct {
	Workload string
	Def      metricDef
	A, B     measure
	// Delta is the relative worsening of b's median against a's, the base
	// (positive = worse, in the metric's own direction).
	Delta   float64
	Verdict string
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	if f.Quick {
		return nil, fmt.Errorf("%s: a -quick result keeps no numbers to compare", path)
	}
	return &f, nil
}

// worsening is how much worse b is than a, relative to a, in the
// direction the metric is better in.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge applies the rule of the choosing-metrics guide: worse when the
// median worsened by more than the bound; unresolved instead when a
// side's own quartile spread is wider than the bound and the two
// quartile ranges overlap, so the runs cannot tell the sides apart.
func judge(d metricDef, a, b measure) (float64, string) {
	delta := worsening(d, a.Value, b.Value)
	if d.Bound == 0 || a.N == 0 || b.N == 0 {
		return delta, verdictNone
	}
	if delta <= d.Bound {
		return delta, verdictOK
	}
	spread := func(m measure) float64 {
		if m.Value == 0 {
			return 0
		}
		return (m.Q3 - m.Q1) / m.Value
	}
	overlap := a.Q1 <= b.Q3 && b.Q1 <= a.Q3
	if overlap && (spread(a) > d.Bound || spread(b) > d.Bound) {
		return delta, verdictUnresolved
	}
	return delta, verdictWorse
}

// compareResults builds the table: one row per workload x metric that
// either side measured, end-to-end metrics and watched per-layer metrics
// with a verdict, the rest with their delta only.
func compareResults(a, b *resultFile) (rows []compareRow, failWorse []string) {
	bw := map[string]*workloadResult{}
	for _, w := range b.Workloads {
		bw[w.Name] = w
	}
	for _, wa := range a.Workloads {
		wb, ok := bw[wa.Name]
		if !ok {
			continue
		}
		if fb, fa := wb.Metrics["fail_frac"].Value, wa.Metrics["fail_frac"].Value; fb > fa {
			failWorse = append(failWorse, fmt.Sprintf("%s: fail_frac %.4g -> %.4g", wa.Name, fa, fb))
		}
		for _, d := range metricDefs {
			ma, mb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			if ma.N == 0 && mb.N == 0 {
				continue
			}
			delta, verdict := judge(d, ma, mb)
			rows = append(rows, compareRow{Workload: wa.Name, Def: d, A: ma, B: mb, Delta: delta, Verdict: verdict})
		}
	}
	return rows, failWorse
}

// compareFiles prints the table and returns the exit code: non-zero when
// an end-to-end metric is worse on any workload or fail_frac rose.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readResult(pathA)
	b, errB := readResult(pathB)
	if errA != nil || errB != nil {
		fmt.Fprintf(stderr, "bench: %v\n", errors.Join(errA, errB))
		return 2
	}
	return printComparison(a, b, stdout)
}

func printComparison(a, b *resultFile, w io.Writer) int {
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "note: settings differ (seed %d vs %d, seconds %g vs %g)\n", a.Seed, b.Seed, a.Seconds, b.Seconds)
	}
	fmt.Fprintf(w, "a: commit %s, %d CPUs, parallelism %.2f/%.2f\n", a.Host.GitCommit, a.Host.NumCPU, a.Host.ParallelismBefore, a.Host.ParallelismAfter)
	fmt.Fprintf(w, "b: commit %s, %d CPUs, parallelism %.2f/%.2f\n", b.Host.GitCommit, b.Host.NumCPU, b.Host.ParallelismBefore, b.Host.ParallelismAfter)
	rows, failWorse := compareResults(a, b)
	fmt.Fprintf(w, "%-14s %-10s %-32s %14s %14s %-6s %9s %7s  %s\n", "workload", "kind", "metric", "a (base)", "b", "unit", "worse by", "bound", "verdict")
	code := 0
	for _, r := range rows {
		bound := verdictNone
		if r.Def.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*r.Def.Bound)
		}
		verdict := r.Verdict
		if verdict == verdictWorse {
			if r.Def.Kind == kindE2E {
				code = 1
			} else {
				verdict = "worse (watched)"
			}
		}
		fmt.Fprintf(w, "%-14s %-10s %-32s %14.6g %14.6g %-6s %+8.1f%% %7s  %s\n",
			r.Workload, kindLabel[r.Def.Kind], r.Def.Name, r.A.Value, r.B.Value, r.Def.Unit, 100*r.Delta, bound, verdict)
	}
	for _, f := range failWorse {
		fmt.Fprintf(w, "FAIL %s\n", f)
		code = 1
	}
	return code
}
