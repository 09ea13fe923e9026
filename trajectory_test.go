package pamg2d

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// trajectorySchema marks the BENCH_*.json files that hold `go run ./bench`
// results; CI's benchmark guard (scripts/bench-guard.sh) selects its
// baseline among them.
const trajectorySchema = "pamg2d-bench-trajectory/1"

type trajectoryFile struct {
	Schema  string `json:"schema"`
	Date    string `json:"date"`
	Entries []struct {
		Label  string `json:"label"`
		Side   string `json:"side"`
		Result struct {
			Workloads []trajectoryWorkload `json:"workloads"`
		} `json:"result"`
	} `json:"entries"`
}

type trajectoryWorkload struct {
	Name    string `json:"name"`
	Correct *bool  `json:"correct"`
	Metrics map[string]struct {
		Value *float64 `json:"value"`
	} `json:"metrics"`
}

// TestCommittedTrajectory holds the committed performance record to what
// scripts/bench-guard.sh reads from it, so a malformed file fails
// `go test ./...` and not only the CI step: every BENCH_*.json is JSON, the
// newest trajectory file (by date, then name — the script's order) has the
// all-trace0/change entry, and that entry lists BENCHMARK.json's workloads,
// each with correct, allocs_k and fail_frac.
func TestCommittedTrajectory(t *testing.T) {
	var decl struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	readJSON(t, "BENCHMARK.json", &decl)
	if len(decl.Workloads) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads")
	}

	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	var newest trajectoryFile
	var newestName string
	for _, name := range files {
		var f trajectoryFile
		readJSON(t, name, &f)
		if f.Schema != trajectorySchema {
			continue // BENCH_2026-08-05.json: the retired micro-suite's history
		}
		if f.Date == "" || len(f.Entries) == 0 {
			t.Errorf("%s: trajectory file without a date or without entries", name)
		}
		if f.Date > newest.Date || (f.Date == newest.Date && name > newestName) {
			newest, newestName = f, name
		}
	}
	if newestName == "" {
		t.Fatalf("no BENCH_*.json with schema %s: the benchmark guard has no baseline", trajectorySchema)
	}

	base := -1
	for i, e := range newest.Entries {
		if e.Label == "all-trace0" && e.Side == "change" {
			base = i // the script takes the last
		}
	}
	if base < 0 {
		t.Fatalf("%s: no all-trace0/change entry", newestName)
	}
	for _, want := range decl.Workloads {
		i := slices.IndexFunc(newest.Entries[base].Result.Workloads, func(w trajectoryWorkload) bool { return w.Name == want.Name })
		if i < 0 {
			t.Errorf("%s: all-trace0/change entry lacks workload %s", newestName, want.Name)
			continue
		}
		w := newest.Entries[base].Result.Workloads[i]
		if w.Correct == nil {
			t.Errorf("%s: %s has no correct", newestName, w.Name)
		}
		for _, m := range []string{"allocs_k", "fail_frac"} {
			if w.Metrics[m].Value == nil {
				t.Errorf("%s: %s has no %s value", newestName, w.Name, m)
			}
		}
	}
}

// TestDocReferences holds the reader-facing documents to the code: every
// Test*, Benchmark* and Fuzz* name README.md, EXPERIMENTS.md and DESIGN.md
// cite is a function in the repository, and every cmd/, examples/ and
// internal/ path they cite exists.
func TestDocReferences(t *testing.T) {
	funcDecl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	defined := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range funcDecl.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	path := regexp.MustCompile(`\b(?:cmd|examples|internal)/[\w./-]*`)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range name.FindAllString(string(text), -1) {
			if !defined[n] {
				t.Errorf("%s cites %s, which no Go file defines", doc, n)
			}
		}
		for _, p := range path.FindAllString(string(text), -1) {
			if _, err := os.Stat(strings.TrimRight(p, ".")); err != nil {
				t.Errorf("%s cites %s, which does not exist", doc, p)
			}
		}
	}
}

func readJSON(t *testing.T, name string, v any) {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}
