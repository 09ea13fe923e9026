package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"pamg2d/internal/trace"
)

// span is one call into a layer as seen from the benchmark: which layer,
// which call, when, under which parent, in which run of the traced pass,
// plus the counts observed at that boundary.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"` // 0 for the root span
	Run     string             `json:"run"`
	Layer   string             `json:"layer"`
	Name    string             `json:"name"`
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// recorder keeps the spans of one workload's traced pass in memory; they
// are written once, when the pass ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span under parent (0 = root level) and returns its id.
func (r *recorder) begin(parent int, run, layer, name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: run, Layer: layer, Name: name, StartNS: r.now(), EndNS: -1})
	return id
}

// end closes the span and returns its duration.
func (r *recorder) end(id int, counts map[string]float64) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNS = r.now()
	s.Counts = counts
	return time.Duration(s.EndNS - s.StartNS)
}

// in runs fn inside a span and returns the span's duration.
func (r *recorder) in(parent int, run, layer, name string, fn func()) time.Duration {
	id := r.begin(parent, run, layer, name)
	fn()
	return r.end(id, nil)
}

// stageEvents returns the stage spans the program's own tracer recorded
// on its root track.
func stageEvents(tr *trace.Tracer) []trace.Event {
	var out []trace.Event
	for _, tk := range tr.Export(0).Tracks {
		if tk.Rank != trace.RootRank {
			continue
		}
		for _, e := range tk.Events {
			if e.Cat == trace.CatStage && e.Ph == 'X' {
				out = append(out, e)
			}
		}
	}
	return out
}

// importStages copies the tracer's stage spans under parent, shifted from
// the tracer's clock (ns since trace.New, which happened at originNS on
// the recorder's clock).
func (r *recorder) importStages(parent int, run string, tr *trace.Tracer, originNS int64) {
	events := stageEvents(tr)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range events {
		r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Run: run, Layer: "core", Name: "stage/" + e.Name,
			StartNS: originNS + e.TS, EndNS: originNS + e.TS + e.Dur})
	}
}

// stageWall returns the duration of the named stage span the tracer
// recorded, for runs whose Stats are lost because the run failed.
func stageWall(tr *trace.Tracer, stage string) (time.Duration, bool) {
	for _, e := range stageEvents(tr) {
		if e.Name == stage {
			return time.Duration(e.Dur), true
		}
	}
	return 0, false
}

// selfTimes returns, per layer, the summed self time of its spans in
// seconds: a span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]float64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, at := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < at {
				lo = at
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		out[s.Layer] += float64(s.EndNS-s.StartNS-covered) / 1e9
	}
	return out
}

// validateSpans checks what the span file promises: every span ended at
// or after its start, and names a parent that exists (0 = none).
func validateSpans(spans []span) error {
	ids := map[int]bool{0: true}
	for _, s := range spans {
		ids[s.ID] = true
	}
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d (%s/%s) ends before it starts", s.ID, s.Layer, s.Name)
		}
		if !ids[s.Parent] {
			return fmt.Errorf("span %d (%s/%s) has unknown parent %d", s.ID, s.Layer, s.Name, s.Parent)
		}
	}
	return nil
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
