package core

// Tests of the traced pipeline: a run with a Tracer attached must export a
// valid Chrome trace-event file and metrics registry, close every span on
// both the success and the cancellation path, and fold consistent per-rank
// summaries into the Stats. The export format itself is tested in
// internal/trace; here the subject is the instrumentation wiring.

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"pamg2d/internal/trace"
)

// tracedRun generates with a fresh tracer attached and returns both.
func tracedRun(t *testing.T, cfg Config) (*Result, *trace.Tracer) {
	t.Helper()
	tr := trace.New(cfg.Ranks)
	cfg.Tracer = tr
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, tr
}

func TestTracedRunExportsValidTrace(t *testing.T) {
	cfg := smallConfig(2)
	cfg.Audit = true
	res, tr := tracedRun(t, cfg)

	if n := tr.OpenSpans(); n != 0 {
		t.Errorf("%d spans left open after a completed run", n)
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	if events == 0 {
		t.Fatal("exported trace is empty")
	}

	// Every stage of the audited pipeline appears as a root-track span.
	var tj struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  float64 `json:"pid"`
			TID  float64 `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tj); err != nil {
		t.Fatal(err)
	}
	stageSpans := map[string]bool{}
	taskSpans := 0
	for _, e := range tj.TraceEvents {
		switch {
		case e.Ph == "X" && e.Cat == trace.CatStage:
			stageSpans[e.Name] = true
			if e.PID != 0 {
				t.Errorf("stage span %q on pid %v, want the root track 0", e.Name, e.PID)
			}
		case e.Ph == "X" && e.Cat == trace.CatTask:
			taskSpans++
		}
	}
	for _, want := range []string{StageValidate, StageBLTriangulation, StageInviscid, StageMerge, StageAudit} {
		if !stageSpans[want] {
			t.Errorf("no stage span named %q in the trace", want)
		}
	}
	if taskSpans == 0 {
		t.Error("no task spans in the trace")
	}

	// A viewer draws the spans of one (pid, tid) thread as a stack, so on
	// every thread each span either nests in the one before it or starts
	// after it ends. The boundary-layer check overlaps the stages, so this
	// holds only while it keeps a thread of its own. The export sorts by
	// start, and a nanosecond of slack absorbs the microsecond rounding.
	const slack = 1e-3
	open := map[[2]float64][]float64{} // each thread's open span ends
	for _, e := range tj.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		th := [2]float64{e.PID, e.TID}
		ends := open[th]
		for len(ends) > 0 && ends[len(ends)-1] <= e.TS+slack {
			ends = ends[:len(ends)-1]
		}
		if len(ends) > 0 && e.TS+e.Dur > ends[len(ends)-1]+slack {
			t.Errorf("span %q (%s) on pid %v tid %v ends at %v, after the span it starts in (%v)",
				e.Name, e.Cat, e.PID, e.TID, e.TS+e.Dur, ends[len(ends)-1])
		}
		open[th] = append(ends, e.TS+e.Dur)
	}

	// Each distributed meshing stage shows its serial part: a root/prepare
	// and a root/merge span on the root track, inside the stage's span and
	// in that order.
	var root []trace.Event
	for _, tk := range tr.Export(0).Tracks {
		if tk.Rank == trace.RootRank {
			root = tk.Events
		}
	}
	for _, stage := range []string{StageBLTriangulation, StageInviscid} {
		var st trace.Event
		for _, e := range root {
			if e.Cat == trace.CatStage && e.Name == stage {
				st = e
			}
		}
		var inside []string
		for _, e := range root {
			if e.Cat == trace.CatRoot && e.Ph == 'X' && e.TS >= st.TS && e.TS+e.Dur <= st.TS+st.Dur {
				inside = append(inside, e.Name)
			}
		}
		if len(inside) != 2 || inside[0] != "root/prepare" || inside[1] != "root/merge" {
			t.Errorf("stage %q holds root spans %v, want [root/prepare root/merge]", stage, inside)
		}
	}

	// The boundary-layer check has a span of its own on the root track,
	// started at the end of ray-insertion, so a trace shows it beside
	// bl-triangulation.
	var ri trace.Event
	var checks []trace.Event
	for _, e := range root {
		switch {
		case e.Cat == trace.CatStage && e.Name == StageRayInsertion:
			ri = e
		case e.Cat == trace.CatAudit:
			checks = append(checks, e)
		}
	}
	if len(checks) != 1 || checks[0].Name != "boundary-layer" {
		t.Errorf("root track holds audit spans %v, want the boundary-layer check's alone", checks)
	} else if a := checks[0]; a.TS < ri.TS || a.TS > ri.TS+ri.Dur {
		t.Errorf("boundary-layer check span starts at %d ns, outside ray-insertion's [%d, %d]", a.TS, ri.TS, ri.TS+ri.Dur)
	}

	// The metrics registry exports and validates too.
	buf.Reset()
	if err := tr.Metrics().WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateMetrics(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exported metrics invalid: %v", err)
	}
	snap := tr.Metrics().Snapshot()
	if snap.Counters["tasks.total"] != int64(totalRankTasks(res.Stats)) {
		t.Errorf("tasks.total = %d, want %d (sum of StageStat.Ranks)",
			snap.Counters["tasks.total"], totalRankTasks(res.Stats))
	}
}

func totalRankTasks(st Stats) int {
	n := 0
	for _, s := range st.Stages {
		for _, r := range s.Ranks {
			n += r.Tasks
		}
	}
	return n
}

// rankSteals folds the per-stage rank summaries into the run-wide
// aggregate, the way Stats.Steals is specified.
func rankSteals(st Stats) StealStats {
	var agg StealStats
	for _, s := range st.Stages {
		for _, r := range s.Ranks {
			agg.Requests += r.StealRequests
			agg.Granted += r.StealsGranted
			agg.Gotten += r.StealsGotten
			agg.Idle += r.Idle
		}
	}
	return agg
}

// TestTracedRunRankStats: distributed stages fold per-rank summaries into
// their StageStat, and the run-wide steal aggregate matches their sum.
func TestTracedRunRankStats(t *testing.T) {
	cfg := smallConfig(2)
	cfg.Audit = true
	res, _ := tracedRun(t, cfg)
	st := res.Stats

	distributed := 0
	for _, s := range st.Stages {
		if strings.Contains(s.Name, "/") {
			if s.Ranks != nil {
				t.Errorf("sub-entry %q carries rank data", s.Name)
			}
			continue
		}
		if s.Ranks == nil {
			continue
		}
		distributed++
		if len(s.Ranks) != cfg.Ranks {
			t.Errorf("stage %q has %d rank entries, want %d", s.Name, len(s.Ranks), cfg.Ranks)
		}
		for i, r := range s.Ranks {
			if r.Rank != i {
				t.Errorf("stage %q rank entry %d labeled rank %d", s.Name, i, r.Rank)
			}
			if r.Tasks > 0 && r.Busy <= 0 {
				t.Errorf("stage %q rank %d: %d tasks but zero busy time", s.Name, i, r.Tasks)
			}
		}
		if _, max, mean := s.RankWall(); max < mean {
			t.Errorf("stage %q RankWall: max %v < mean %v", s.Name, max, mean)
		}
	}
	// bl-triangulation and inviscid; ray insertion and the audit send
	// nothing and run no tasks.
	if distributed != 2 {
		t.Errorf("%d stages recorded rank data, want 2", distributed)
	}

	if agg := rankSteals(st); st.Steals != agg {
		t.Errorf("Stats.Steals = %+v, want fold of Stages[].Ranks %+v", st.Steals, agg)
	}
}

// TestTracedRunUntracedStatsAgree: the Steals/Ranks folds are tracer-
// independent — a run without a tracer produces them identically.
func TestTracedRunUntracedStatsAgree(t *testing.T) {
	cfg := smallConfig(2)
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if totalRankTasks(res.Stats) == 0 {
		t.Error("untraced run folded no per-rank task counts")
	}
	if agg := rankSteals(res.Stats); res.Stats.Steals != agg {
		t.Errorf("Stats.Steals = %+v, want %+v", res.Stats.Steals, agg)
	}
}

// TestTracedCancellationClosesSpans: a run canceled mid-stage must still
// leave the tracer quiescent (no open spans) and exportable.
func TestTracedCancellationClosesSpans(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := smallConfig(2)
	tr := trace.New(cfg.Ranks)
	cfg.Tracer = tr
	cfg.TaskHook = func(s string, kind int) error {
		if s == StageInviscid {
			cancel()
		}
		return nil
	}
	if _, err := GenerateContext(ctx, cfg); err == nil {
		t.Fatal("canceled run did not fail")
	}
	if n := tr.OpenSpans(); n != 0 {
		t.Errorf("%d spans left open after cancellation", n)
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("canceled run exported an invalid trace: %v", err)
	}
}

// TestAuditWireAttribution: the audit stage puts nothing on the wire —
// neither its summary entry nor its per-check sub-entries carry traffic —
// and the sum of Messages over Stages equals Stats.Messages exactly.
func TestAuditWireAttribution(t *testing.T) {
	cfg := smallConfig(2)
	cfg.Audit = true
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	var sumMsgs, sumBytes int64
	auditSummary := false
	for _, s := range st.Stages {
		sumMsgs += s.Messages
		sumBytes += s.BytesOnWire
		if s.Name == StageAudit || strings.HasPrefix(s.Name, StageAudit+"/") {
			auditSummary = auditSummary || s.Name == StageAudit
			if s.Messages != 0 || s.BytesOnWire != 0 {
				t.Errorf("entry %q carries wire traffic (%d msgs, %d bytes)",
					s.Name, s.Messages, s.BytesOnWire)
			}
		}
	}
	if !auditSummary {
		t.Fatal("no audit summary entry in Stages")
	}
	if sumMsgs != st.Messages || sumBytes != st.BytesOnWire {
		t.Errorf("stage wire sums (%d msgs, %d bytes) != totals (%d, %d)",
			sumMsgs, sumBytes, st.Messages, st.BytesOnWire)
	}
}
