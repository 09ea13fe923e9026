package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pamg2d/internal/audit"
	"pamg2d/internal/blayer"
	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
	"pamg2d/internal/mpi"
)

// TestAuditCleanRun runs the audited pipeline at 1 and 4 ranks and checks
// that the real pipeline output passes its own audit: every check runs (the
// Ruppert kernel makes the Delaunay check applicable), zero violations, and
// the stage engine records both the "audit" summary entry and the
// per-check "audit/<check>" entries with nonzero wall time, and the stage
// sends nothing.
func TestAuditCleanRun(t *testing.T) {
	for _, ranks := range []int{1, 4} {
		cfg := smallConfig(ranks)
		cfg.Audit = true
		res, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%d ranks: audited run failed: %v", ranks, err)
		}
		rep := res.Stats.Audit
		if rep == nil {
			t.Fatalf("%d ranks: Stats.Audit is nil", ranks)
		}
		if !rep.Ok() {
			t.Fatalf("%d ranks: clean run reported violations: %v", ranks, rep.Error())
		}
		if len(rep.Checks) != len(audit.All()) {
			t.Errorf("%d ranks: report has %d checks, want %d", ranks, len(rep.Checks), len(audit.All()))
		}
		for _, c := range rep.Checks {
			if c.Skipped {
				t.Errorf("%d ranks: check %q skipped on a full pipeline run", ranks, c.Name)
			}
		}
		stages := make(map[string]StageStat)
		for _, s := range res.Stats.Stages {
			stages[s.Name] = s
		}
		summary, ok := stages[StageAudit]
		if !ok {
			t.Fatalf("%d ranks: no %q entry in Stats.Stages", ranks, StageAudit)
		}
		if summary.Wall <= 0 {
			t.Errorf("%d ranks: audit stage wall time = %v", ranks, summary.Wall)
		}
		if got := res.Stats.StageWall(StageAudit); got != summary.Wall {
			t.Errorf("%d ranks: StageWall(audit) = %v, want the stage entry's %v", ranks, got, summary.Wall)
		}
		for _, c := range audit.All() {
			name := StageAudit + "/" + c.Name()
			if _, ok := stages[name]; !ok {
				t.Errorf("%d ranks: no %q entry in Stats.Stages", ranks, name)
			}
		}
		if summary.Messages != 0 || summary.BytesOnWire != 0 {
			t.Errorf("%d ranks: audit stage put %d messages, %d bytes on the wire, want none", ranks, summary.Messages, summary.BytesOnWire)
		}
	}
}

// flipTriangle7 is the corruption the audit tests inject after the merge.
func flipTriangle7(m *mesh.Mesh) {
	t := &m.Triangles[7]
	t[0], t[1] = t[1], t[0]
}

// TestAuditViolationFailsRun corrupts the merged mesh before the audit
// stage (a flipped triangle) and checks the failure contract: the run
// fails with a *PhaseError for the audit stage, attributed to no rank,
// wrapping an *audit.Error whose report names the corrupted element.
func TestAuditViolationFailsRun(t *testing.T) {
	const victim = 7
	cfg := smallConfig(3)
	cfg.Audit = true
	cfg.testMutateMesh = flipTriangle7
	_, err := Generate(cfg)
	if err == nil {
		t.Fatal("audited run with a flipped triangle did not fail")
	}
	var pe *PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T (%v), want *PhaseError", err, err)
	}
	if pe.Stage != StageAudit {
		t.Errorf("PhaseError.Stage = %q, want %q", pe.Stage, StageAudit)
	}
	if pe.Rank != -1 {
		t.Errorf("PhaseError.Rank = %d, want -1: every process audits its own copy", pe.Rank)
	}
	var ae *audit.Error
	if !errors.As(err, &ae) {
		t.Fatalf("error does not wrap *audit.Error: %v", err)
	}
	// Violations fold in check order with orientation first, so the flipped
	// triangle is the leading finding.
	if len(ae.Report.Violations) == 0 {
		t.Fatal("audit.Error carries an empty report")
	}
	if first := ae.Report.Violations[0]; first.Element != victim {
		t.Errorf("first violation attributes element %d, want %d", first.Element, victim)
	}
	if !strings.Contains(err.Error(), "element") {
		t.Errorf("error message carries no element attribution: %v", err)
	}
}

// TestAuditIndependentOfRanks: the same mesh gets the same audit at every
// rank count and on either transport — the same error text and the same
// report — and the stage never touches the wire. Ranks*SubdomainsPerRank
// is held at 8, so every run meshes the same decomposition.
func TestAuditIndependentOfRanks(t *testing.T) {
	type outcome struct {
		err   string
		clean audit.Report
		dirty audit.Report
	}
	// run generates cfg clean and with triangle 7 flipped on the given
	// fabric (nil: in-process) and returns what the audit found.
	run := func(name string, cfg Config, fabric *mpi.Cluster) (outcome, error) {
		cfg.Audit = true
		cfg.Fabric = fabric
		res, err := GenerateContext(context.Background(), cfg)
		if err != nil {
			return outcome{}, fmt.Errorf("%s: clean run: %w", name, err)
		}
		audited := false
		for _, s := range res.Stats.Stages {
			if s.Name == StageAudit {
				audited = true
				if s.Messages != 0 || s.BytesOnWire != 0 {
					return outcome{}, fmt.Errorf("%s: audit stage put %d messages, %d bytes on the wire", name, s.Messages, s.BytesOnWire)
				}
			}
		}
		if !audited {
			return outcome{}, fmt.Errorf("%s: no audit stage recorded", name)
		}
		cfg.testMutateMesh = flipTriangle7
		_, err = GenerateContext(context.Background(), cfg)
		var ae *audit.Error
		if !errors.As(err, &ae) {
			return outcome{}, fmt.Errorf("%s: corrupted run returned %v, want an audit failure", name, err)
		}
		return outcome{err: err.Error(), clean: found(res.Stats.Audit), dirty: found(ae.Report)}, nil
	}

	var names []string
	var outs []outcome
	for _, ranks := range []int{1, 2, 4} {
		cfg := smallConfig(ranks)
		cfg.SubdomainsPerRank = 8 / ranks
		name := fmt.Sprintf("inproc %d ranks", ranks)
		o, err := run(name, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		names, outs = append(names, name), append(outs, o)
	}
	tcp := make([]outcome, 2)
	errs := runOnFabric(t, 2, func(i int, cl *mpi.Cluster) error {
		cfg := smallConfig(2)
		cfg.SubdomainsPerRank = 4
		var err error
		tcp[i], err = run(fmt.Sprintf("tcp process %d", i), cfg, cl)
		return err
	})
	for i, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		names, outs = append(names, fmt.Sprintf("tcp process %d", i)), append(outs, tcp[i])
	}

	want := outs[0]
	if !strings.Contains(want.err, "element 7") {
		t.Errorf("%s: error %q does not name element 7", names[0], want.err)
	}
	for i, o := range outs[1:] {
		if o.err != want.err {
			t.Errorf("%s: error\n  %s\nwant (as %s)\n  %s", names[i+1], o.err, names[0], want.err)
		}
		if !reflect.DeepEqual(o.clean, want.clean) || !reflect.DeepEqual(o.dirty, want.dirty) {
			t.Errorf("%s: audit report differs from %s's", names[i+1], names[0])
		}
	}
}

// TestCancelDuringAudit mirrors the other mid-stage cancellation tests:
// canceling as the audit stage starts tears it down as a *PhaseError
// wrapping context.Canceled, without leaking pooled wire buffers.
func TestCancelDuringAudit(t *testing.T) {
	g0, p0 := mpi.PoolCounters()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := smallConfig(2)
	cfg.Audit = true
	cfg.testMutateMesh = func(*mesh.Mesh) { cancel() }
	_, err := GenerateContext(ctx, cfg)
	if err == nil {
		t.Fatal("canceling during the audit stage did not fail the run")
	}
	var pe *PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T (%v), want *PhaseError", err, err)
	}
	if pe.Stage != StageAudit {
		t.Errorf("PhaseError.Stage = %q, want %q", pe.Stage, StageAudit)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
	g1, p1 := mpi.PoolCounters()
	if gets, puts := g1-g0, p1-p0; gets != puts {
		t.Errorf("pooled buffers leaked across cancellation: %d gets, %d puts", gets, puts)
	}
}

// TestAuditOffByDefault: a default config run must not grow an audit stage
// or an audit report.
func TestAuditOffByDefault(t *testing.T) {
	res, err := Generate(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Audit != nil {
		t.Error("Stats.Audit populated without Config.Audit")
	}
	for _, s := range res.Stats.Stages {
		if s.Name == StageAudit || strings.HasPrefix(s.Name, StageAudit+"/") {
			t.Errorf("stage %q recorded without Config.Audit", s.Name)
		}
	}
}

// TestStructureProvedOnce drives the merge and the audit stage over a
// builder holding one clockwise triangle. Each run proves the merged
// mesh's structure once: unaudited, the merge's Mesh.Audit gate fails it;
// audited, the gate steps aside and the audit stage fails it, with the
// registry's full report naming the triangle.
func TestStructureProvedOnce(t *testing.T) {
	for _, audited := range []bool{false, true} {
		cfg := smallConfig(1)
		cfg.Audit = audited
		rc := newRunCtx(cfg)
		rc.builder = mesh.NewBuilder()
		rc.builder.AddTriangle(geom.Pt(0, 0), geom.Pt(0, 1), geom.Pt(1, 0))
		err := rc.runStages([]Stage{stageFunc{StageMerge, runMerge}, auditStage{}})
		var pe *PhaseError
		if !errors.As(err, &pe) {
			t.Fatalf("audit %v: run returned %v, want a *PhaseError", audited, err)
		}
		var ae *audit.Error
		switch {
		case !audited && (pe.Stage != StageMerge || !strings.Contains(err.Error(), "triangle 0 not CCW")):
			t.Errorf("unaudited run failed with %v, want the merge gate's \"not CCW\"", err)
		case !audited && rc.stats.Audit != nil:
			t.Error("unaudited run produced an audit report")
		case audited && pe.Stage != StageAudit:
			t.Errorf("audited run failed in %q (%v), want %q", pe.Stage, err, StageAudit)
		case audited && !errors.As(err, &ae):
			t.Errorf("audited run error does not wrap *audit.Error: %v", err)
		case audited && (len(ae.Report.Violations) == 0 || ae.Report.Violations[0].Element != 0):
			t.Errorf("audited run's first violation is not triangle 0: %v", ae.Report.Violations)
		}
	}
}

// found drops what an audit measures rather than finds.
func found(rep *audit.Report) audit.Report {
	out := audit.Report{Violations: rep.Violations}
	for _, c := range rep.Checks {
		c.Wall, c.Allocs = 0, 0
		out.Checks = append(out.Checks, c)
	}
	return out
}

// freshSnapshot is the snapshot a run audited, without the checks it
// started early: audit.Run on it runs every check itself.
func freshSnapshot(rc *RunCtx) *audit.Snapshot {
	s := rc.auditSnapshot()
	return &audit.Snapshot{Mesh: s.Mesh, Layers: s.Layers, BL: s.BL, Paths: s.Paths, Farfield: s.Farfield}
}

// crossChains swaps the outermost points of two neighbouring rays of the
// first layer with chains of one length, from mid-loop on: the chains
// cross. The points were gathered for meshing already, so only the audit
// sees the swap.
func crossChains(layers []*blayer.Layer) {
	pts := layers[0].Points
	for ri := len(pts) / 4; ri+1 < len(pts); ri++ {
		if a, b := pts[ri], pts[ri+1]; len(a) >= 2 && len(a) == len(b) {
			a[len(a)-1], b[len(b)-1] = b[len(b)-1], a[len(a)-1]
			return
		}
	}
}

// TestAuditedRunMatchesRun: an audited run's report, its boundary-layer
// check run beside bl-triangulation and collected by the audit stage, is
// audit.Run's with every check run in place over the same snapshot: on a
// clean run, and on one whose layers were corrupted after ray-insertion so
// that two extrusion chains cross.
func TestAuditedRunMatchesRun(t *testing.T) {
	for _, corrupt := range []bool{false, true} {
		cfg := smallConfig(2)
		cfg.Audit = true
		rc := newRunCtx(cfg)
		if corrupt {
			rc.testMutateLayers = crossChains
		}
		err := rc.runStages(pipeline)
		var ae *audit.Error
		switch {
		case corrupt && !errors.As(err, &ae):
			t.Fatalf("run with crossed chains returned %v, want an audit failure", err)
		case !corrupt && err != nil:
			t.Fatalf("clean run: %v", err)
		}
		got, want := found(rc.stats.Audit), found(audit.Run(freshSnapshot(rc), audit.All()))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("corrupt %v: the run's report\n %+v\ndiffers from audit.Run's\n %+v", corrupt, got, want)
		}
		crossed := slices.ContainsFunc(got.Violations, func(v audit.Violation) bool {
			return strings.Contains(v.Detail, "extrusion chain segments cross")
		})
		if crossed != corrupt {
			t.Errorf("corrupt %v: chain crossing reported %v", corrupt, crossed)
		}
	}
}

// noParts is the parts of a check whose Begin did all its work.
type noParts struct{}

func (noParts) Size() int                      { return 0 }
func (noParts) Part(int, int, *audit.Reporter) {}
func (noParts) Tail(*audit.Reporter)           {}

// slowLayers is a layer check that holds its Begin until stop is closed,
// then takes a while longer, as a large boundary layer would; ended says
// that it returned.
type slowLayers struct {
	began, stop chan struct{}
	ended       *atomic.Bool
}

func (slowLayers) Name() string                      { return "slow-layers" }
func (slowLayers) Applicable(s *audit.Snapshot) bool { return len(s.Layers) > 0 }
func (slowLayers) LayersOnly()                       {}
func (c slowLayers) Begin(*audit.Snapshot, *audit.Reporter) audit.Parts {
	close(c.began)
	<-c.stop
	time.Sleep(10 * time.Millisecond) // a run that did not join would return meanwhile
	c.ended.Store(true)
	return noParts{}
}

// TestCancelDuringBLTriangulationJoinsAudit: a run cancelled while
// bl-triangulation meshes, with a started check still running, fails in
// that stage, makes no report, and has joined the check by the time it
// returns.
func TestCancelDuringBLTriangulationJoinsAudit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := slowLayers{make(chan struct{}), make(chan struct{}), new(atomic.Bool)}
	var once sync.Once
	cfg := smallConfig(2)
	cfg.Audit = true
	cfg.TaskHook = func(stage string, _ int) error {
		if stage == StageBLTriangulation {
			once.Do(func() {
				<-c.began
				cancel()
				close(c.stop)
			})
		}
		return nil
	}
	rc := newRunCtx(cfg)
	rc.ctx = ctx
	rc.testChecks = append(audit.All(), c)
	err := rc.runStages(pipeline)
	var pe *PhaseError
	if !errors.As(err, &pe) || pe.Stage != StageBLTriangulation || !errors.Is(err, context.Canceled) {
		t.Fatalf("run returned %v, want a cancellation in %s", err, StageBLTriangulation)
	}
	if rc.stats.Audit != nil {
		t.Error("a run cancelled before the audit stage made a report")
	}
	if !c.ended.Load() {
		t.Error("the started check was still running when the run returned: not joined")
	}
}

// panicLayers is a layer check with a bug, in the boundary-layer check's
// place.
type panicLayers struct{}

func (panicLayers) Name() string                                       { return "boundary-layer" }
func (panicLayers) Applicable(s *audit.Snapshot) bool                  { return len(s.Layers) > 0 }
func (panicLayers) LayersOnly()                                        {}
func (panicLayers) Begin(*audit.Snapshot, *audit.Reporter) audit.Parts { panic("boom") }

// TestAuditStartedCheckPanic: a check started beside the mesher that panics
// fails the run in the audit stage with the error audit.RunContext gives
// when it runs that check itself.
func TestAuditStartedCheckPanic(t *testing.T) {
	checks := audit.All()
	for i, c := range checks {
		if c.Name() == "boundary-layer" {
			checks[i] = panicLayers{}
		}
	}
	cfg := smallConfig(1)
	cfg.Audit = true
	rc := newRunCtx(cfg)
	rc.testChecks = checks
	err := rc.runStages(pipeline)
	var pe *PhaseError
	if !errors.As(err, &pe) || pe.Stage != StageAudit {
		t.Fatalf("run returned %v, want a failure in %s", err, StageAudit)
	}
	_, want := audit.RunContext(context.Background(), freshSnapshot(rc), checks)
	if want == nil || pe.Err.Error() != want.Error() {
		t.Errorf("run failed with %v, audit.RunContext with %v", pe.Err, want)
	}
	if !strings.Contains(err.Error(), "boundary-layer panicked: boom") {
		t.Errorf("error %q does not name the check and its panic", err)
	}
}
