package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"pamg2d/internal/audit"
	"pamg2d/internal/mesh"
	"pamg2d/internal/mpi"
)

// TestAuditCleanRun runs the audited pipeline at 1 and 4 ranks and checks
// that the real pipeline output passes its own audit: every check runs (the
// Ruppert kernel makes the Delaunay check applicable), zero violations, and
// the stage engine records both the "audit" summary entry and the
// per-check "audit/<check>" entries with nonzero wall time.
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
		if ranks > 1 && summary.Messages == 0 {
			t.Errorf("%d ranks: audit stage recorded no wire messages", ranks)
		}
	}
}

// TestAuditViolationFailsRun corrupts the merged mesh before the audit
// stage (a flipped triangle) and checks the failure contract: the run
// fails with a *PhaseError for the audit stage attributing the rank that
// found the violation, wrapping an *audit.Error whose report names the
// corrupted element.
func TestAuditViolationFailsRun(t *testing.T) {
	const victim = 7
	cfg := smallConfig(3)
	cfg.Audit = true
	cfg.testMutateMesh = func(m *mesh.Mesh) {
		t := &m.Triangles[victim]
		t[0], t[1] = t[1], t[0]
	}
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
	if pe.Rank < 0 || pe.Rank >= cfg.Ranks {
		t.Errorf("PhaseError.Rank = %d, want a rank in [0, %d)", pe.Rank, cfg.Ranks)
	}
	var ae *audit.Error
	if !errors.As(err, &ae) {
		t.Fatalf("error does not wrap *audit.Error: %v", err)
	}
	// Violations fold in check order with orientation first, so the flipped
	// triangle is the leading finding and the PhaseError carries its rank.
	if len(ae.Report.Violations) == 0 {
		t.Fatal("audit.Error carries an empty report")
	}
	if first := ae.Report.Violations[0]; first.Element != victim {
		t.Errorf("first violation attributes element %d, want %d", first.Element, victim)
	} else if first.Rank != pe.Rank {
		t.Errorf("first violation on rank %d but PhaseError.Rank = %d", first.Rank, pe.Rank)
	}
	if !strings.Contains(err.Error(), "element") {
		t.Errorf("error message carries no element attribution: %v", err)
	}
}

// TestCancelDuringAudit mirrors the other mid-stage cancellation tests:
// canceling from the first audit job tears the stage down as a *PhaseError
// wrapping context.Canceled, without leaking pooled wire buffers.
func TestCancelDuringAudit(t *testing.T) {
	g0, p0 := mpi.PoolCounters()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := smallConfig(2)
	cfg.Audit = true
	cfg.TaskHook = func(stage string, kind int) error {
		if stage == StageAudit {
			cancel()
		}
		return nil
	}
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

// TestAuditTaskFailureAttribution injects a job failure in the audit stage
// and checks it surfaces with stage and rank attribution like every other
// distributed phase.
func TestAuditTaskFailureAttribution(t *testing.T) {
	boom := errors.New("injected audit job failure")
	cfg := smallConfig(3)
	cfg.Audit = true
	cfg.TaskHook = func(stage string, kind int) error {
		if stage == StageAudit && kind == kindAudit {
			return boom
		}
		return nil
	}
	_, err := Generate(cfg)
	if err == nil {
		t.Fatal("injected audit job failure did not fail the run")
	}
	var pe *PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T (%v), want *PhaseError", err, err)
	}
	if pe.Stage != StageAudit {
		t.Errorf("PhaseError.Stage = %q, want %q", pe.Stage, StageAudit)
	}
	if pe.Rank < 0 || pe.Rank >= cfg.Ranks {
		t.Errorf("PhaseError.Rank = %d, want a rank in [0, %d)", pe.Rank, cfg.Ranks)
	}
	if !errors.Is(err, boom) {
		t.Errorf("error does not wrap the injected failure: %v", err)
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
