package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"pamg2d/internal/mpi"
)

// TestStageOrder locks in the stage graph: a full run records exactly the
// six pipeline stages, in order, with wall time measured for each.
func TestStageOrder(t *testing.T) {
	res, err := Generate(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{StageValidate, StageRays, StageRayInsertion,
		StageBLTriangulation, StageInviscid, StageMerge}
	if len(res.Stats.Stages) != len(want) {
		t.Fatalf("recorded %d stages, want %d: %+v", len(res.Stats.Stages), len(want), res.Stats.Stages)
	}
	for i, s := range res.Stats.Stages {
		if s.Name != want[i] {
			t.Errorf("stage %d is %q, want %q", i, s.Name, want[i])
		}
		if s.Wall < 0 {
			t.Errorf("stage %q has negative wall time", s.Name)
		}
	}
	// The distributed stages are the only ones that talk on the wire.
	for _, s := range res.Stats.Stages {
		wired := s.Name == StageRayInsertion || s.Name == StageBLTriangulation || s.Name == StageInviscid
		if wired && s.Messages == 0 {
			t.Errorf("distributed stage %q recorded no messages", s.Name)
		}
		if !wired && s.Messages != 0 {
			t.Errorf("root-side stage %q recorded %d messages", s.Name, s.Messages)
		}
	}
}

// TestStageWall: the accessor sums whole-name matches over Stats.Stages, so
// an audited run's "audit/<check>" sub-entries are never counted — not
// under StageAudit, not in the sum over every stage name — and the stages
// together fit inside the run's total.
func TestStageWall(t *testing.T) {
	all := []string{StageValidate, StageRays, StageRayInsertion,
		StageBLTriangulation, StageInviscid, StageMerge, StageAudit}
	for _, ranks := range []int{1, 4} {
		cfg := smallConfig(ranks)
		cfg.Audit = true
		res, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := &res.Stats
		byName := make(map[string]time.Duration)
		var summaries, subs time.Duration
		for _, s := range st.Stages {
			byName[s.Name] += s.Wall
			if strings.Contains(s.Name, "/") {
				subs += s.Wall
			} else {
				summaries += s.Wall
			}
		}
		if subs <= 0 {
			t.Fatalf("%d ranks: audited run recorded no audit/<check> sub-entries", ranks)
		}
		for _, tc := range []struct {
			what  string
			names []string
			want  time.Duration
		}{
			{"no names", nil, 0},
			{"unknown name", []string{"no-such-stage"}, 0},
			{"audit summary only", []string{StageAudit}, byName[StageAudit]},
			{"two boundary-layer stages", []string{StageRays, StageRayInsertion}, byName[StageRays] + byName[StageRayInsertion]},
			{"every stage", all, summaries},
		} {
			if got := st.StageWall(tc.names...); got != tc.want {
				t.Errorf("%d ranks: StageWall(%s) = %v, want %v", ranks, tc.what, got, tc.want)
			}
		}
		if total := st.StageWall(all...); total <= 0 || total > st.Times.Total {
			t.Errorf("%d ranks: stages sum to %v, want in (0, Times.Total = %v]", ranks, total, st.Times.Total)
		}
	}
}

// TestSerialTime: at one rank the accessor is the sum over summary stages of
// wall minus summed rank Busy, an audited run's "audit/<check>" sub-entries
// are not counted a second time, and at any rank count it fits inside the
// run's total.
func TestSerialTime(t *testing.T) {
	cfg := smallConfig(1)
	cfg.Audit = true
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := &res.Stats
	var want, subs time.Duration
	for _, s := range st.Stages {
		if strings.Contains(s.Name, "/") {
			subs += s.Wall
			continue
		}
		want += s.Wall
		for _, r := range s.Ranks {
			want -= r.Busy
		}
	}
	if subs <= 0 {
		t.Fatal("audited run recorded no audit/<check> sub-entries")
	}
	if got := st.SerialTime(); got != want {
		t.Errorf("1 rank: SerialTime = %v, want %v (sub-entries %v must not count)", got, want, subs)
	}
	if got := st.SerialTime(); got <= 0 || got > st.Times.Total {
		t.Errorf("1 rank: SerialTime = %v, want in (0, Times.Total = %v]", got, st.Times.Total)
	}

	if res, err = Generate(smallConfig(2)); err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.SerialTime(); got < 0 || got > res.Stats.Times.Total {
		t.Errorf("2 ranks: SerialTime = %v, want in [0, Times.Total = %v]", got, res.Stats.Times.Total)
	}
}

// cancelDuring runs the pipeline with a context that is canceled by the
// first task of the named stage and returns the resulting error.
func cancelDuring(t *testing.T, stage string) error {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := smallConfig(2)
	cfg.TaskHook = func(s string, kind int) error {
		if s == stage {
			cancel()
		}
		return nil
	}
	_, err := GenerateContext(ctx, cfg)
	return err
}

func testCancelMidStage(t *testing.T, stage string) {
	t.Helper()
	g0, p0 := mpi.PoolCounters()
	err := cancelDuring(t, stage)
	if err == nil {
		t.Fatalf("canceling during %s did not fail the run", stage)
	}
	var pe *PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T (%v), want *PhaseError", err, err)
	}
	if pe.Stage != stage {
		t.Errorf("PhaseError.Stage = %q, want %q", pe.Stage, stage)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
	g1, p1 := mpi.PoolCounters()
	if gets, puts := g1-g0, p1-p0; gets != puts {
		t.Errorf("pooled buffers leaked across cancellation: %d gets, %d puts", gets, puts)
	}
}

func TestCancelDuringRayInsertion(t *testing.T) {
	testCancelMidStage(t, StageRayInsertion)
}

func TestCancelDuringInviscid(t *testing.T) {
	testCancelMidStage(t, StageInviscid)
}

// TestCancelBeforeFirstStage covers the between-stage check: an already
// canceled context fails on the first stage without running anything.
func TestCancelBeforeFirstStage(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := GenerateContext(ctx, smallConfig(1))
	var pe *PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T (%v), want *PhaseError", err, err)
	}
	if pe.Stage != StageValidate {
		t.Errorf("PhaseError.Stage = %q, want %q", pe.Stage, StageValidate)
	}
	if pe.Rank != -1 {
		t.Errorf("cancellation before any rank ran has Rank = %d, want -1", pe.Rank)
	}
}

// TestTaskFailureAttribution injects a task failure in the inviscid phase
// and checks the PhaseError names the stage and the executing rank.
func TestTaskFailureAttribution(t *testing.T) {
	boom := errors.New("injected task failure")
	cfg := smallConfig(3)
	cfg.TaskHook = func(stage string, kind int) error {
		if stage == StageInviscid && kind == kindInviscid {
			return boom
		}
		return nil
	}
	_, err := Generate(cfg)
	if err == nil {
		t.Fatal("injected task failure did not fail the run")
	}
	var pe *PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T (%v), want *PhaseError", err, err)
	}
	if pe.Stage != StageInviscid {
		t.Errorf("PhaseError.Stage = %q, want %q", pe.Stage, StageInviscid)
	}
	if pe.Rank < 0 || pe.Rank >= cfg.Ranks {
		t.Errorf("PhaseError.Rank = %d, want a rank in [0, %d)", pe.Rank, cfg.Ranks)
	}
	if !errors.Is(err, boom) {
		t.Errorf("error does not wrap the injected failure: %v", err)
	}
}

// TestCancelLeavesNoGoroutines drives a mid-stage cancellation and polls
// the goroutine count back to its pre-run level: every balancer and rank
// goroutine must drain.
func TestCancelLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if err := cancelDuring(t, StageInviscid); err == nil {
			t.Fatal("cancellation did not fail the run")
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after canceled runs", before, runtime.NumGoroutine())
}

// TestGenerateTimeout exercises the deadline path end to end.
func TestGenerateTimeout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, err := GenerateContext(ctx, smallConfig(1))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out run returned %v, want DeadlineExceeded", err)
	}
	var pe *PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T, want *PhaseError", err)
	}
}
