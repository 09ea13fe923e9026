package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pamg2d/internal/mpi"
	"pamg2d/internal/trace"
)

// TestEngineConcurrentRuns is the engine-sharing gate (run under -race in
// CI): several runs in flight on one Engine at once, each with its own
// Stats and Tracer, all byte-identical to a solo run, with the shared
// mpi buffer pools balanced once everything drains.
func TestEngineConcurrentRuns(t *testing.T) {
	cfgSolo := smallConfig(2)
	cfgSolo.Audit = true
	solo, err := Generate(cfgSolo)
	if err != nil {
		t.Fatal(err)
	}
	want := meshBytes(t, solo)

	gets0, puts0 := mpi.PoolCounters()

	eng, err := NewEngine(EngineConfig{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}

	const runs = 4
	results := make([]*Result, runs)
	tracers := make([]*trace.Tracer, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := smallConfig(2)
			cfg.Audit = true
			tracers[i] = trace.New(2)
			cfg.Tracer = tracers[i]
			results[i], errs[i] = eng.Run(context.Background(), cfg)
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if got := meshBytes(t, results[i]); !bytes.Equal(got, want) {
			t.Errorf("run %d: mesh differs from solo run (%d vs %d bytes)", i, len(got), len(want))
		}
		// Per-run state must be fully independent: every run carries its own
		// complete stage record and audit report, not a shared accumulator.
		if a, b := len(results[i].Stats.Stages), len(solo.Stats.Stages); a != b {
			t.Errorf("run %d: %d stage records, solo has %d", i, a, b)
		}
		if results[i].Stats.Audit == nil {
			t.Errorf("run %d: no audit report", i)
		}
		if tracers[i].OpenSpans() != 0 {
			t.Errorf("run %d: %d spans left open", i, tracers[i].OpenSpans())
		}
		// The tracer's task counter must equal this run's own per-rank task
		// totals (audit jobs included) — a shared or cross-wired registry
		// would count other runs' tasks too.
		var expect int64
		for _, s := range results[i].Stats.Stages {
			for _, r := range s.Ranks {
				expect += int64(r.Tasks)
			}
		}
		snap := tracers[i].Metrics().Snapshot()
		if n := snap.Counters["tasks.total"]; n != expect {
			t.Errorf("run %d: tracer saw %d tasks, stats have %d — registries cross-talk?",
				i, n, expect)
		}
	}
	if n := eng.Metrics().Snapshot().Counters["engine.runs"]; n != runs {
		t.Errorf("engine.runs = %d, want %d", n, runs)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// All pooled wire buffers borrowed by the concurrent runs must be back:
	// the per-run leak check is that the global balance moved by equal
	// amounts while this engine was the only user.
	gets1, puts1 := mpi.PoolCounters()
	if gets1-gets0 != puts1-puts0 {
		t.Errorf("pooled buffers leaked: %d gets vs %d puts across the engine's lifetime",
			gets1-gets0, puts1-puts0)
	}
}

// TestEngineAdmission exercises the MaxConcurrent/MaxQueue gate with runs
// deterministically parked inside a distributed stage via the test hook.
func TestEngineAdmission(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Ranks: 1, MaxConcurrent: 1, MaxQueue: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	inside := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	cfg := smallConfig(1)
	cfg.TaskHook = func(stage string, kind int) error {
		once.Do(func() {
			close(inside)
			<-release
		})
		return nil
	}
	done := make(chan error, 1)
	go func() {
		_, err := eng.Run(context.Background(), cfg)
		done <- err
	}()
	<-inside

	// The engine is saturated and has no queue: the second run fails fast.
	if _, err := eng.Run(context.Background(), smallConfig(1)); !errors.Is(err, ErrEngineBusy) {
		t.Errorf("saturated engine: err = %v, want ErrEngineBusy", err)
	}
	if n := eng.Metrics().Snapshot().Counters["engine.rejected"]; n != 1 {
		t.Errorf("engine.rejected = %d, want 1", n)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("parked run: %v", err)
	}
	// Capacity is back: the next run is admitted.
	if _, err := eng.Run(context.Background(), smallConfig(1)); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

// TestEngineQueueWait: a queued run waits for a slot and then executes;
// a canceled waiter leaves with the context's cause.
func TestEngineQueueWait(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Ranks: 1, MaxConcurrent: 1, MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	inside := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	cfg := smallConfig(1)
	cfg.TaskHook = func(stage string, kind int) error {
		once.Do(func() {
			close(inside)
			<-release
		})
		return nil
	}
	first := make(chan error, 1)
	go func() {
		_, err := eng.Run(context.Background(), cfg)
		first <- err
	}()
	<-inside

	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := eng.Run(ctx, smallConfig(1))
		queued <- err
	}()
	// Give the waiter a moment to enter the queue, then cancel it: it must
	// leave with the cancellation, not ErrEngineBusy, and without running.
	for eng.Metrics().Snapshot().Counters["engine.queued"] == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Errorf("canceled waiter: err = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("parked run: %v", err)
	}
}

// TestEngineValidation covers closed-engine, rank-mismatch and foreign-
// fabric rejections.
func TestEngineValidation(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(3)
	if _, err := eng.Run(context.Background(), cfg); err == nil ||
		!strings.Contains(err.Error(), "asks for 3 ranks but the fabric has 2") {
		t.Errorf("rank mismatch: err = %v", err)
	}
	other := mpi.InProcess(2)
	defer other.Close()
	cfgF := smallConfig(2)
	cfgF.Fabric = other
	if _, err := eng.Run(context.Background(), cfgF); err == nil ||
		!strings.Contains(err.Error(), "not the engine's") {
		t.Errorf("foreign fabric: err = %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := eng.Run(context.Background(), smallConfig(2)); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("closed engine: err = %v, want ErrEngineClosed", err)
	}

	// NewEngine against a mismatched attached fabric mirrors the
	// GenerateContext error exactly.
	if _, err := NewEngine(EngineConfig{Ranks: 3, Fabric: other}); err == nil ||
		!strings.Contains(err.Error(), "asks for 3 ranks but the fabric has 2") {
		t.Errorf("NewEngine mismatch: err = %v", err)
	}
}

// TestEngineAdoptsRanks: a zero-rank config adopts the engine's count,
// and the wrapper path (GenerateContext) still resolves zero to one.
func TestEngineAdoptsRanks(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cfg := smallConfig(2)
	cfg.Ranks = 0
	res, err := eng.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mesh.NumTriangles() < 500 {
		t.Errorf("adopted-rank run produced only %d triangles", res.Mesh.NumTriangles())
	}
}
