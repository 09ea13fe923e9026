package loadbal

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"pamg2d/internal/mpi"
)

func TestRunPreCanceledContext(t *testing.T) {
	// An already-canceled context must fail every rank immediately, before
	// any task runs.
	ranks := 2
	dist := make([][]Task, ranks)
	for k := int32(0); k < 6; k++ {
		dist[0] = append(dist[0], Task{ID: k, Cost: 1})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	world := mpi.NewWorld(ranks)
	win := world.NewWindow(ranks)
	var processed atomic.Int32
	errs := make([]error, ranks)
	werr := world.RunCtx(context.Background(), func(c *mpi.Comm) error {
		_, errs[c.Rank()] = Run(ctx, c, win, dist[c.Rank()], 6,
			Options{StealBelow: 0.5, Poll: 100 * time.Microsecond},
			func(Task) { processed.Add(1) })
		return nil
	})
	if werr != nil {
		t.Fatal(werr)
	}
	for r, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("rank %d: err = %v, want context.Canceled", r, err)
		}
	}
	if n := processed.Load(); n != 0 {
		t.Errorf("%d tasks ran despite a pre-canceled context", n)
	}
}

func TestRunCancelMidStream(t *testing.T) {
	// Cancel while tasks are flowing: every rank must return an error and
	// drain both of its goroutines instead of hanging on termination
	// messages that will never arrive.
	ranks := 4
	dist := make([][]Task, ranks)
	id := int32(0)
	for r := 0; r < ranks; r++ {
		for k := 0; k < 50; k++ {
			dist[r] = append(dist[r], Task{ID: id, Cost: 5})
			id++
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	world := mpi.NewWorld(ranks)
	win := world.NewWindow(ranks)
	var processed atomic.Int32
	errs := make([]error, ranks)
	done := make(chan struct{})
	go func() {
		defer close(done)
		world.RunCtx(ctx, func(c *mpi.Comm) error {
			_, errs[c.Rank()] = Run(ctx, c, win, dist[c.Rank()], int(id),
				Options{StealBelow: 10, Poll: 100 * time.Microsecond},
				func(Task) {
					if processed.Add(1) == 3 {
						cancel()
					}
					time.Sleep(200 * time.Microsecond)
				})
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("balancer hung after mid-stream cancellation")
	}
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Error("no rank reported the cancellation")
	}
	if n := processed.Load(); int(n) == int(id) {
		t.Errorf("all %d tasks completed; cancellation had no effect", n)
	}
}
