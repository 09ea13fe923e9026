package mpi

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestSendInvalidRank(t *testing.T) {
	world := NewWorld(2)
	err := runWorld(world, func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		if err := c.Send(5, 1, []byte("x")); !errors.Is(err, ErrInvalidRank) {
			t.Errorf("send to rank 5 of 2: err = %v, want ErrInvalidRank", err)
		}
		if err := c.Send(-1, 1, []byte("x")); !errors.Is(err, ErrInvalidRank) {
			t.Errorf("send to rank -1: err = %v, want ErrInvalidRank", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvUnblocksOnPeerError(t *testing.T) {
	// Rank 0 blocks in Recv forever; rank 1 fails. RunCtx must close the
	// world, unblock rank 0 with ErrWorldClosed, and return rank 1's error.
	boom := errors.New("boom")
	world := NewWorld(2)
	var recvErr error
	err := world.RunCtx(context.Background(), func(c *Comm) error {
		if c.Rank() == 1 {
			return boom
		}
		_, _, _, recvErr = c.Recv(context.Background(), 1, 7)
		return nil
	})
	if !errors.Is(recvErr, ErrWorldClosed) {
		t.Errorf("blocked Recv returned %v, want ErrWorldClosed", recvErr)
	}
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 {
		t.Fatalf("RunCtx returned %v, want *RankError for rank 1", err)
	}
	if !errors.Is(err, boom) {
		t.Errorf("RunCtx error does not wrap the root cause: %v", err)
	}
}

func TestRecvUnblocksOnPeerPanic(t *testing.T) {
	world := NewWorld(2)
	err := world.RunCtx(context.Background(), func(c *Comm) error {
		if c.Rank() == 1 {
			panic("worker exploded")
		}
		if _, _, _, err := c.Recv(context.Background(), 1, 7); !errors.Is(err, ErrWorldClosed) {
			t.Errorf("blocked Recv returned %v, want ErrWorldClosed", err)
		}
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 {
		t.Fatalf("RunCtx returned %v, want *RankError for rank 1", err)
	}
}

func TestRecvHonorsContext(t *testing.T) {
	// A per-receive context deadline unblocks only that receive; the world
	// stays open.
	world := NewWorld(1)
	err := runWorld(world, func(c *Comm) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		if _, _, _, err := c.Recv(ctx, AnySource, 1); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("Recv returned %v, want DeadlineExceeded", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if world.Err() != nil {
		t.Errorf("world closed by a per-receive timeout: %v", world.Err())
	}
}

func TestBarrierReleasedOnClose(t *testing.T) {
	// One rank waits at the barrier while the other fails; the barrier must
	// release with an error instead of deadlocking.
	world := NewWorld(2)
	err := world.RunCtx(context.Background(), func(c *Comm) error {
		if c.Rank() == 1 {
			time.Sleep(5 * time.Millisecond)
			return errors.New("rank 1 failed before the barrier")
		}
		if err := c.Barrier(); !errors.Is(err, ErrWorldClosed) {
			t.Errorf("Barrier returned %v, want ErrWorldClosed", err)
		}
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 {
		t.Fatalf("RunCtx returned %v, want *RankError for rank 1", err)
	}
}

func TestRunCtxCanceledContext(t *testing.T) {
	// Canceling the run context unblocks every rank and reports the
	// context's cause, not a RankError.
	world := NewWorld(4)
	ctx, cancel := context.WithCancel(context.Background())
	var unblocked atomic.Int32
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	err := world.RunCtx(ctx, func(c *Comm) error {
		_, _, _, rerr := c.Recv(context.Background(), AnySource, 1)
		if errors.Is(rerr, ErrWorldClosed) {
			unblocked.Add(1)
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx returned %v, want context.Canceled", err)
	}
	if got := unblocked.Load(); got != 4 {
		t.Errorf("%d of 4 ranks unblocked with ErrWorldClosed", got)
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	world := NewWorld(2)
	world.Close(nil)
	err := world.RunCtx(context.Background(), func(c *Comm) error { return nil })
	if !errors.Is(err, ErrWorldClosed) {
		t.Fatalf("RunCtx on a closed world returned %v", err)
	}
	c := &Comm{world: world, rank: 0}
	if err := c.Send(1, 1, []byte("x")); !errors.Is(err, ErrWorldClosed) {
		t.Errorf("Send on a closed world returned %v, want ErrWorldClosed", err)
	}
}

// TestNoGoroutineLeakOnCancel polls the goroutine count back to its
// pre-run level after a canceled run, proving every rank goroutine exited.
func TestNoGoroutineLeakOnCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		world := NewWorld(4)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		world.RunCtx(ctx, func(c *Comm) error {
			_, _, _, err := c.Recv(context.Background(), AnySource, 1)
			return err
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after canceled runs", before, runtime.NumGoroutine())
}

// TestCloseReleasesPooledPayloads is the leak check for cancellation: a
// pooled buffer handed to Send and never received must return to the pool
// when the world closes, keeping pool gets and puts balanced.
func TestCloseReleasesPooledPayloads(t *testing.T) {
	g0, p0 := PoolCounters()
	world := NewWorld(2)
	err := runWorld(world, func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		for i := 0; i < 8; i++ {
			buf := pooled(1, 2, 3)
			if err := c.Send(1, 42, buf); err != nil {
				PutBytes(buf)
				t.Errorf("send: %v", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	world.Close(nil) // rank 1 never received; Close must release the queue
	g1, p1 := PoolCounters()
	if gets, puts := g1-g0, p1-p0; gets != puts {
		t.Errorf("pool leak across Close: %d gets, %d puts", gets, puts)
	}
}

// TestFailedSendKeepsBufferOwnership covers the send error path: a Send
// that fails on a torn-down world never took the pooled buffer, so the
// sender's own release keeps pool gets and puts balanced (no leak, no
// double put).
func TestFailedSendKeepsBufferOwnership(t *testing.T) {
	g0, p0 := PoolCounters()
	world := NewWorld(2)
	world.Close(nil)
	c := &Comm{world: world, rank: 1}
	buf := pooled(1, 2)
	if err := c.Send(0, 5, buf); !errors.Is(err, ErrWorldClosed) {
		t.Fatalf("Send on a closed world returned %v", err)
	}
	PutBytes(buf)
	g1, p1 := PoolCounters()
	if gets, puts := g1-g0, p1-p0; gets != puts {
		t.Errorf("pool imbalance after failed Send: %d gets, %d puts", gets, puts)
	}
}
