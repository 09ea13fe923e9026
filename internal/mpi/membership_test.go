package mpi

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// loopback bootstraps an n-process loopback fabric and returns the
// cluster handles indexed by their assigned rank (LoopbackClusters
// returns them in creation order, but JoinTCP ranks are assigned in
// arrival order).
func loopbackByRank(t *testing.T, n int) []*Cluster {
	t.Helper()
	cls := loopback(t, n)
	byRank := make([]*Cluster, n)
	for _, cl := range cls {
		byRank[cl.Rank()] = cl
	}
	return byRank
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRankDeathMembership kills one worker of a 3-process loopback fabric
// and checks that the survivors' membership view converges: the dead rank
// drops out of the live set, the death is recorded, and sends to it fail
// fast with the typed error.
func TestRankDeathMembership(t *testing.T) {
	ctx := context.Background()
	cls := loopbackByRank(t, 3)

	w0 := cls[0].NewWorld()
	w1 := cls[1].NewWorld()
	_ = cls[2].NewWorld()

	for r := 0; r < 3; r++ {
		if !cls[0].tcp.alive(r) {
			t.Fatalf("rank %d dead before any death", r)
		}
	}

	// SIGKILL stand-in: the process vanishes, its connections reset.
	cls[2].Close()

	waitFor(t, "rank 0 to declare rank 2 dead", func() bool { return !cls[0].tcp.alive(2) })
	waitFor(t, "rank 1 to declare rank 2 dead", func() bool { return !cls[1].tcp.alive(2) })

	deaths := cls[0].DeadRanks()
	if len(deaths) != 1 || deaths[0].Rank != 2 || deaths[0].Cause == nil || deaths[0].At.IsZero() {
		t.Errorf("death record = %+v, want one entry for rank 2 with cause and time", deaths)
	}
	if !cls[0].tcp.alive(0) || !cls[0].tcp.alive(1) {
		t.Error("a survivor left the live set")
	}

	// The open worlds observed the death, and sends to the dead rank fail
	// fast with *RankDeadError.
	waitFor(t, "world 0 to observe the failure", func() bool { return w0.failure.Load() != nil })
	if f := w0.failure.Load(); f.Rank != 2 {
		t.Errorf("world failure = %v, want RankDeadError for rank 2", f)
	}
	err := w0.RunCtx(ctx, func(c *Comm) error {
		sendErr := c.Send(2, 7, []byte("hi"))
		var de *RankDeadError
		if !errors.As(sendErr, &de) || de.Rank != 2 {
			t.Errorf("send to dead rank: %v, want RankDeadError for rank 2", sendErr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = w1
}

// TestCollectivesOverSurvivors mints fresh worlds after a death (the
// recovery path's re-plan step) and checks a root<->worker exchange and
// a rendezvous complete over the two survivors of a 3-rank fabric, while
// a send to the born-dead rank fails fast with the typed error.
func TestCollectivesOverSurvivors(t *testing.T) {
	ctx := context.Background()
	cls := loopbackByRank(t, 3)

	cls[2].Close()
	waitFor(t, "survivors to notice the death", func() bool {
		return !cls[0].tcp.alive(2) && !cls[1].tcp.alive(2)
	})

	w0 := cls[0].NewWorld()
	w1 := cls[1].NewWorld()
	if f := w0.failure.Load(); f != nil {
		t.Fatalf("world minted after death reports failure %v, want nil (born-dead rank is planned around)", f)
	}
	if !w0.Alive(0) || !w0.Alive(1) || w0.Alive(2) {
		t.Fatalf("fresh world live view: alive = %v/%v/%v, want true/true/false", w0.Alive(0), w0.Alive(1), w0.Alive(2))
	}

	run := func(w *World, errp *error) {
		*errp = w.RunCtx(ctx, func(c *Comm) error {
			var de *RankDeadError
			if err := c.Send(2, 5, []byte{1}); !errors.As(err, &de) || de.Rank != 2 {
				t.Errorf("rank %d send to born-dead rank returned %v, want RankDeadError{2}", c.Rank(), err)
			}
			// Star exchange over the live set: worker -> root, root -> worker.
			if c.Rank() == 0 {
				b, _, _, err := c.Recv(ctx, 1, 10)
				if err != nil {
					return err
				}
				if len(b) != 1 || b[0] != 7 {
					t.Errorf("root got %v from rank 1, want [7]", b)
				}
				PutBytes(b)
				if err := c.Send(1, 20, []byte{42}); err != nil {
					return err
				}
			} else {
				if err := c.Send(0, 10, []byte{7}); err != nil {
					return err
				}
				b, _, _, err := c.Recv(ctx, 0, 20)
				if err != nil {
					return err
				}
				if len(b) != 1 || b[0] != 42 {
					t.Errorf("rank 1 got %v from root, want [42]", b)
				}
				PutBytes(b)
			}
			return rendezvous(c)
		})
	}
	var wg sync.WaitGroup
	var e0, e1 error
	wg.Add(2)
	go func() { defer wg.Done(); run(w0, &e0) }()
	go func() { defer wg.Done(); run(w1, &e1) }()
	wg.Wait()
	if e0 != nil || e1 != nil {
		t.Fatalf("survivor exchange failed: rank0=%v rank1=%v", e0, e1)
	}
}

// TestRecvFromDeadRankFails checks a blocking receive aimed at a dead
// rank returns the typed error instead of hanging.
func TestRecvFromDeadRankFails(t *testing.T) {
	ctx := context.Background()
	cls := loopbackByRank(t, 3)

	cls[2].Close()
	waitFor(t, "rank 0 to notice the death", func() bool { return !cls[0].tcp.alive(2) })

	w0 := cls[0].NewWorld()
	_ = cls[1].NewWorld()
	err := w0.RunCtx(ctx, func(c *Comm) error {
		_, _, _, recvErr := c.Recv(ctx, 2, 5)
		var de *RankDeadError
		if !errors.As(recvErr, &de) || de.Rank != 2 {
			t.Errorf("recv from dead rank: %v, want RankDeadError for rank 2", recvErr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRootDeathIsQuorumLoss kills rank 0 and checks the worker tears all
// the way down — the window host is gone — with the rank-0 death as the
// world's close cause.
func TestRootDeathIsQuorumLoss(t *testing.T) {
	cls := loopbackByRank(t, 2)

	w1 := cls[1].NewWorld()
	_ = cls[0].NewWorld()
	cls[0].Close()

	waitFor(t, "worker world to close on root death", func() bool { return w1.Err() != nil })
	var de *RankDeadError
	if !errors.As(w1.Err(), &de) || de.Rank != 0 {
		t.Errorf("worker close cause = %v, want RankDeadError for rank 0", w1.Err())
	}
	if !errors.Is(w1.Err(), ErrWorldClosed) {
		t.Errorf("worker close cause does not match ErrWorldClosed: %v", w1.Err())
	}
}

// TestHeartbeatTimeoutDetectsSilentPeer freezes one peer (heartbeats off,
// connection left open) and checks the read deadline declares it dead
// without any link-level error.
func TestHeartbeatTimeoutDetectsSilentPeer(t *testing.T) {
	cls := loopbackByRank(t, 2)

	// Rank 1 goes silent: no heartbeats, no deadline of its own (so it
	// never declares rank 0 dead first). Rank 0 beats fast and expects
	// traffic within 300ms.
	cls[1].setHeartbeat(0, 0)
	cls[0].setHeartbeat(20*time.Millisecond, 300*time.Millisecond)

	waitFor(t, "rank 0 to declare the silent rank 1 dead", func() bool { return !cls[0].tcp.alive(1) })
	deaths := cls[0].DeadRanks()
	if len(deaths) != 1 || deaths[0].Rank != 1 {
		t.Fatalf("death record = %+v, want one entry for rank 1", deaths)
	}
}

// TestDeathNoticePropagation checks a frameRankDead from a peer folds
// into the local membership view: rank 1 learns of rank 2's death from
// rank 0's announcement even if its own link to rank 2 stays quiet.
func TestDeathNoticePropagation(t *testing.T) {
	cls := loopbackByRank(t, 3)
	defer cls[2].Close()

	// Only rank 0 watches for silence; ranks 1 and 2 never time out on
	// their own, so rank 1 can only learn of 2's death from the notice.
	cls[0].setHeartbeat(20*time.Millisecond, 300*time.Millisecond)
	cls[1].setHeartbeat(20*time.Millisecond, 0)
	cls[2].setHeartbeat(0, 0)

	waitFor(t, "rank 0 to declare rank 2 dead", func() bool { return !cls[0].tcp.alive(2) })
	waitFor(t, "rank 1 to hear the death notice", func() bool { return !cls[1].tcp.alive(2) })
}
