package mpi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// runSPMD mirrors how real multi-process runs drive a wire cluster: every
// node mints its next world and runs the same rank function, exactly as
// the SPMD contract requires. Returns one RunCtx error per node.
func runSPMD(ctx context.Context, clusters []*Cluster, fn func(c *Comm) error) []error {
	worlds := make([]*World, len(clusters))
	for i, cl := range clusters {
		worlds[i] = cl.NewWorld()
	}
	errs := make([]error, len(clusters))
	var wg sync.WaitGroup
	for i, w := range worlds {
		wg.Add(1)
		go func(i int, w *World) {
			defer wg.Done()
			errs[i] = w.RunCtx(ctx, fn)
		}(i, w)
	}
	wg.Wait()
	return errs
}

func loopback(t *testing.T, n int) []*Cluster {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	clusters, err := LoopbackClusters(ctx, n)
	if err != nil {
		t.Fatalf("LoopbackClusters(%d): %v", n, err)
	}
	t.Cleanup(func() {
		for _, cl := range clusters {
			cl.Close()
		}
	})
	return clusters
}

func TestTCPSendRecv(t *testing.T) {
	clusters := loopback(t, 2)
	errs := runSPMD(context.Background(), clusters, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 7, []byte("over the wire")); err != nil {
				return err
			}
			d, src, tag, err := c.Recv(context.Background(), 1, 9)
			if err != nil {
				return err
			}
			if string(d) != "and back" || src != 1 || tag != 9 {
				return fmt.Errorf("got %q from %d tag %d", d, src, tag)
			}
			PutBytes(d)
			return nil
		}
		d, src, tag, err := c.Recv(context.Background(), 0, 7)
		if err != nil {
			return err
		}
		if string(d) != "over the wire" || src != 0 || tag != 7 {
			return fmt.Errorf("got %q from %d tag %d", d, src, tag)
		}
		PutBytes(d)
		return c.Send(0, 9, []byte("and back"))
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("node %d: %v", i, err)
		}
	}
}

// TestTCPSendRefTypedPayloads sends references over the wire: a type
// with a registered codec arrives as the same type, one without is
// refused at the sender.
func TestTCPSendRefTypedPayloads(t *testing.T) {
	clusters := loopback(t, 2)
	errs := runSPMD(context.Background(), clusters, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.SendRef(1, 5, struct{ X int }{}, 8); err == nil {
				return errors.New("a reference without a wire codec was sent")
			}
			b := GetBytes(4)
			copy(b, "refs")
			if err := c.SendRef(1, 6, b, 4); err != nil {
				return err
			}
		}
		// Frames on one link arrive in order, so the reference is queued
		// once the barrier's release reaches rank 1.
		if err := c.Barrier(); err != nil || c.Rank() == 0 {
			return err
		}
		ref, _, _, ok := c.TryRecvRef(0, 6)
		b, isBytes := ref.([]byte)
		if !ok || !isBytes || string(b) != "refs" {
			return fmt.Errorf("byte ref arrived as %#v", ref)
		}
		PutBytes(b)
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("node %d: %v", i, err)
		}
	}
}

func TestTCPBarrier(t *testing.T) {
	clusters := loopback(t, 3)
	var order sync.Map
	var hits [3]int
	errs := runSPMD(context.Background(), clusters, func(c *Comm) error {
		for round := 0; round < 5; round++ {
			order.Store(fmt.Sprintf("%d/%d", round, c.Rank()), true)
			if err := c.Barrier(); err != nil {
				return err
			}
			// After the barrier, every rank's entry for this round exists.
			for r := 0; r < c.Size(); r++ {
				if _, ok := order.Load(fmt.Sprintf("%d/%d", round, r)); !ok {
					return fmt.Errorf("round %d: rank %d missing after barrier", round, r)
				}
			}
			hits[c.Rank()]++
		}
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("node %d: %v", i, err)
		}
	}
	for r, h := range hits {
		if h != 5 {
			t.Errorf("rank %d completed %d rounds, want 5", r, h)
		}
	}
}

func TestTCPWindow(t *testing.T) {
	clusters := loopback(t, 3)
	errs := runSPMD(context.Background(), clusters, func(c *Comm) error {
		win := c.World().NewWindow(c.Size())
		win.Put(c.Rank(), float64(10*(c.Rank()+1)))
		if err := c.Barrier(); err != nil {
			return err
		}
		// Windows are eventually consistent across the wire: the barrier
		// orders rank entry, not frame application, so poll briefly.
		want := []float64{10, 20, 30}
		deadline := time.Now().Add(5 * time.Second)
		for {
			got := win.Get()
			match := len(got) == len(want)
			for i := range want {
				if match && got[i] != want[i] {
					match = false
				}
			}
			if match {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("rank %d window stuck at %v, want %v", c.Rank(), got, want)
			}
			time.Sleep(time.Millisecond)
		}
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("node %d: %v", i, err)
		}
	}
}

// TestTCPCollectives drives the collective traffic shapes the pipeline
// hand-rolls over point-to-point primitives — fan-in to a root from any
// source, fan-out of one payload from a non-zero root, a rank-ordered
// gather — across a 4-process wire, then closes with the barrier.
func TestTCPCollectives(t *testing.T) {
	clusters := loopback(t, 4)
	errs := runSPMD(context.Background(), clusters, func(c *Comm) error {
		ctx := context.Background()
		// Fan-in: every worker contributes a vector to root 0.
		if c.Rank() != 0 {
			if err := c.Send(0, 40, []byte{byte(c.Rank() + 1), 1}); err != nil {
				return err
			}
		} else {
			sum := []int{1, 1}
			for i := 1; i < c.Size(); i++ {
				d, _, _, err := c.Recv(ctx, AnySource, 40)
				if err != nil {
					return err
				}
				sum[0] += int(d[0])
				sum[1] += int(d[1])
				PutBytes(d)
			}
			if sum[0] != 10 || sum[1] != 4 {
				return fmt.Errorf("fan-in got %v", sum)
			}
		}
		// Fan-out from a non-zero root.
		if c.Rank() == 2 {
			for r := 0; r < c.Size(); r++ {
				if r == 2 {
					continue
				}
				if err := c.Send(r, 44, []byte("tree")); err != nil {
					return err
				}
			}
		} else {
			d, _, _, err := c.Recv(ctx, 2, 44)
			if err != nil {
				return err
			}
			if string(d) != "tree" {
				return fmt.Errorf("fan-out got %q", d)
			}
			PutBytes(d)
		}
		// Rank-ordered gather at root 1.
		if c.Rank() != 1 {
			if err := c.Send(1, 46, []byte{byte('a' + c.Rank())}); err != nil {
				return err
			}
		} else {
			for r := 0; r < c.Size(); r++ {
				if r == 1 {
					continue
				}
				p, _, _, err := c.Recv(ctx, r, 46)
				if err != nil {
					return err
				}
				if string(p) != string(byte('a'+r)) {
					return fmt.Errorf("gather rank %d got %q", r, p)
				}
				PutBytes(p)
			}
		}
		return c.Barrier()
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("node %d: %v", i, err)
		}
	}
}

// TestTCPRemoteFailurePropagates is the cancellation check against the
// wire transport: a failure on one process unblocks receives everywhere
// and attributes the failing rank across the process boundary.
func TestTCPRemoteFailurePropagates(t *testing.T) {
	clusters := loopback(t, 2)
	boom := errors.New("boom")
	errs := runSPMD(context.Background(), clusters, func(c *Comm) error {
		if c.Rank() == 1 {
			return boom
		}
		_, _, _, err := c.Recv(context.Background(), 1, 3) // never sent
		if !errors.Is(err, ErrWorldClosed) {
			return fmt.Errorf("recv returned %v, want ErrWorldClosed match", err)
		}
		return nil
	})
	for i, err := range errs {
		var re *RankError
		if !errors.As(err, &re) || re.Rank != 1 {
			t.Errorf("node %d returned %v, want RankError for rank 1", i, err)
		}
	}
	if !errors.Is(errs[1], boom) {
		t.Errorf("failing node lost the original cause: %v", errs[1])
	}
}

// TestTCPCancelReleasesPooledPayloads is the PoolCounters leak check
// against the wire transport: pooled payloads queued on both sides of the
// wire when a world is torn down mid-run must drain back to the pools.
// Both loopback nodes share this process, so the process-global counters
// must balance once the cluster has quiesced.
func TestTCPCancelReleasesPooledPayloads(t *testing.T) {
	gets0, puts0 := PoolCounters()
	clusters := loopback(t, 2)
	runSPMD(context.Background(), clusters, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 50; i++ {
				buf := GetBytes(256)
				if err := c.Send(1, 11, buf); err != nil {
					PutBytes(buf)
					break
				}
			}
			return errors.New("teardown with queued payloads")
		}
		// Receive a few, release them, then block until teardown (rank 0's
		// failure closes the world under the pending receive).
		for i := 0; i < 3; i++ {
			d, _, _, err := c.Recv(context.Background(), 0, 11)
			if err != nil {
				return nil
			}
			PutBytes(d)
		}
		_, _, _, err := c.Recv(context.Background(), 0, 99)
		if !errors.Is(err, ErrWorldClosed) {
			return fmt.Errorf("want closed world, got %v", err)
		}
		return nil
	})
	for _, cl := range clusters {
		cl.Close()
	}
	gets1, puts1 := PoolCounters()
	if gets1-gets0 != puts1-puts0 {
		t.Fatalf("pool imbalance over TCP teardown: %d gets vs %d puts", gets1-gets0, puts1-puts0)
	}
}

// TestTCPPendingEpochDelivery exercises SPMD skew: a sender races ahead
// into a world the receiver has not minted yet; the frames park on the
// transport and deliver when the receiver catches up.
func TestTCPPendingEpochDelivery(t *testing.T) {
	clusters := loopback(t, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	result := make([]string, 2)
	go func() { // node 0 runs ahead
		defer wg.Done()
		w := clusters[0].NewWorld()
		result[0] = fmt.Sprint(w.RunCtx(context.Background(), func(c *Comm) error {
			return c.Send(1, 5, []byte("early"))
		}))
	}()
	go func() { // node 1 mints its world late
		defer wg.Done()
		time.Sleep(50 * time.Millisecond)
		w := clusters[1].NewWorld()
		result[1] = fmt.Sprint(w.RunCtx(context.Background(), func(c *Comm) error {
			d, _, _, err := c.Recv(context.Background(), 0, 5)
			if err != nil {
				return err
			}
			if string(d) != "early" {
				return fmt.Errorf("got %q", d)
			}
			PutBytes(d)
			return nil
		}))
	}()
	wg.Wait()
	for i, r := range result {
		if r != "<nil>" {
			t.Errorf("node %d: %s", i, r)
		}
	}
}

func TestTCPStatsCountRealFrameBytes(t *testing.T) {
	clusters := loopback(t, 2)
	worlds := []*World{clusters[0].NewWorld(), clusters[1].NewWorld()}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_ = worlds[0].RunCtx(context.Background(), func(c *Comm) error {
			return c.Send(1, 3, []byte("0123456789"))
		})
	}()
	go func() {
		defer wg.Done()
		_ = worlds[1].RunCtx(context.Background(), func(c *Comm) error {
			d, _, _, err := c.Recv(context.Background(), 0, 3)
			if err == nil {
				PutBytes(d)
			}
			return err
		})
	}()
	wg.Wait()
	st := worlds[0].Stats()
	if st.Messages.Load() != 1 {
		t.Fatalf("messages = %d, want 1", st.Messages.Load())
	}
	// Frame = 4 length + 1 kind + 8 epoch + 4+4+4 ranks/tag + 2 codec + 10 payload.
	if got := st.Bytes.Load(); got != 37 {
		t.Fatalf("wire bytes = %d, want 37 (real frame size)", got)
	}
	if worlds[0].TransportName() != "tcp" || !worlds[0].MultiProcess() {
		t.Fatalf("transport introspection wrong: %q multiprocess=%v",
			worlds[0].TransportName(), worlds[0].MultiProcess())
	}
}

// TestTCPContextCancelUnblocks runs the RunCtx cancellation scenario from
// cancel_test.go against the wire transport: canceling one process's
// context must unblock receives on every process of the world.
func TestTCPContextCancelUnblocks(t *testing.T) {
	clusters := loopback(t, 2)
	ctx0, cancel := context.WithCancel(context.Background())
	worlds := []*World{clusters[0].NewWorld(), clusters[1].NewWorld()}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs[0] = worlds[0].RunCtx(ctx0, func(c *Comm) error {
			_, _, _, err := c.Recv(ctx0, 1, 77) // never sent
			return err
		})
	}()
	var peerUnblocked error
	go func() {
		defer wg.Done()
		errs[1] = worlds[1].RunCtx(context.Background(), func(c *Comm) error {
			_, _, _, err := c.Recv(context.Background(), 0, 77) // never sent
			peerUnblocked = err
			return nil
		})
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	wg.Wait()
	if !errors.Is(errs[0], context.Canceled) {
		t.Errorf("canceled node returned %v, want context.Canceled", errs[0])
	}
	if !errors.Is(peerUnblocked, ErrWorldClosed) {
		t.Errorf("peer recv got %v, want ErrWorldClosed match", peerUnblocked)
	}
	// The peer's RunCtx reports the remote teardown cause — same contract
	// as in-process, where RunCtx surfaces the close cause even when the
	// local rank function succeeded.
	if errs[1] == nil {
		t.Error("peer RunCtx returned nil, want the propagated teardown cause")
	}
}
