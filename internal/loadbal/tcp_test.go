package loadbal

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pamg2d/internal/mpi"
)

// TestTaskCodecRoundTrip is the property test for the steal-grant wire
// format: any Task — vals-carrying or empty — survives encode→decode
// bit-exactly.
func TestTaskCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		in := Task{
			ID:            rng.Int31(),
			Cost:          rng.NormFloat64() * 1e4,
			BoundaryLayer: rng.Intn(2) == 1,
		}
		if rng.Intn(3) > 0 {
			in.Vals = make([]float64, rng.Intn(50))
			for k := range in.Vals {
				in.Vals[k] = rng.NormFloat64()
			}
		}
		wire := encodeTaskRef(in, nil)
		ref, err := decodeTaskRef(wire)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", i, err)
		}
		out := ref.(Task)
		if out.ID != in.ID || out.Cost != in.Cost || out.BoundaryLayer != in.BoundaryLayer {
			t.Fatalf("iter %d: header mismatch: %+v -> %+v", i, in, out)
		}
		if len(out.Vals) != len(in.Vals) {
			t.Fatalf("iter %d: vals length %d -> %d", i, len(in.Vals), len(out.Vals))
		}
		for k := range in.Vals {
			if out.Vals[k] != in.Vals[k] {
				t.Fatalf("iter %d: vals[%d] mismatch", i, k)
			}
		}
	}
}

func TestTaskCodecRejectsMalformed(t *testing.T) {
	good := encodeTaskRef(Task{ID: 1, Vals: []float64{1, 2}}, nil)
	cases := map[string][]byte{
		"short header": good[:10],
		"ragged vals":  good[:len(good)-3],
		"unknown form": {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9},
		"byte form":    {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	}
	for name, b := range cases {
		if _, err := decodeTaskRef(b); err == nil {
			t.Errorf("%s: decoder accepted malformed task", name)
		}
	}
}

// TestStealingOverTCP runs the total-imbalance scenario across a loopback
// TCP cluster: all work starts on rank 0's process and the other
// processes must steal it over the wire — grants serialize through the
// Task codec, the load table crosses via window frames, and termination
// fans out from the root.
func TestStealingOverTCP(t *testing.T) {
	const ranks = 3
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	clusters, err := mpi.LoopbackClusters(ctx, ranks)
	if err != nil {
		t.Fatalf("LoopbackClusters: %v", err)
	}
	defer func() {
		for _, cl := range clusters {
			cl.Close()
		}
	}()

	const total = 24
	var mu sync.Mutex
	processed := map[int32]int{}
	perRank := make([]int, ranks)
	stats := make([]Stats, ranks)
	errs := make([]error, ranks)

	var wg sync.WaitGroup
	for i, cl := range clusters {
		wg.Add(1)
		go func(i int, cl *mpi.Cluster) {
			defer wg.Done()
			w := cl.NewWorld()
			errs[i] = w.RunCtx(ctx, func(c *mpi.Comm) error {
				var initial []Task
				if c.Rank() == 0 {
					for k := int32(0); k < total; k++ {
						initial = append(initial, Task{ID: k, Cost: 20, Vals: []float64{float64(k), 0.5}})
					}
				}
				win := w.NewWindow(c.Size())
				st, err := Run(ctx, c, win, initial, total,
					Options{StealBelow: 30, Poll: 100 * time.Microsecond},
					func(task Task) {
						time.Sleep(2 * time.Millisecond) // keep rank 0 busy enough to be robbed
						if len(task.Vals) != 2 || task.Vals[0] != float64(task.ID) {
							t.Errorf("task %d arrived with vals %v", task.ID, task.Vals)
						}
						mu.Lock()
						processed[task.ID]++
						perRank[c.Rank()]++
						mu.Unlock()
					})
				stats[c.Rank()] = st
				return err
			})
		}(i, cl)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	for k := int32(0); k < total; k++ {
		if processed[k] != 1 {
			t.Errorf("task %d processed %d times, want exactly once", k, processed[k])
		}
	}
	stolen := 0
	busy := 0
	for r := 0; r < ranks; r++ {
		stolen += stats[r].StealsGotten
		if perRank[r] > 0 {
			busy++
		}
	}
	if stolen == 0 {
		t.Error("no tasks crossed the wire despite total imbalance")
	}
	if busy < 2 {
		t.Errorf("only %d processes did any work", busy)
	}
}

// TestRecoveryOverTCP kills one worker of a 3-process loopback fabric
// mid-run and checks the balancer completes on the survivors: the root
// re-queues the dead rank's unfinished tasks (at-least-once semantics),
// every task executes, and the recovery counters land in the root's
// stats.
func TestRecoveryOverTCP(t *testing.T) {
	const ranks = 3
	const total = 12
	const victim = 2
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	clusters, err := mpi.LoopbackClusters(ctx, ranks)
	if err != nil {
		t.Fatalf("LoopbackClusters: %v", err)
	}
	byRank := make([]*mpi.Cluster, ranks)
	for _, cl := range clusters {
		byRank[cl.Rank()] = cl
	}
	defer func() {
		for r, cl := range byRank {
			if r != victim {
				cl.Close()
			}
		}
	}()

	// Every process computes the identical deal (the SPMD contract) and
	// the root additionally learns the ownership map from it.
	initial := make([][]Task, ranks)
	for i := 0; i < total; i++ {
		tk := Task{ID: int32(i), Cost: 20, Vals: []float64{float64(i), 0.5}}
		initial[i%ranks] = append(initial[i%ranks], tk)
	}
	opt := Options{StealBelow: 1, Poll: 100 * time.Microsecond, deal: initial}

	victimStarted := make(chan struct{})
	var startOnce sync.Once
	var mu sync.Mutex
	processed := map[int32]int{}
	stats := make([]Stats, ranks)
	errs := make([]error, ranks)

	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int, cl *mpi.Cluster) {
			defer wg.Done()
			w := cl.NewWorld()
			errs[r] = w.RunCtx(ctx, func(c *mpi.Comm) error {
				win := w.NewWindow(c.Size())
				st, err := Run(ctx, c, win, initial[c.Rank()], total, opt, func(task Task) {
					if c.Rank() == victim {
						// Park so the kill lands while this rank still owns
						// unfinished work; the signal fires before the sleep so
						// the in-flight task is never completed by the victim.
						startOnce.Do(func() { close(victimStarted) })
						time.Sleep(30 * time.Millisecond)
					}
					mu.Lock()
					processed[task.ID]++
					mu.Unlock()
				})
				mu.Lock()
				stats[c.Rank()] = st
				mu.Unlock()
				return err
			})
		}(r, byRank[r])
	}

	<-victimStarted
	// SIGKILL stand-in: the victim's process vanishes mid-task.
	byRank[victim].Close()
	wg.Wait()

	for r, err := range errs {
		if r != victim && err != nil {
			t.Fatalf("survivor %d: %v", r, err)
		}
	}
	for i := 0; i < total; i++ {
		if processed[int32(i)] < 1 {
			t.Errorf("task %d never processed", i)
		}
	}
	mu.Lock()
	root := stats[0]
	mu.Unlock()
	if root.RanksLost != 1 {
		t.Errorf("root RanksLost = %d, want 1", root.RanksLost)
	}
	if root.Requeued < 1 {
		t.Errorf("root Requeued = %d, want >= 1", root.Requeued)
	}
	if root.RecoveryTime <= 0 {
		t.Errorf("root RecoveryTime = %v, want > 0", root.RecoveryTime)
	}
}
