package loadbal

import (
	"container/heap"
	"context"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"pamg2d/internal/mpi"
)

func TestQueuePriority(t *testing.T) {
	q := &taskQueue{}
	heap.Push(q, Task{ID: 1, Cost: 10})
	heap.Push(q, Task{ID: 2, Cost: 100})
	heap.Push(q, Task{ID: 3, Cost: 5, BoundaryLayer: true})
	heap.Push(q, Task{ID: 4, Cost: 50})
	// Boundary-layer tasks come first regardless of cost, then by cost.
	wantOrder := []int32{3, 2, 4, 1}
	for _, want := range wantOrder {
		got := heap.Pop(q).(Task)
		if got.ID != want {
			t.Fatalf("pop order: got %d, want %d", got.ID, want)
		}
	}
}

// runBalanced executes nTasks distributed as per dist across ranks and
// returns processed-task IDs per rank.
func runBalanced(t *testing.T, ranks int, dist [][]Task, opt Options) ([][]int32, []Stats) {
	t.Helper()
	total := 0
	for _, d := range dist {
		total += len(d)
	}
	world := mpi.NewWorld(ranks)
	win := world.NewWindow(ranks)
	processed := make([][]int32, ranks)
	statsOut := make([]Stats, ranks)
	var mu sync.Mutex
	err := world.RunCtx(context.Background(), func(c *mpi.Comm) error {
		st, rerr := Run(context.Background(), c, win, dist[c.Rank()], total, opt, func(task Task) {
			// Simulate work proportional to cost.
			time.Sleep(time.Duration(task.Cost) * 10 * time.Microsecond)
			mu.Lock()
			processed[c.Rank()] = append(processed[c.Rank()], task.ID)
			mu.Unlock()
		})
		if rerr != nil {
			t.Errorf("rank %d: %v", c.Rank(), rerr)
		}
		statsOut[c.Rank()] = st
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return processed, statsOut
}

func TestAllTasksProcessedOnce(t *testing.T) {
	ranks := 4
	dist := make([][]Task, ranks)
	id := int32(0)
	for r := 0; r < ranks; r++ {
		for k := 0; k < 5; k++ {
			dist[r] = append(dist[r], Task{ID: id, Cost: 10})
			id++
		}
	}
	processed, _ := runBalanced(t, ranks, dist, Options{StealBelow: 5, Poll: 100 * time.Microsecond})
	seen := map[int32]int{}
	for _, ids := range processed {
		for _, x := range ids {
			seen[x]++
		}
	}
	if len(seen) != int(id) {
		t.Fatalf("processed %d distinct tasks, want %d", len(seen), id)
	}
	for x, n := range seen {
		if n != 1 {
			t.Fatalf("task %d processed %d times", x, n)
		}
	}
}

func TestStealingFromImbalance(t *testing.T) {
	// All work starts on rank 0; other ranks must steal.
	ranks := 4
	dist := make([][]Task, ranks)
	for k := int32(0); k < 24; k++ {
		dist[0] = append(dist[0], Task{ID: k, Cost: 20})
	}
	processed, stats := runBalanced(t, ranks, dist,
		Options{StealBelow: 30, Poll: 100 * time.Microsecond})
	totalStolen := 0
	for _, s := range stats {
		totalStolen += s.StealsGotten
	}
	if totalStolen == 0 {
		t.Error("no tasks were stolen despite total imbalance")
	}
	busyRanks := 0
	for _, ids := range processed {
		if len(ids) > 0 {
			busyRanks++
		}
	}
	if busyRanks < 2 {
		t.Errorf("only %d ranks did any work", busyRanks)
	}
}

func TestLargestFirstLocally(t *testing.T) {
	// A single rank must process its queue in priority order.
	dist := [][]Task{{
		{ID: 1, Cost: 5},
		{ID: 2, Cost: 50},
		{ID: 3, Cost: 500},
		{ID: 4, Cost: 1, BoundaryLayer: true},
	}}
	processed, _ := runBalanced(t, 1, dist, Options{StealBelow: 0, Poll: 100 * time.Microsecond})
	got := processed[0]
	want := []int32{4, 3, 2, 1}
	if len(got) != len(want) {
		t.Fatalf("processed %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestEmptyRanksTerminate(t *testing.T) {
	// Ranks with no work and nothing to steal must still terminate.
	dist := make([][]Task, 3)
	dist[1] = []Task{{ID: 0, Cost: 1}}
	done := make(chan struct{})
	go func() {
		runBalanced(t, 3, dist, Options{StealBelow: 0.5, Poll: 100 * time.Microsecond})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("balancer did not terminate")
	}
}

// TestPayloadSurvivesTransfer: a granted task reaches its thief as the
// header its victim queued — ID, cost and boundary-layer flag intact.
func TestPayloadSurvivesTransfer(t *testing.T) {
	ranks := 2
	want := make(map[int32]Task)
	dist := make([][]Task, ranks)
	for k := int32(0); k < 8; k++ {
		tk := Task{ID: k, Cost: 50 + float64(k), BoundaryLayer: k%3 == 0}
		want[k] = tk
		dist[0] = append(dist[0], tk)
	}
	world := mpi.NewWorld(ranks)
	win := world.NewWindow(ranks)
	var mu sync.Mutex
	bad := false
	var stats [2]Stats
	err := world.RunCtx(context.Background(), func(c *mpi.Comm) error {
		st, err := Run(context.Background(), c, win, dist[c.Rank()], 8, Options{StealBelow: 60, Poll: 100 * time.Microsecond}, func(task Task) {
			time.Sleep(500 * time.Microsecond)
			if task != want[task.ID] {
				mu.Lock()
				bad = true
				mu.Unlock()
			}
		})
		stats[c.Rank()] = st
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad {
		t.Error("task header changed in transfer")
	}
	if stats[1].StealsGotten == 0 {
		t.Error("no task was stolen; the transfer is not exercised")
	}
}

func TestPanickingTaskDoesNotHang(t *testing.T) {
	// One task panics; the balancer must record the failure, keep the
	// world alive, and terminate normally.
	dist := [][]Task{{
		{ID: 0, Cost: 1},
		{ID: 1, Cost: 1}, // this one will panic
		{ID: 2, Cost: 1},
	}, nil}
	world := mpi.NewWorld(2)
	win := world.NewWindow(2)
	var stats [2]Stats
	done := make(chan struct{})
	go func() {
		defer close(done)
		world.RunCtx(context.Background(), func(c *mpi.Comm) error {
			stats[c.Rank()], _ = Run(context.Background(), c, win, dist[c.Rank()], 3,
				Options{StealBelow: 0.5, Poll: 100 * time.Microsecond},
				func(task Task) {
					if task.ID == 1 {
						panic("task exploded")
					}
				})
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("balancer hung after a task panic")
	}
	failed := stats[0].Failed + stats[1].Failed
	processed := stats[0].Processed + stats[1].Processed
	if failed != 1 {
		t.Errorf("failed = %d, want 1", failed)
	}
	if processed != 3 {
		t.Errorf("processed = %d, want 3 (failures still count toward termination)", processed)
	}
}

// Property: the task queue always pops boundary-layer tasks before
// inviscid ones, and within a class in descending cost order.
func TestQueuePriorityProperty(t *testing.T) {
	f := func(costs []float64, blFlags []bool) bool {
		q := &taskQueue{}
		n := len(costs)
		if len(blFlags) < n {
			n = len(blFlags)
		}
		for i := 0; i < n; i++ {
			c := costs[i]
			if c < 0 {
				c = -c
			}
			heap.Push(q, Task{ID: int32(i), Cost: c, BoundaryLayer: blFlags[i]})
		}
		prevBL := true
		prevCost := math.Inf(1)
		for q.Len() > 0 {
			task := heap.Pop(q).(Task)
			if task.BoundaryLayer && !prevBL {
				return false // BL task after an inviscid one
			}
			if task.BoundaryLayer == prevBL && task.Cost > prevCost+1e-12 {
				return false // cost order broken within a class
			}
			if task.BoundaryLayer != prevBL {
				prevCost = math.Inf(1)
			}
			prevBL = task.BoundaryLayer
			prevCost = task.Cost
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestIdleLoadIsNotRepublished: a rank publishes its work estimate only
// when it changes. Two ranks each run one task that sleeps, holding their
// load above StealBelow, so neither steals; the world's byte count must
// then not grow with the sleep length, as it would if every poll put the
// unchanged estimate into the window.
func TestIdleLoadIsNotRepublished(t *testing.T) {
	const poll = 100 * time.Microsecond
	bytesAfter := func(sleep time.Duration) int64 {
		world := mpi.NewWorld(2)
		win := world.NewWindow(2)
		dist := [][]Task{{{ID: 0, Cost: 10}}, {{ID: 1, Cost: 10}}}
		err := world.RunCtx(context.Background(), func(c *mpi.Comm) error {
			_, err := Run(context.Background(), c, win, dist[c.Rank()], 2, Options{StealBelow: 1, Poll: poll},
				func(Task) { time.Sleep(sleep) })
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return world.Stats().Bytes.Load()
	}
	short, long := bytesAfter(2*time.Millisecond), bytesAfter(100*time.Millisecond)
	// Republishing would add 8 bytes per rank and poll: at least 98 ms /
	// 1 ms per poll * 2 ranks * 8 bytes even on a slow host.
	if long-short >= 512 {
		t.Errorf("%d bytes over a 2 ms task, %d over a 100 ms one: the load is republished while it stands still", short, long)
	}
}
