package loadbal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pamg2d/internal/mpi"
)

// toyResult is the executor test's Result: the task's ID and a value
// derived from it, with a wire codec so it also crosses process
// boundaries.
type toyResult struct {
	id  int32
	val float64
}

func (r *toyResult) TaskID() int32  { return r.id }
func (r *toyResult) WireBytes() int { return 12 }

func init() {
	mpi.RegisterCodec(17, &toyResult{},
		func(ref any, dst []byte) []byte {
			r := ref.(*toyResult)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(r.id))
			return binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.val))
		},
		func(b []byte) (any, error) {
			if len(b) != 12 {
				return nil, fmt.Errorf("toy result of %d bytes", len(b))
			}
			return &toyResult{
				id:  int32(binary.LittleEndian.Uint32(b)),
				val: math.Float64frombits(binary.LittleEndian.Uint64(b[4:])),
			}, nil
		})
}

// scatterOut is what one process saw of a Scatter call.
type scatterOut struct {
	results []Result
	stats   []Stats
	err     error
}

// fabric runs one Scatter per process of a transport and returns the
// per-process outcomes, index 0 being the process that hosts the root.
type fabric struct {
	// run calls Scatter once per process; kill, when non-nil, severs the
	// given rank's process from the others (nil: ranks share fate).
	run  func(t *testing.T, ctx context.Context, tasks []Task, exec func(*mpi.Comm, Task) (Result, error)) []scatterOut
	kill func(rank int)
}

func toyTasks(n int) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{ID: int32(i), Cost: 10}
	}
	return tasks
}

func toyOptions(n, ranks int) Options {
	opt := DefaultOptions(float64(10*n), ranks)
	opt.Poll = 100 * time.Microsecond
	return opt
}

func inProcessFabric() *fabric {
	const ranks = 4
	return &fabric{
		run: func(t *testing.T, ctx context.Context, tasks []Task, exec func(*mpi.Comm, Task) (Result, error)) []scatterOut {
			var o scatterOut
			o.results, o.stats, o.err = Scatter(ctx, mpi.NewWorld(ranks), tasks, toyOptions(len(tasks), ranks), exec)
			return []scatterOut{o}
		}}
}

func tcpFabric(t *testing.T) *fabric {
	t.Helper()
	const ranks = 3
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	clusters, err := mpi.LoopbackClusters(ctx, ranks)
	if err != nil {
		t.Fatalf("LoopbackClusters: %v", err)
	}
	byRank := make([]*mpi.Cluster, ranks)
	for _, cl := range clusters {
		byRank[cl.Rank()] = cl
	}
	var closed [ranks]atomic.Bool
	closeRank := func(r int) {
		if closed[r].CompareAndSwap(false, true) {
			byRank[r].Close()
		}
	}
	t.Cleanup(func() {
		for r := range byRank {
			closeRank(r)
		}
	})
	return &fabric{kill: closeRank,
		run: func(t *testing.T, ctx context.Context, tasks []Task, exec func(*mpi.Comm, Task) (Result, error)) []scatterOut {
			out := make([]scatterOut, ranks)
			var wg sync.WaitGroup
			for r, cl := range byRank {
				wg.Add(1)
				go func(r int, cl *mpi.Cluster) {
					defer wg.Done()
					o := &out[r]
					o.results, o.stats, o.err = Scatter(ctx, cl.NewWorld(), tasks, toyOptions(len(tasks), ranks), exec)
				}(r, cl)
			}
			wg.Wait()
			return out
		}}
}

func toyExec(executed *sync.Map) func(*mpi.Comm, Task) (Result, error) {
	return func(c *mpi.Comm, t Task) (Result, error) {
		n, _ := executed.LoadOrStore(t.ID, new(atomic.Int32))
		n.(*atomic.Int32).Add(1)
		time.Sleep(200 * time.Microsecond)
		return &toyResult{id: t.ID, val: 1.5 * float64(t.ID)}, nil
	}
}

// checkComplete asserts the root holds every task's result exactly once,
// in ID order.
func checkComplete(t *testing.T, results []Result, n int) {
	t.Helper()
	if len(results) != n {
		t.Fatalf("root holds %d results, want %d", len(results), n)
	}
	for i, r := range results {
		tr, ok := r.(*toyResult)
		if !ok || int(tr.id) != i || tr.val != 1.5*float64(i) {
			t.Errorf("result slot %d holds %#v", i, r)
		}
	}
}

// TestScatter drives the one distributed-phase executor through its
// contract on both transports: complete in-order collection, attributed
// exec errors and panics, leak-free cancellation, and — across processes
// — re-queue of a dead rank's tasks with duplicate results counted once.
func TestScatter(t *testing.T) {
	const n = 40
	for _, fab := range []struct {
		name string
		mk   func(*testing.T) *fabric
	}{
		{"inproc-4", func(*testing.T) *fabric { return inProcessFabric() }},
		{"tcp-3", tcpFabric},
	} {
		name, mk := fab.name, fab.mk
		t.Run(name+"/clean", func(t *testing.T) {
			f := mk(t)
			var executed sync.Map
			outs := f.run(t, context.Background(), toyTasks(n), toyExec(&executed))
			processed := 0
			var busy time.Duration
			for p, o := range outs {
				if o.err != nil {
					t.Fatalf("process %d: %v", p, o.err)
				}
				for _, s := range o.stats {
					processed += s.Processed
					busy += s.Busy
				}
			}
			checkComplete(t, outs[0].results, n)
			for id := int32(0); id < n; id++ {
				if c, ok := executed.Load(id); !ok || c.(*atomic.Int32).Load() != 1 {
					t.Errorf("task %d not executed exactly once", id)
				}
			}
			if processed != n || busy <= 0 {
				t.Errorf("stats: processed %d (want %d), busy %v", processed, n, busy)
			}
		})

		// One task fails on rank 1, by returned error and by panic: the
		// process hosting rank 1 gets the failure attributed to it, and a
		// separate root process reports the result that never arrived.
		boom := errors.New("boom")
		for _, mode := range []string{"error", "panic"} {
			t.Run(name+"/exec-"+mode, func(t *testing.T) {
				f := mk(t)
				var executed sync.Map
				var once sync.Once
				ok := toyExec(&executed)
				outs := f.run(t, context.Background(), toyTasks(n), func(c *mpi.Comm, tk Task) (Result, error) {
					fail := false
					if c.Rank() == 1 {
						once.Do(func() { fail = true })
					}
					if fail && mode == "panic" {
						panic(boom)
					}
					if fail {
						return nil, boom
					}
					return ok(c, tk)
				})
				host := 0
				if len(outs) > 1 {
					host = 1
				}
				var te, missing *TaskError
				if !errors.As(outs[host].err, &te) || te.Rank != 1 {
					t.Fatalf("rank 1's process returned %v, want a TaskError for rank 1", outs[host].err)
				}
				var pe *PanicError
				if mode == "panic" {
					if !errors.As(te.Err, &pe) || pe.Value != boom {
						t.Errorf("panic value lost: %v", te.Err)
					}
				} else if !errors.Is(te, boom) {
					t.Errorf("exec error lost: %v", te)
				}
				if st := outs[host].stats[1]; st.Failed != 1 {
					t.Errorf("rank 1 stats report %d failed tasks, want 1", st.Failed)
				}
				if len(outs) > 1 {
					if !errors.As(outs[0].err, &missing) || missing.Rank != 0 || missing.Task != te.Task {
						t.Errorf("root process returned %v, want a rank-0 TaskError for the missing result", outs[0].err)
					}
					if outs[2].err != nil {
						t.Errorf("bystander process returned %v", outs[2].err)
					}
				}
			})
		}

		t.Run(name+"/cancel", func(t *testing.T) {
			f := mk(t)
			g0, p0 := mpi.PoolCounters()
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var started atomic.Int32
			outs := f.run(t, ctx, toyTasks(400), func(c *mpi.Comm, tk Task) (Result, error) {
				if started.Add(1) == 5 {
					cancel()
				}
				time.Sleep(200 * time.Microsecond)
				return &toyResult{id: tk.ID}, nil
			})
			// A process may learn of the teardown from a peer's world-close
			// notice (the cause as text) before its own context check.
			sawCause := false
			for p, o := range outs {
				if o.err == nil {
					t.Errorf("process %d completed despite the cancellation", p)
				}
				sawCause = sawCause || errors.Is(o.err, context.Canceled)
			}
			if !sawCause {
				t.Errorf("no process reported context.Canceled: %v", outs[0].err)
			}
			if s := started.Load(); s >= 400 {
				t.Errorf("all %d tasks ran; cancellation had no effect", s)
			}
			// Every pooled checkout must come back exactly once, the
			// control messages' buffers included.
			quiesced := func() bool {
				g1, p1 := mpi.PoolCounters()
				return runtime.NumGoroutine() <= before && g1-g0 == p1-p0
			}
			for deadline := time.Now().Add(10 * time.Second); !quiesced() && time.Now().Before(deadline); {
				time.Sleep(10 * time.Millisecond)
			}
			g1, p1 := mpi.PoolCounters()
			if gets, puts := g1-g0, p1-p0; gets != puts {
				t.Errorf("pool leak after cancel: %d gets, %d puts", gets, puts)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("goroutines: %d before, %d after the canceled run", before, after)
			}
		})

		t.Run(name+"/rank-killed", func(t *testing.T) {
			f := mk(t)
			if f.kill == nil {
				t.Skip("in-process ranks share fate; no rank can die alone")
			}
			const victim = 2
			var executed sync.Map
			var dupOnce, killOnce sync.Once
			ok := toyExec(&executed)
			outs := f.run(t, context.Background(), toyTasks(n), func(c *mpi.Comm, tk Task) (Result, error) {
				res, _ := ok(c, tk)
				switch c.Rank() {
				case 1:
					// A survivor delivers one result twice, the way a task
					// re-queued after its first copy arrived would.
					dupOnce.Do(func() { _ = c.SendRef(0, tagResult, res, res.WireBytes()) })
				case victim:
					// Vanish mid-task, still owning unfinished work.
					killOnce.Do(func() { f.kill(victim) })
					time.Sleep(30 * time.Millisecond)
				}
				return res, nil
			})
			if outs[victim].err == nil {
				t.Errorf("victim process completed despite losing its fabric")
			}
			for _, p := range []int{0, 1} {
				if outs[p].err != nil {
					t.Fatalf("survivor %d: %v", p, outs[p].err)
				}
			}
			checkComplete(t, outs[0].results, n)
			root := outs[0].stats[0]
			if root.RanksLost != 1 || root.Requeued < 1 {
				t.Errorf("root recovery stats: lost %d ranks, re-queued %d tasks; want 1 and >= 1", root.RanksLost, root.Requeued)
			}
		})
	}
}

// TestScatterChecksItsPrecondition: a list whose IDs are not their indices,
// or that holds a cost no grant frame could carry, is refused before
// anything runs.
func TestScatterChecksItsPrecondition(t *testing.T) {
	for name, tasks := range map[string][]Task{
		"IDs swapped":   {{ID: 1, Cost: 1}, {ID: 0, Cost: 1}},
		"ID repeated":   {{ID: 0, Cost: 1}, {ID: 0, Cost: 1}},
		"negative cost": {{ID: 0, Cost: -1}},
		"NaN cost":      {{ID: 0, Cost: math.NaN()}},
	} {
		ran := false
		_, _, err := Scatter(context.Background(), mpi.NewWorld(2), tasks, toyOptions(len(tasks), 2),
			func(c *mpi.Comm, tk Task) (Result, error) {
				ran = true
				return &toyResult{id: tk.ID}, nil
			})
		if err == nil || ran {
			t.Errorf("%s: Scatter returned %v, ran tasks %v", name, err, ran)
		}
	}
}

// runPair runs Scatter on two loopback processes, the root holding
// lists[0] and the worker lists[1], and fails unless both return well
// inside a 5 s deadline with their worlds intact for the exchange that
// follows. exec, when non-nil, sees each task run with the process's own
// header for it.
func runPair(t *testing.T, lists [2][]Task, exec func(own, ran Task)) [2]scatterOut {
	t.Helper()
	const ranks, deadline = 2, 5 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	clusters, err := mpi.LoopbackClusters(ctx, ranks)
	if err != nil {
		t.Fatalf("LoopbackClusters: %v", err)
	}
	for _, cl := range clusters {
		defer cl.Close()
	}
	start := time.Now()
	var outs [ranks]scatterOut
	var worlds [ranks]*mpi.World
	var wg sync.WaitGroup
	for _, cl := range clusters {
		wg.Add(1)
		go func(cl *mpi.Cluster) {
			defer wg.Done()
			r := cl.Rank()
			tasks := lists[r]
			worlds[r] = cl.NewWorld()
			o := &outs[r]
			o.results, o.stats, o.err = Scatter(ctx, worlds[r], tasks, toyOptions(len(tasks), ranks),
				func(c *mpi.Comm, tk Task) (Result, error) {
					if exec != nil {
						exec(tasks[tk.ID], tk)
					}
					time.Sleep(200 * time.Microsecond)
					return &toyResult{id: tk.ID}, nil
				})
		}(cl)
	}
	wg.Wait()
	if took := time.Since(start); took > deadline/5 {
		t.Errorf("the processes returned after %v", took)
	}
	for r, w := range worlds {
		if err := w.Err(); err != nil {
			t.Errorf("process %d's world is down: %v", r, err)
		}
	}
	var te *TaskError
	if outs[1].err != nil && !errors.As(outs[1].err, &te) {
		t.Errorf("the worker returned %v, want nothing or a *TaskError", outs[1].err)
	}
	return outs
}

// listRefused returns the *ListError of a root that failed the phase as
// a rank-1 *TaskError of task -1 wrapping one, naming the mismatch.
func listRefused(t *testing.T, root scatterOut) *ListError {
	t.Helper()
	var te *TaskError
	var le *ListError
	if !errors.As(root.err, &te) || te.Rank != 1 || te.Task != -1 || !errors.As(te, &le) || le.Rank != 1 ||
		!strings.Contains(te.Error(), "task lists differ") {
		t.Fatalf("the root returned %v, want a rank-1 *TaskError of task -1 wrapping a *ListError", root.err)
	}
	return le
}

// TestScatterRefusesMismatchedLists: two processes whose task lists differ
// in every cost. The root refuses the worker's list digest before it
// grants any steal, so no task runs on a header from the other list; a
// stolen header that differs from the thief's own copy (lists whose
// digests collide) fails without running.
func TestScatterRefusesMismatchedLists(t *testing.T) {
	const n = 16
	var lists [2][]Task
	for r := range lists {
		lists[r] = toyTasks(n)
		for i := range lists[r] {
			lists[r][i].Cost += float64(r)
		}
	}
	var foreign atomic.Int32
	outs := runPair(t, lists, func(own, ran Task) {
		if own != ran {
			foreign.Add(1)
		}
	})
	listRefused(t, outs[0])
	if got := foreign.Load(); got > 0 {
		t.Errorf("%d tasks ran on a header from the other process's list", got)
	}
	if outs[1].stats[1].StealsGotten != 0 {
		t.Errorf("rank 1 stole %d tasks from a list the root refused", outs[1].stats[1].StealsGotten)
	}

	ran := false
	exec := func(*mpi.Comm, Task) (Result, error) { ran = true; return nil, nil }
	for _, stolen := range []Task{lists[1][3], {ID: n, Cost: 10}, {ID: -1, Cost: 10}} {
		if _, err := protect(exec, nil, lists[0], stolen); err == nil || ran || !strings.Contains(err.Error(), "task lists differ") {
			t.Errorf("stolen header %+v: ran %v, error %v", stolen, ran, err)
		}
	}
}

// TestScatterRefusesListsOfDifferentLengths: two processes whose task
// lists differ in length, one way and the other. The root reads the
// worker's count before it could wait for tasks the worker does not hold,
// fails the phase as a rank-1 *TaskError wrapping a *ListError that
// names both lengths, and terminates the worker.
func TestScatterRefusesListsOfDifferentLengths(t *testing.T) {
	for _, lens := range [][2]int{{16, 8}, {8, 16}} {
		t.Run(fmt.Sprintf("root-%d-worker-%d", lens[0], lens[1]), func(t *testing.T) {
			outs := runPair(t, [2][]Task{toyTasks(lens[0]), toyTasks(lens[1])}, nil)
			le := listRefused(t, outs[0])
			if le.Tasks != lens[1] || le.RootTasks != lens[0] {
				t.Errorf("%+v, want the worker's %d tasks and the root's %d", le, lens[1], lens[0])
			}
			for _, n := range lens {
				if !strings.Contains(le.Error(), fmt.Sprint(n)) {
					t.Errorf("%q does not name the length %d", le.Error(), n)
				}
			}
		})
	}
}

// TestScatterRefusesListsOfDifferentHeaders: lists of one length whose
// headers differ in one cost or one flag merged silently unless the
// differing header happened to be stolen. The root now compares the
// worker's list digest with its own and fails the phase with a
// *ListError that names both digests.
func TestScatterRefusesListsOfDifferentHeaders(t *testing.T) {
	const n = 16
	for name, change := range map[string]func(*Task){
		"one cost": func(t *Task) { t.Cost++ },
		"one flag": func(t *Task) { t.BoundaryLayer = true },
	} {
		t.Run(name, func(t *testing.T) {
			worker := toyTasks(n)
			change(&worker[5])
			outs := runPair(t, [2][]Task{toyTasks(n), worker}, nil)
			le := listRefused(t, outs[0])
			if le.Tasks != n || le.RootTasks != n || le.Digest != listDigest(worker) || le.RootDigest != listDigest(toyTasks(n)) {
				t.Errorf("%+v, want %d tasks on both sides and the two lists' digests", le, n)
			}
			for _, d := range []uint64{le.Digest, le.RootDigest} {
				if !strings.Contains(le.Error(), fmt.Sprintf("%016x", d)) {
					t.Errorf("%q does not name the digest %016x", le.Error(), d)
				}
			}
		})
	}
}
