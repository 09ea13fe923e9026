package loadbal

// Scatter is the one distributed-phase executor: every phase that fans
// tasks out over a world and collects one result per task at the root —
// the pipeline's two meshing stages — goes through it, so the deal, the
// recovery wiring, the result protocol and its de-duplication exist once.
// The post-merge audit does not: it checks a mesh every process already
// holds, on local goroutines (internal/audit).

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pamg2d/internal/mpi"
)

// tagResult carries task results to the root; the stealing protocol owns
// the 100+ range.
const tagResult = 200

// Result is one task's output on its way to the root. In-process it
// travels by reference; across processes its concrete type must have a
// codec registered with mpi.RegisterCodec.
type Result interface {
	// TaskID names the task that produced the result.
	TaskID() int32
	// WireBytes is the size of the result's serialized form, charged to
	// the world's communication statistics on either transport.
	WireBytes() int
}

// TaskError reports a task that produced no result — exec returned an
// error or panicked — attributed to the rank that was executing it. A
// phase whose processes hold different task lists fails as a TaskError of
// task -1 whose Err is the *ListError, attributed to the worker.
type TaskError struct {
	Rank int
	Task int32
	Err  error
}

func (e *TaskError) Error() string {
	if e.Task < 0 {
		return fmt.Sprintf("loadbal: rank %d: %v", e.Rank, e.Err)
	}
	return fmt.Sprintf("loadbal: task %d on rank %d: %v", e.Task, e.Rank, e.Err)
}

func (e *TaskError) Unwrap() error { return e.Err }

// PanicError is the TaskError cause of a task whose exec panicked.
type PanicError struct{ Value any }

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Scatter runs tasks (task IDs must be their indices, costs finite and
// non-negative) across the world under the work-stealing balancer and
// collects exec's results at the root, indexed by task ID. It deals the
// tasks round-robin — every process of a multi-process world computes the
// identical list, so each keeps the share of its own rank — arms dead-rank
// re-queue from that deal, and ships each result to rank 0 ahead of the
// task's completion notice, so the root's mailbox holds every result once
// the balancer terminates. Re-queued tasks may deliver a result twice; the
// first arrival wins (tasks are deterministic, so the copies agree).
//
// A stolen header comes from another process's list: one whose ID is out
// of range or that differs from tasks[ID] fails as a *TaskError without
// running (the processes' lists differ). Lists of different lengths or
// digests (listDigest) fail the phase at the root, before it could wait
// for tasks a worker does not hold or merge results of other tasks, as a
// *TaskError of task -1 wrapping Run's *ListError.
//
// The returned results are complete only in the process hosting rank 0;
// the stats slice carries an entry for each rank this process hosts. The
// error is the teardown cause when ctx is canceled or the world fails
// mid-phase. Otherwise the world is intact and a *TaskError reports the
// first task that failed on a rank hosted here (at the root also a task
// whose result never arrived): the other processes of a multi-process
// world finished the phase cleanly, so the caller must still complete
// whatever exchange it pairs with them before failing.
func Scatter(ctx context.Context, world *mpi.World, tasks []Task, opt Options,
	exec func(c *mpi.Comm, t Task) (Result, error)) ([]Result, []Stats, error) {
	for i, t := range tasks {
		if int(t.ID) != i || !validCost(t.Cost) {
			return nil, nil, fmt.Errorf("loadbal: task %d has ID %d and cost %v; want its index and a finite, non-negative cost", i, t.ID, t.Cost)
		}
	}
	n := world.Size()
	win := world.NewWindow(n)
	initial := make([][]Task, n)
	for i, t := range tasks {
		initial[i%n] = append(initial[i%n], t)
	}
	if world.MultiProcess() {
		// In-process worlds share fate across all ranks, so recovery stays
		// off and the run carries no ownership maps.
		opt.deal = initial
		opt.digest = listDigest(tasks)
	}

	results := make([]Result, len(tasks))
	stats := make([]Stats, n)
	var mu sync.Mutex
	var failed *TaskError
	fail := func(rank int, id int32, err error) {
		mu.Lock()
		if failed == nil {
			failed = &TaskError{Rank: rank, Task: id, Err: err}
		}
		mu.Unlock()
	}
	err := world.RunCtx(ctx, func(c *mpi.Comm) error {
		rank := c.Rank()
		// Touched by this rank's mesher goroutine only, read after Run joins it.
		var busy time.Duration
		failures := 0
		bs, err := Run(ctx, c, win, initial[rank], len(tasks), opt, func(t Task) {
			t0 := time.Now()
			res, err := protect(exec, c, tasks, t)
			busy += time.Since(t0)
			if err != nil {
				failures++
				fail(rank, t.ID, err)
				return
			}
			// By reference, accounted at the serialized size. A failed send
			// means the world is tearing down; Run returns the cause.
			_ = c.SendRef(0, tagResult, res, res.WireBytes())
		})
		bs.Busy = busy
		bs.Failed += failures
		stats[rank] = bs
		// Different lists fail the phase like a task: the world stays up
		// for the exchange the caller pairs with the workers, which the
		// root terminated.
		var le *ListError
		if errors.As(err, &le) {
			fail(le.Rank, -1, le)
			return nil
		}
		if err != nil || rank != 0 {
			return err
		}
		collected := 0
		for collected < len(tasks) {
			ref, _, _, ok := c.TryRecvRef(mpi.AnySource, tagResult)
			if !ok {
				break
			}
			res, ok := ref.(Result)
			if !ok {
				continue
			}
			id := int(res.TaskID())
			if id < 0 || id >= len(tasks) || results[id] != nil {
				continue
			}
			results[id] = res
			collected++
		}
		if collected < len(tasks) {
			for id, r := range results {
				if r == nil {
					fail(0, int32(id), fmt.Errorf("no result collected (%d of %d arrived)", collected, len(tasks)))
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	if failed != nil {
		return results, stats, failed
	}
	return results, stats, nil
}

// protect runs exec on t if it is one of tasks, converting a panic into a
// *PanicError so a failing task is reported with its value and rank
// instead of vanishing inside the balancer.
func protect(exec func(*mpi.Comm, Task) (Result, error), c *mpi.Comm, tasks []Task, t Task) (res Result, err error) {
	if t.ID < 0 || int(t.ID) >= len(tasks) || tasks[t.ID] != t {
		return nil, fmt.Errorf("loadbal: task header %+v is not one of this process's %d tasks: the processes' task lists differ", t, len(tasks))
	}
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, &PanicError{Value: p}
		}
	}()
	return exec(c, t)
}
