// Package loadbal implements the paper's dynamic load balancing: each
// process keeps its subdomains in a priority queue ordered by estimated
// meshing cost (boundary-layer subdomains first — they hold the most
// points, so they are meshed while everyone still has work; a steal moves
// only a task's header). Every process runs a mesher goroutine and a
// communicator goroutine; the communicator keeps the process's remaining
// work estimate fresh in an RMA window hosted on the root, requests work
// from the most loaded process when the local estimate falls below a
// threshold, and serves incoming work requests from the local queue.
package loadbal

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"pamg2d/internal/mpi"
	"pamg2d/internal/trace"
)

// Task is the header of one unit of meshing work (a subdomain). Every
// process builds the same task list, so a steal moves only the header: by
// value in-process, as the Task codec's frame over a wire (codec.go).
type Task struct {
	// ID is the task's index in every process's task list.
	ID int32
	// Cost is the estimated number of triangles the task will produce.
	Cost float64
	// BoundaryLayer marks boundary-layer subdomains, which are prioritized
	// ahead of inviscid subdomains of any cost.
	BoundaryLayer bool
}

// WireBytes is the length of the task's frame in the Task codec.
func (t *Task) WireBytes() int { return taskFrame }

// message tags of the stealing protocol.
const (
	// tagCount is a worker's first message of a multi-process run: the
	// length of its task list, which the root compares with its own
	// before it terminates the run (countMsg).
	tagCount = iota + 100
	tagRequest
	tagGrant
	tagDeny
	tagComplete
	// tagMoved is the grant acknowledgement of multi-process runs: after a
	// successful grant the granter reports {task, new owner} to the root,
	// which keeps the root's ownership ledger fresh for dead-rank re-queue.
	tagMoved
	tagTerminate
)

// Options tunes the balancer.
type Options struct {
	// StealBelow triggers a steal request when the local remaining cost
	// drops below this value.
	StealBelow float64
	// Poll is the communicator loop interval.
	Poll time.Duration
	// Tracer, when non-nil, records the balancer's behavior on each
	// rank's track: idle waits as spans, steal requests/denies as instant
	// events, grants and receipts as spans linked by a flow arrow, and
	// the local queue cost as a counter series. Disabled (nil) costs the
	// hot paths a single nil check.
	Tracer *trace.Tracer
	// deal is the initial per-rank distribution, set by Scatter on
	// multi-process worlds to arm dead-rank recovery (task IDs must be
	// their indices): the root tracks task ownership from it (grants
	// re-report via tagMoved) and, when a rank dies, re-queues that
	// rank's unfinished tasks onto its own queue — stealing then
	// redistributes them across the survivors. Re-queued
	// tasks execute at-least-once: a task granted moments before the
	// granter died may run twice, which is safe because every task is
	// deterministic and completions are de-duplicated by ID.
	deal [][]Task
	// digest is listDigest of the task list, set by Scatter on
	// multi-process worlds: a worker sends it with its count, and the root
	// fails the run on one that differs from its own.
	digest uint64
}

// DefaultOptions returns the tuning used by the pipeline.
func DefaultOptions(totalCost float64, ranks int) Options {
	return Options{
		StealBelow: totalCost / float64(ranks) / 4,
		Poll:       200 * time.Microsecond,
	}
}

// Stats reports per-rank balancer behavior.
type Stats struct {
	Processed     int
	Failed        int           // tasks whose process callback panicked or, under Scatter, whose exec failed
	Busy          time.Duration // summed exec time (filled by Scatter; Run alone leaves it zero)
	StealRequests int
	StealsGranted int // requests this rank satisfied for others
	StealsGotten  int // tasks this rank received from others
	IdleTime      time.Duration
	// Dead-rank recovery (root only): ranks whose death this run handled,
	// tasks re-queued onto survivors, and the wall time between the first
	// death observed and the run's termination.
	RanksLost    int
	Requeued     int
	RecoveryTime time.Duration
}

// taskQueue is a max-heap: boundary-layer tasks first, then by cost.
type taskQueue []Task

func (q taskQueue) Len() int { return len(q) }
func (q taskQueue) Less(i, j int) bool {
	if q[i].BoundaryLayer != q[j].BoundaryLayer {
		return q[i].BoundaryLayer
	}
	return q[i].Cost > q[j].Cost
}
func (q taskQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *taskQueue) Push(x interface{}) { *q = append(*q, x.(Task)) }
func (q *taskQueue) Pop() interface{} {
	old := *q
	n := len(old)
	t := old[n-1]
	*q = old[:n-1]
	return t
}

// state is the queue shared by the two goroutines of one rank.
type state struct {
	mu        sync.Mutex
	cond      *sync.Cond
	queue     taskQueue
	remaining float64 // queued + in-flight cost
	done      bool
	canceled  bool // abort: stop even with tasks still queued
}

func (s *state) push(t Task) {
	s.mu.Lock()
	heap.Push(&s.queue, t)
	s.remaining += t.Cost
	s.cond.Broadcast()
	s.mu.Unlock()
}

// popForMesher removes the highest-priority task; the task's cost stays in
// `remaining` until finish() because it is still unfinished local work.
func (s *state) popForMesher() (Task, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && !s.done {
		s.cond.Wait()
	}
	if s.canceled || len(s.queue) == 0 {
		return Task{}, false
	}
	t := heap.Pop(&s.queue).(Task)
	return t, true
}

// popForSteal removes a task to grant to another rank, or reports none to
// spare.
func (s *state) popForSteal() (Task, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return Task{}, false
	}
	t := heap.Pop(&s.queue).(Task)
	s.remaining -= t.Cost
	return t, true
}

func (s *state) finish(t Task) {
	s.mu.Lock()
	s.remaining -= t.Cost
	s.mu.Unlock()
}

func (s *state) load() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.remaining
}

func (s *state) terminate() {
	s.mu.Lock()
	s.done = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// cancel aborts the queue: unlike terminate, which lets the mesher drain
// what is already queued, cancel makes popForMesher return immediately
// even with tasks outstanding. Used when the world is torn down or the
// run's context is canceled.
func (s *state) cancel() {
	s.mu.Lock()
	s.done = true
	s.canceled = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Run executes all tasks across the world. Every rank calls Run with its
// initial task list; process is invoked once per task, on exactly one
// rank. Returns this rank's stats. The window must have one slot per rank.
//
// In a multi-process world every process must hold the same task list:
// each worker sends its count and list digest to the root ahead of
// anything else, and the root terminates the run only once every live
// worker's count arrived. A count or digest that differs from the root's
// ends the run at once: the root terminates every live worker and returns
// a *ListError.
//
// The run ends early when ctx is canceled or the world is torn down: the
// task in flight completes, queued tasks are abandoned, both goroutines
// return promptly (no leak), and the teardown cause is returned alongside
// the stats accumulated so far. A nil error means every local pop was
// processed and termination arrived from the root.
func Run(ctx context.Context, c *mpi.Comm, win *mpi.Window, initial []Task, totalTasks int, opt Options, process func(Task)) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// A run that is dead on arrival must not process anything: without this
	// check the mesher could race the communicator's first poll and drain a
	// task before the abort lands.
	if ctx.Err() != nil {
		return Stats{}, context.Cause(ctx)
	}
	if err := c.Err(); err != nil {
		return Stats{}, err
	}
	multi := c.World().MultiProcess()
	if multi && c.Rank() != 0 {
		msg := countMsg(totalTasks, opt.digest)
		if err := c.Send(0, tagCount, msg); err != nil {
			mpi.PutBytes(msg)
			return Stats{}, err
		}
	}
	st := &state{}
	st.cond = sync.NewCond(&st.mu)
	for _, t := range initial {
		st.push(t)
	}

	// Dead-rank recovery is root-side state: the ownership ledger starts
	// as the initial deal and grant acknowledgements keep it fresh, so
	// when a rank dies the root knows exactly which unfinished tasks to
	// re-materialize onto the survivors.
	recoverOn := multi && c.Rank() == 0 && opt.deal != nil

	var stats Stats
	var statsMu sync.Mutex
	var runErr error // set by the communicator on abort, under statsMu

	var wg sync.WaitGroup
	wg.Add(2)

	tr := opt.Tracer

	// Mesher goroutine: drain the queue largest-first.
	go func() {
		defer wg.Done()
		for {
			var idleSp trace.Span
			if tr.Enabled() {
				idleSp = tr.Begin(c.Rank(), trace.CatIdle, "idle")
			}
			idleStart := time.Now()
			t, ok := st.popForMesher()
			idle := time.Since(idleStart)
			if tr.Enabled() {
				idleSp.End()
			}
			statsMu.Lock()
			stats.IdleTime += idle
			statsMu.Unlock()
			if !ok {
				return
			}
			// A panicking task must not take down the rank: the mesher
			// records the failure and keeps draining, and the completion
			// still counts toward termination so the world shuts down.
			failed := false
			func() {
				defer func() {
					if p := recover(); p != nil {
						failed = true
					}
				}()
				process(t)
			}()
			st.finish(t)
			statsMu.Lock()
			stats.Processed++
			if failed {
				stats.Failed++
			}
			statsMu.Unlock()
			// Report the completion to the root's termination counter; in a
			// multi-process run the completion carries the task ID so the
			// root can de-duplicate at-least-once re-queued tasks. A failed
			// send means the root is gone (quorum loss) or the world is
			// tearing down; stop draining — the communicator observes the
			// same condition and cancels the queue, so just park until then.
			var completion []byte
			if multi {
				completion = completeMsg(t.ID)
			}
			if err := c.Send(0, tagComplete, completion); err != nil {
				mpi.PutBytes(completion)
				st.cancel()
				return
			}
		}
	}()

	// Communicator goroutine: window updates, stealing, termination.
	go func() {
		defer wg.Done()
		abort := func(err error) {
			statsMu.Lock()
			if runErr == nil {
				runErr = err
			}
			statsMu.Unlock()
			st.cancel()
		}
		completed := 0 // root only
		// counted[r] reports that worker r's task count arrived (root of a
		// multi-process run only; nil elsewhere).
		var counted []bool
		if multi && c.Rank() == 0 {
			counted = make([]bool, c.Size())
			counted[0] = true
		}
		awaitingGrant := false
		awaitingFrom := -1
		lastLoad := math.NaN() // NaN compares unequal, forcing the first publish
		// Root-side recovery state: the ownership ledger, ranks whose death
		// is already handled, and the first-death timestamp for the
		// recovery-wall stat.
		var led *ledger
		var handledDead []bool
		var recoveryStart time.Time
		// The recovery span opens when the first death is handled and closes
		// at termination; the deferred guard closes it on the abort paths so
		// a torn-down run never leaks an open span.
		var recoverSp trace.Span
		recoverOpen := false
		defer func() {
			if recoverOpen {
				recoverSp.End(trace.I("aborted", 1))
			}
		}()
		if recoverOn {
			led = newLedger(opt.deal, totalTasks)
			handledDead = make([]bool, c.Size())
			handledDead[c.Rank()] = true
		}
		for {
			// Teardown and cancellation are level-triggered: checked once
			// per poll iteration, so an abort is noticed within one Poll
			// interval even while no messages flow.
			if err := c.Err(); err != nil {
				abort(err)
				return
			}
			if ctx.Err() != nil {
				abort(context.Cause(ctx))
				return
			}
			// Serve everything pending. Only the balancer's own tags are
			// consumed, so callers may interleave their own messages (the
			// pipeline ships task results to the root concurrently).
			for {
				data, src, tag, ok := tryRecvBalancer(c)
				if !ok {
					break
				}
				switch tag {
				case tagCount:
					b, _ := data.([]byte)
					n, digest, err := decodeCount(b)
					mpi.PutBytes(b)
					if err == nil && counted == nil {
						err = errors.New("loadbal: a task count reached a rank that counts none")
					}
					if err != nil {
						abort(fmt.Errorf("loadbal: control message from rank %d: %w", src, err))
						return
					}
					counted[src] = true
					if n != totalTasks || digest != opt.digest {
						// Nothing the two lists share can be trusted: stop
						// the workers now, and this rank with them.
						for r := 1; r < c.Size(); r++ {
							if c.Alive(r) {
								_ = c.Send(r, tagTerminate, nil)
							}
						}
						abort(&ListError{Rank: src, Tasks: n, RootTasks: totalTasks, Digest: digest, RootDigest: opt.digest})
						return
					}
				case tagRequest:
					if t, ok := st.popForSteal(); ok {
						var grantSp trace.Span
						if tr.Enabled() {
							grantSp = tr.Begin(c.Rank(), trace.CatSteal, "grant")
						}
						// The header moves by value, accounted at its
						// frame's length on the wire.
						if err := c.SendRef(src, tagGrant, t, t.WireBytes()); err != nil {
							// Undelivered: the task is still ours to run.
							st.push(t)
							if tr.Enabled() {
								grantSp.End(trace.I("undelivered", 1))
							}
							break
						}
						// Acknowledge the ownership transfer to the root so a
						// later death of either party re-queues the right
						// tasks. Best-effort: a lost ack at worst re-runs the
						// task once (at-least-once semantics).
						if multi {
							if ack := movedMsg(t.ID, src); c.Send(0, tagMoved, ack) != nil {
								mpi.PutBytes(ack)
							}
						}
						if tr.Enabled() {
							// The flow arrow starts inside the grant span so
							// viewers bind it to the slice; its finish is the
							// thief's receive span.
							tr.FlowOut(c.Rank(), src, "steal")
							grantSp.End(trace.I("to", src), trace.I("task", int(t.ID)),
								trace.I("bytes", t.WireBytes()), trace.F("cost", t.Cost))
						}
						statsMu.Lock()
						stats.StealsGranted++
						statsMu.Unlock()
					} else if err := c.Send(src, tagDeny, nil); err != nil {
						break
					}
				case tagGrant:
					var stolenSp trace.Span
					if tr.Enabled() {
						stolenSp = tr.Begin(c.Rank(), trace.CatSteal, "stolen")
						tr.FlowIn(c.Rank(), src, "steal")
					}
					if t, ok := data.(Task); ok {
						st.push(t)
					}
					if tr.Enabled() {
						stolenSp.End(trace.I("from", src))
					}
					awaitingGrant = false
					statsMu.Lock()
					stats.StealsGotten++
					statsMu.Unlock()
				case tagDeny:
					if tr.Enabled() {
						tr.Instant(c.Rank(), trace.CatSteal, "deny", trace.I("from", src))
					}
					awaitingGrant = false
				case tagComplete, tagMoved:
					// Multi-process control payloads arrive in pooled
					// buffers, released once decoded; in-process
					// completions carry none. Only recovery reads them.
					b, _ := data.([]byte)
					first, err := true, error(nil)
					if recoverOn {
						first, err = led.note(tag, b, c.Size())
					}
					mpi.PutBytes(b)
					if err != nil {
						abort(fmt.Errorf("loadbal: control message from rank %d: %w", src, err))
						return
					}
					if tag == tagComplete && first {
						completed++
					}
				case tagTerminate:
					st.terminate()
					return
				}
			}
			// Fold rank deaths into the termination accounting: every
			// unfinished task owned by a newly dead rank is re-materialized
			// onto the root's own queue, where stealing redistributes it
			// across the survivors. Detected level-triggered once per poll,
			// like teardown.
			if recoverOn {
				for r := 0; r < c.Size(); r++ {
					if handledDead[r] || c.Alive(r) {
						continue
					}
					handledDead[r] = true
					if recoveryStart.IsZero() {
						recoveryStart = time.Now()
						if tr.Enabled() {
							recoverSp = tr.Begin(c.Rank(), trace.CatRecover, "recovery")
							recoverOpen = true
						}
					}
					lost := led.requeue(r, c.Rank())
					for _, t := range lost {
						st.push(t)
					}
					requeued := len(lost)
					if tr.Enabled() {
						tr.Instant(c.Rank(), trace.CatRecover, "rank-dead",
							trace.I("rank", r), trace.I("requeued", requeued))
						tr.Metrics().Observe("loadbal.requeued", float64(requeued))
					}
					statsMu.Lock()
					stats.RanksLost++
					stats.Requeued += requeued
					statsMu.Unlock()
				}
			}
			if c.Rank() == 0 && completed == totalTasks && countsIn(c, counted) {
				if recoverOn && !recoveryStart.IsZero() {
					statsMu.Lock()
					stats.RecoveryTime = time.Since(recoveryStart)
					lost, requeued := stats.RanksLost, stats.Requeued
					statsMu.Unlock()
					if recoverOpen {
						recoverSp.End(trace.I("ranks_lost", lost), trace.I("requeued", requeued))
						recoverOpen = false
					}
				}
				for r := 0; r < c.Size(); r++ {
					if !c.Alive(r) {
						continue
					}
					if err := c.Send(r, tagTerminate, nil); err != nil {
						// A rank that died between the liveness check and the
						// send is no reason to fail the survivors.
						var de *mpi.RankDeadError
						if errors.As(err, &de) {
							continue
						}
						abort(err)
						return
					}
				}
				completed = -1 // sent; keep serving until our own terminate arrives
			}
			// Publish the work estimate (MPI_Put on the window) only when
			// it changed, so a rank whose queue stands still neither
			// writes a frame nor counts bytes at the poll frequency; the
			// trace samples it on the same change.
			load := st.load()
			if load != lastLoad {
				win.Put(c.Rank(), load)
				if tr.Enabled() {
					tr.Counter(c.Rank(), "queue-cost", load)
					tr.Metrics().Observe("loadbal.queue_cost", load)
				}
				lastLoad = load
			}
			// A pending steal request aimed at a rank that has since died
			// will never be answered; clear it so this rank keeps stealing
			// from the survivors.
			if awaitingGrant && awaitingFrom >= 0 && !c.Alive(awaitingFrom) {
				awaitingGrant = false
			}
			// Steal when underloaded: fetch the window (MPI_Get) and ask
			// the most loaded rank. Dead ranks are skipped — their window
			// slots hold the stale last value they published.
			if !awaitingGrant && load < opt.StealBelow {
				loads := win.Get()
				victim, best := -1, opt.StealBelow
				for r, l := range loads {
					if r != c.Rank() && l > best && c.Alive(r) {
						victim, best = r, l
					}
				}
				if victim >= 0 {
					if err := c.Send(victim, tagRequest, nil); err == nil {
						if tr.Enabled() {
							tr.Instant(c.Rank(), trace.CatSteal, "request",
								trace.I("victim", victim), trace.F("load", load))
						}
						awaitingGrant = true
						awaitingFrom = victim
						statsMu.Lock()
						stats.StealRequests++
						statsMu.Unlock()
					}
				}
			}
			time.Sleep(opt.Poll)
		}
	}()

	wg.Wait()
	return stats, runErr
}

// ListError reports a worker of a multi-process run whose task list
// differs from the root's in length or in its digest: the processes built
// different lists. A parameter that changes no task header (a quality
// bound, say) goes unseen.
type ListError struct {
	Rank       int    // the worker
	Tasks      int    // the worker's task count
	RootTasks  int    // the root's
	Digest     uint64 // the worker's list digest
	RootDigest uint64 // the root's
}

func (e *ListError) Error() string {
	if e.Tasks != e.RootTasks {
		return fmt.Sprintf("rank %d holds %d tasks and the root %d: the processes' task lists differ", e.Rank, e.Tasks, e.RootTasks)
	}
	return fmt.Sprintf("rank %d's task headers digest to %016x and the root's to %016x: the processes' task lists differ",
		e.Rank, e.Digest, e.RootDigest)
}

// countsIn reports that every live worker's task count arrived; always
// true where nothing is counted.
func countsIn(c *mpi.Comm, counted []bool) bool {
	for r, ok := range counted {
		if !ok && c.Alive(r) {
			return false
		}
	}
	return true
}

// tryRecvBalancer polls only the balancer's tag range, tagCount first, so
// the root reads a worker's count before any other message the worker
// sent after it. Grants travel as Task values, so the payload is returned
// as an interface value; byte payloads from remote-style senders pass
// through unchanged.
func tryRecvBalancer(c *mpi.Comm) (data any, src, tag int, ok bool) {
	for t := tagCount; t <= tagTerminate; t++ {
		if d, s, tg, found := c.TryRecvRef(mpi.AnySource, t); found {
			return d, s, tg, true
		}
	}
	return nil, 0, 0, false
}
