// Package mpi is an in-process message-passing runtime with the shape of
// the MPI subset the paper uses: ranks with point-to-point Send/Recv and
// one-sided remote-memory-access windows (MPI_Put / MPI_Get on an
// MPI_Win) for the load-balancing work-estimate table. Ranks run as
// goroutines in one address space; semantics (rank addressing, tag
// matching, window atomicity) match the distributed original, so the
// meshing and load-balancing code is written exactly as it would be
// against real MPI. Message and byte counters feed the performance model
// that stands in for the paper's Infiniband cluster.
//
// Failures propagate as errors rather than crashes: sends to invalid ranks
// return ErrInvalidRank, blocking receives accept a context and return an
// error matching ErrWorldClosed when the world is torn down mid-wait, and
// a rank that fails inside RunCtx surfaces as a *RankError after the
// remaining ranks have been unblocked.
package mpi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pamg2d/internal/trace"
)

// AnySource matches messages from any rank.
const AnySource = -1

var (
	// ErrWorldClosed reports a blocking operation cut short because the
	// world was torn down (a peer failure, cancellation, or Close). Match
	// with errors.Is; the returned error wraps the teardown cause.
	ErrWorldClosed = errors.New("mpi: world closed")
	// ErrInvalidRank reports a send addressed outside [0, Size).
	ErrInvalidRank = errors.New("mpi: invalid rank")
)

// RankError attributes a failure to the rank it occurred on; RunCtx wraps
// rank panics and returned errors in it so callers can report which worker
// failed instead of losing the whole process.
type RankError struct {
	Rank int
	Err  error
}

func (e *RankError) Error() string { return fmt.Sprintf("mpi: rank %d: %v", e.Rank, e.Err) }
func (e *RankError) Unwrap() error { return e.Err }

// closedError carries the teardown cause while matching ErrWorldClosed.
type closedError struct{ cause error }

func (e *closedError) Error() string        { return "mpi: world closed: " + e.cause.Error() }
func (e *closedError) Unwrap() error        { return e.cause }
func (e *closedError) Is(target error) bool { return target == ErrWorldClosed }

// Stats counts traffic for the performance model.
type Stats struct {
	Messages atomic.Int64
	Bytes    atomic.Int64
}

type message struct {
	from, tag int
	data      []byte
	// ref is the zero-copy fast path: when ranks share one address space
	// a payload can travel by reference instead of through serialized
	// bytes. Exactly one of data/ref is set; the byte count that would
	// have crossed a real wire is accounted at send time either way.
	ref any
}

// msgQueue is a FIFO with an amortized-O(1) head pop: consumed entries
// advance head and the slice is compacted once half-empty, so draining
// thousands of queued messages does not degrade to quadratic copying.
type msgQueue struct {
	msgs []message
	head int
}

func (q *msgQueue) empty() bool { return q.head >= len(q.msgs) }

func (q *msgQueue) push(m message) { q.msgs = append(q.msgs, m) }

// removeAt deletes the element at absolute index i (>= head).
func (q *msgQueue) removeAt(i int) message {
	m := q.msgs[i]
	if i == q.head {
		q.msgs[i] = message{}
		q.head++
		if q.head > len(q.msgs)/2 && q.head > 32 {
			q.msgs = append(q.msgs[:0], q.msgs[q.head:]...)
			q.head = 0
		}
		return m
	}
	q.msgs = append(q.msgs[:i], q.msgs[i+1:]...)
	return m
}

type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	tags   map[int]*msgQueue // per-tag FIFOs preserve per-source ordering
	closed bool
}

func newMailbox() *mailbox {
	mb := &mailbox{tags: make(map[int]*msgQueue)}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// match finds the first message matching (from, tag) and removes it.
func (mb *mailbox) match(from, tag int) (message, bool) {
	if q, ok := mb.tags[tag]; ok {
		for i := q.head; i < len(q.msgs); i++ {
			if from == AnySource || q.msgs[i].from == from {
				return q.removeAt(i), true
			}
		}
	}
	return message{}, false
}

// World is a communicator spanning n ranks. A world minted by NewWorld
// hosts every rank in this process; one minted by Cluster.NewWorld over a
// wire transport hosts exactly one (boxes has a single non-nil entry) and
// routes the rest through the cluster.
type World struct {
	n      int
	boxes  []*mailbox
	stats  *Stats
	tracer *trace.Tracer

	cl       *Cluster // nil for classic NewWorld worlds
	epoch    uint64   // cluster-wide world sequence number
	closedCh chan struct{}

	closeMu    sync.Mutex
	closeCause error // write-once, guarded by closeMu before closed is set
	closed     atomic.Bool

	// Membership (wire worlds only; see membership.go): dead[r] holds the
	// death cause once rank r is gone, failure is the first death observed
	// after the world was minted. In-process worlds never touch any of
	// this.
	memMu   sync.Mutex
	dead    []error
	failure atomic.Pointer[RankDeadError]

	windows struct {
		mu      sync.Mutex
		list    []*Window
		pending []pendItem // wire ops for windows not yet created here
	}
}

// NewWorld creates a communicator with n ranks.
func NewWorld(n int) *World {
	if n < 1 {
		n = 1
	}
	w := &World{n: n, stats: &Stats{}}
	w.boxes = make([]*mailbox, n)
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	return w
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.n }

// Stats returns the world's traffic counters.
func (w *World) Stats() *Stats { return w.stats }

// SetTracer attaches a span tracer: every successful send is recorded as
// a rank-attributed instant event carrying destination, tag, and wire
// bytes (real frame sizes for wire transports, serialized-equivalent
// sizes for the in-process backend). An enabled tracer also stamps the
// comm track with a "transport/<name>" instant so exported traces name
// the backend. A nil tracer (the default) disables recording; the send
// path then pays a single nil check. Set before the first RunCtx — the
// field is not synchronized against in-flight sends.
func (w *World) SetTracer(tr *trace.Tracer) {
	w.tracer = tr
	if tr.Enabled() {
		rank := 0 // the rank this process hosts; 0 when all are local
		if w.cl != nil {
			rank = w.cl.rank
		}
		tr.Instant(rank, trace.CatMPI, "transport/"+w.TransportName())
	}
}

// TransportName identifies the backend carrying this world's traffic.
func (w *World) TransportName() string {
	if w.cl != nil {
		return w.cl.TransportName()
	}
	return "inproc"
}

// MultiProcess reports whether this world's ranks span more than one OS
// process — i.e. whether peers can only be reached over a wire. Code
// relying on shared memory between ranks (result collection without a
// redistribution step) must branch on this.
func (w *World) MultiProcess() bool {
	return w.cl != nil && w.cl.tcp != nil && w.n > 1
}

// rankIsLocal reports whether rank r lives in this process.
func (w *World) rankIsLocal(r int) bool { return w.cl == nil || w.cl.isLocal(r) }

// Close tears the world down: every blocked receive returns an error
// matching ErrWorldClosed (wrapping cause), queued messages are dropped
// with their pooled payloads released back to the pools, and later sends
// fail. The first Close wins; subsequent calls are no-ops. RunCtx calls
// Close automatically when a rank fails or the context is canceled.
func (w *World) Close(cause error) { w.closeWith(cause, true) }

// closeWith implements Close. notifyPeers distinguishes a locally
// initiated teardown (which must be broadcast so every process of a wire
// world unwinds) from one applied on behalf of a peer or the transport
// (which must not echo back).
func (w *World) closeWith(cause error, notifyPeers bool) {
	w.closeMu.Lock()
	if w.closed.Load() {
		w.closeMu.Unlock()
		return
	}
	if cause == nil {
		cause = ErrWorldClosed
	}
	w.closeCause = cause
	w.closed.Store(true)
	w.closeMu.Unlock()
	for _, mb := range w.boxes {
		if mb == nil {
			continue
		}
		mb.mu.Lock()
		mb.closed = true
		for _, q := range mb.tags {
			for i := q.head; i < len(q.msgs); i++ {
				PutBytes(q.msgs[i].data)
				q.msgs[i] = message{}
			}
			q.head = len(q.msgs)
		}
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
	if w.closedCh != nil {
		close(w.closedCh)
	}
	if notifyPeers && w.MultiProcess() {
		rank := int32(-1)
		text := cause.Error()
		var re *RankError
		if errors.As(cause, &re) {
			rank = int32(re.Rank)
			text = re.Err.Error()
		}
		w.cl.tcp.broadcastCtrl(frame{kind: frameWorldClose, epoch: w.epoch, rank: rank, cause: text})
	}
}

// Err returns an error matching ErrWorldClosed (wrapping the teardown
// cause) once the world is closed, and nil while it is open.
func (w *World) Err() error {
	if !w.closed.Load() {
		return nil
	}
	// closeCause is written before the atomic store of closed, so the load
	// above orders this read.
	if w.closeCause == ErrWorldClosed {
		return ErrWorldClosed
	}
	return &closedError{cause: w.closeCause}
}

// RunCtx spawns fn on every rank and waits for all to finish. When ctx is
// canceled, or any rank returns an error or panics, the world is closed so
// blocked peers unwind, and the root cause is returned: the context's
// cause on cancellation, otherwise a *RankError naming the failed rank. A
// world that runs to completion stays open and may be reused for further
// RunCtx calls (the pipeline's result-drain pass relies on this).
func (w *World) RunCtx(ctx context.Context, fn func(c *Comm) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { w.Close(context.Cause(ctx)) })
		defer stop()
	}
	var wg sync.WaitGroup
	errs := make([]error, w.n)
	// A wire world hosts a single rank here; its peers run fn in their own
	// processes under the SPMD contract. In-process worlds spawn them all.
	lo, hi := 0, w.n
	if w.MultiProcess() {
		lo = w.cl.rank
		hi = lo + 1
	}
	for r := lo; r < hi; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					re := &RankError{Rank: rank, Err: fmt.Errorf("panic: %v", p)}
					errs[rank] = re
					w.Close(re)
				}
			}()
			if err := fn(&Comm{world: w, rank: rank}); err != nil {
				re := &RankError{Rank: rank, Err: err}
				errs[rank] = re
				w.Close(re)
			}
		}(r)
	}
	wg.Wait()
	if w.closed.Load() {
		// The close cause is the chronologically first failure; ranks that
		// merely observed the teardown are not the root cause.
		return w.closeCause
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// Comm is one rank's handle on the world.
type Comm struct {
	world *World
	rank  int
}

// Rank returns the caller's rank id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.world.n }

// World returns the underlying world (for stats access in drivers).
func (c *Comm) World() *World { return c.world }

// Err reports the world's teardown cause, or nil while it is open. Polling
// loops (the load balancer's communicator) use it to notice cancellation
// without blocking.
func (c *Comm) Err() error { return c.world.Err() }

// send routes m to rank `to` — straight into the local mailbox when the
// rank lives here (the zero-copy path, untouched), through the cluster
// transport otherwise — and accounts wire bytes on success: the
// serialized-equivalent size in-process, the real frame size on a wire.
// On error the payload is NOT consumed: ownership stays with the caller,
// which must release pooled buffers itself.
func (c *Comm) send(to, tag int, m message, wire int) error {
	if to < 0 || to >= c.world.n {
		return fmt.Errorf("%w: send to rank %d of %d", ErrInvalidRank, to, c.world.n)
	}
	if !c.world.rankIsLocal(to) {
		nw, err := c.world.cl.tcp.sendMessage(c.world, to, m)
		if err != nil {
			return err
		}
		wire = nw
	} else {
		mb := c.world.boxes[to]
		mb.mu.Lock()
		if mb.closed {
			mb.mu.Unlock()
			return c.world.Err()
		}
		q := mb.tags[tag]
		if q == nil {
			q = &msgQueue{}
			mb.tags[tag] = q
		}
		q.push(m)
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
	st := c.world.stats
	st.Messages.Add(1)
	st.Bytes.Add(int64(wire))
	if c.world.tracer.Enabled() {
		c.world.tracer.Instant(c.rank, trace.CatMPI, "send",
			trace.I("to", to), trace.I("tag", tag), trace.I("bytes", wire))
	}
	return nil
}

// deliverRemote enqueues a message that arrived over the wire into the
// locally hosted rank's mailbox. Messages for a closed (or non-local)
// destination are dropped with their pooled payloads released, exactly as
// Close does for queued messages.
func (w *World) deliverRemote(to int, m message) {
	var mb *mailbox
	if to >= 0 && to < len(w.boxes) {
		mb = w.boxes[to]
	}
	if mb == nil {
		PutBytes(m.data)
		return
	}
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		PutBytes(m.data)
		return
	}
	q := mb.tags[m.tag]
	if q == nil {
		q = &msgQueue{}
		mb.tags[m.tag] = q
	}
	q.push(m)
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// Send delivers data to rank `to` with the given tag. Like MPI's eager
// protocol it does not block. The data slice is not copied; on success
// ownership passes to the receiver and senders must not mutate it
// afterwards. It returns ErrInvalidRank for an out-of-range destination
// and an ErrWorldClosed-matching error after teardown; on error the caller
// keeps ownership of data.
func (c *Comm) Send(to, tag int, data []byte) error {
	return c.send(to, tag, message{from: c.rank, tag: tag, data: data}, len(data))
}

// SendRef delivers an in-address-space payload by reference — the
// zero-copy fast path for ranks that are goroutines in one process. No
// bytes are copied or even materialized; wireBytes is the size the
// serialized payload would occupy on a real interconnect and is what the
// stats counters record, so the communication-volume accounting is
// byte-for-byte identical to sending the encoded form with Send.
// Ownership of ref passes to the receiver on success; on error (invalid
// rank, closed world) it stays with the caller.
func (c *Comm) SendRef(to, tag int, ref any, wireBytes int) error {
	return c.send(to, tag, message{from: c.rank, tag: tag, ref: ref}, wireBytes)
}

// recv blocks until a matching message arrives, the context is canceled,
// or the world is closed.
func (c *Comm) recv(ctx context.Context, from, tag int) (message, error) {
	mb := c.world.boxes[c.rank]
	if ctx != nil && ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			// Wake the waiter below so it can observe ctx.Err.
			mb.mu.Lock()
			mb.cond.Broadcast()
			mb.mu.Unlock()
		})
		defer stop()
	}
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if m, ok := mb.match(from, tag); ok {
			return m, nil
		}
		if mb.closed {
			return message{}, c.world.Err()
		}
		// A death makes a blocking wait hopeless: a specific source that
		// is dead will never send again, and after a mid-world death an
		// AnySource wait cannot tell live stragglers from lost messages —
		// fail with the typed error so the caller can re-plan. Queued
		// messages still drain first (the match above runs every pass).
		if c.world.MultiProcess() {
			if from >= 0 {
				if cause := c.world.deadCause(from); cause != nil {
					return message{}, &RankDeadError{Rank: from, Err: cause}
				}
			} else if f := c.world.failure.Load(); f != nil {
				return message{}, f
			}
		}
		if ctx != nil && ctx.Done() != nil {
			if ctx.Err() != nil {
				return message{}, context.Cause(ctx)
			}
		}
		mb.cond.Wait()
	}
}

// Recv blocks until a message matching (from, tag) arrives and returns its
// payload and envelope. Use AnySource as the source wildcard. The wait is
// cut short by ctx (returning the context's cause) or by world teardown
// (returning an error matching ErrWorldClosed).
func (c *Comm) Recv(ctx context.Context, from, tag int) (data []byte, srcRank, srcTag int, err error) {
	m, err := c.recv(ctx, from, tag)
	if err != nil {
		return nil, 0, 0, err
	}
	return m.data, m.from, m.tag, nil
}

// TryRecvRef is a non-blocking probe-and-receive that returns the
// message's reference payload — or, for a message sent with Send, its
// byte slice, so a tag may mix both transports and callers type-switch on
// the result. ok is false when no matching message is queued (including
// after teardown, which drops all queued messages — poll Err to
// distinguish).
func (c *Comm) TryRecvRef(from, tag int) (ref any, srcRank, srcTag int, ok bool) {
	mb := c.world.boxes[c.rank]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if m, ok := mb.match(from, tag); ok {
		if m.ref != nil {
			return m.ref, m.from, m.tag, true
		}
		return m.data, m.from, m.tag, true
	}
	return nil, 0, 0, false
}

// Window is a one-sided RMA window: an array of float64 slots hosted on a
// root rank, accessed with Put and Get from any rank. The paper stores
// per-process work-load estimates in such a window on the root and updates
// them from each rank's communicator thread. Over a wire transport the
// authoritative copy lives in rank 0's process: Put and Add from workers
// are fire-and-forget control frames; Get is a request/reply round trip
// that returns nil after teardown (pollers notice the cause via Err).
type Window struct {
	world *World
	idx   int  // position in the world's window list (wire addressing)
	host  bool // authoritative copy lives in this process
	mu    sync.Mutex
	data  []float64
}

// NewWindow allocates a window with `slots` float64 slots, hosted on rank
// 0's process. Under the SPMD contract every process creates the same
// windows in the same order; wire ops that raced ahead of this creation
// are parked on the world and applied here.
func (w *World) NewWindow(slots int) *Window {
	win := &Window{
		world: w,
		host:  !w.MultiProcess() || w.cl.rank == 0,
		data:  make([]float64, slots),
	}
	w.windows.mu.Lock()
	win.idx = len(w.windows.list)
	w.windows.list = append(w.windows.list, win)
	var ready []pendItem
	if len(w.windows.pending) > 0 {
		rest := w.windows.pending[:0]
		for _, it := range w.windows.pending {
			if it.win == win.idx {
				ready = append(ready, it)
			} else {
				rest = append(rest, it)
			}
		}
		w.windows.pending = rest
	}
	w.windows.mu.Unlock()
	for _, it := range ready {
		w.cl.tcp.apply(w, it)
	}
	return win
}

// windowAt resolves a wire op's window index, or parks the op until the
// local NewWindow call catches up.
func (w *World) windowAt(it pendItem) *Window {
	w.windows.mu.Lock()
	defer w.windows.mu.Unlock()
	if it.win < len(w.windows.list) {
		return w.windows.list[it.win]
	}
	if !w.closed.Load() {
		w.windows.pending = append(w.windows.pending, it)
	}
	return nil
}

// applyWinPut applies a remote Put to the hosted copy.
func (w *World) applyWinPut(it pendItem) {
	win := w.windowAt(it)
	if win == nil || it.slot >= len(win.data) {
		return
	}
	win.mu.Lock()
	win.data[it.slot] = it.val
	win.mu.Unlock()
}

// applyWinGet answers a remote snapshot request from the hosted copy.
func (w *World) applyWinGet(it pendItem) {
	win := w.windowAt(it)
	if win == nil {
		return
	}
	win.mu.Lock()
	vals := make([]float64, len(win.data))
	copy(vals, win.data)
	win.mu.Unlock()
	_, _ = w.cl.tcp.sendCtrl(it.rank, frame{kind: frameWinGetReply, epoch: w.epoch, req: it.req, vals: vals})
}

// Put stores val into slot idx (MPI_Put).
func (win *Window) Put(idx int, val float64) {
	if !win.host {
		wire, _ := win.world.cl.tcp.sendCtrl(0, frame{
			kind: frameWinPut, epoch: win.world.epoch,
			win: int32(win.idx), slot: int32(idx), val: val,
		})
		win.world.stats.Bytes.Add(int64(wire))
		return
	}
	win.world.stats.Bytes.Add(8)
	win.mu.Lock()
	win.data[idx] = val
	win.mu.Unlock()
}

// Get returns a snapshot of all slots (MPI_Get of the whole window), or
// nil when a wire world was torn down before the reply arrived.
func (win *Window) Get() []float64 {
	if !win.host {
		vals, wire := win.world.cl.tcp.winGet(win.world, win.idx)
		win.world.stats.Bytes.Add(int64(wire + 8*len(vals)))
		return vals
	}
	win.world.stats.Bytes.Add(int64(8 * len(win.data)))
	win.mu.Lock()
	out := make([]float64, len(win.data))
	copy(out, win.data)
	win.mu.Unlock()
	return out
}
