// Package trace is the run-observability subsystem: a low-overhead span
// recorder with per-rank buffers, a Chrome trace-event exporter, and a
// compact run-metrics registry. It makes the paper's scalability story
// (per-phase speedup, balancer behavior, rank skew) inspectable: every
// pipeline stage, per-rank task execution, steal transfer, audit check,
// and MPI send becomes a span or instant event on a rank-attributed
// track, and a run exports as a single JSON file that chrome://tracing
// and Perfetto load directly.
//
// A nil *Tracer is the disabled tracer: every method is safe to call on
// it and does nothing, so instrumented hot paths pay a single nil check
// (Enabled) when tracing is off. Recording is designed for the runtime's
// concurrency shape — each rank owns a buffer of chunked event arrays
// whose write cursor is an atomic counter, so concurrent writers on one
// rank (the balancer's mesher and communicator goroutines) reserve slots
// without taking a lock; a mutex is touched only on the rare chunk
// rollover. Export must happen after the run quiesces (the pipeline's
// world teardown provides the happens-before edge).
//
// Clocks are monotonic: timestamps are nanoseconds since New, read from
// time.Since, so spans never run backwards across wall-clock jumps.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// RootRank is the track of root-side (non-rank) work: the pipeline's
// stage spans. It exports as its own "process" ahead of the rank tracks.
const RootRank = -1

// Event categories. The exporter maps each category to a display thread
// within its rank's process: execution work (stages, tasks, idle waits) on
// the "mesher" thread, communication (steal protocol, MPI sends) on the
// "comm" thread.
const (
	CatStage = "stage"
	// CatRoot marks the root-side closures of a distributed stage (task
	// preparation, result merge) nested under its CatStage span: the
	// stage's serial part. It is a category of its own so that a consumer
	// summing CatStage spans counts each stage once.
	CatRoot   = "root"
	CatTask   = "task"
	CatIdle   = "idle"
	CatSteal  = "steal"
	CatMPI    = "mpi"
	CatKernel = "kernel" // adapt operator passes
	// CatRecover marks fault-tolerance work: the span from a rank death
	// being handled to the degraded phase's termination, and the instant
	// events of the dead rank's task re-queue.
	CatRecover = "recover"
	// CatAudit marks an audit check that runs beside the pipeline's stages
	// rather than inside one: the boundary-layer check, started at the end
	// of ray-insertion and collected by the audit stage.
	CatAudit = "audit"
)

// Arg is one numeric key/value attached to an event (task cost, bytes on
// wire, message tag). Args are numeric-only so recording never formats
// strings on the hot path.
type Arg struct {
	Key string
	Val float64
}

// F builds a float-valued event argument.
func F(key string, val float64) Arg { return Arg{Key: key, Val: val} }

// I builds an integer-valued event argument.
func I(key string, val int) Arg { return Arg{Key: key, Val: float64(val)} }

// event phases, mirroring the Chrome trace-event "ph" field.
const (
	phSpan    = 'X' // complete event (begin + duration)
	phInstant = 'i'
	phCounter = 'C'
	phFlowOut = 's' // flow start (the stolen task leaves the victim)
	phFlowIn  = 'f' // flow finish (it arrives at the thief)
)

// event is one recorded trace event; ts and dur are nanoseconds since the
// tracer's start.
type event struct {
	name string
	cat  string
	ph   byte
	ts   int64
	dur  int64
	id   uint64 // flow-event pairing id
	args []Arg
}

// chunkSize is the event capacity of one buffer chunk. Rollover takes the
// buffer mutex, so the common-path write stays a single atomic add.
const chunkSize = 512

type chunk struct {
	n      atomic.Int32
	events [chunkSize]event
}

// buffer is one track's event store: a list of fixed-size chunks with an
// atomic reservation cursor on the current chunk. Concurrent writers
// reserve distinct slots lock-free; only installing a fresh chunk locks.
type buffer struct {
	mu     sync.Mutex
	chunks []*chunk
	cur    atomic.Pointer[chunk]
}

func newBuffer() *buffer {
	b := &buffer{}
	c := &chunk{}
	b.chunks = append(b.chunks, c)
	b.cur.Store(c)
	return b
}

func (b *buffer) write(e event) {
	for {
		c := b.cur.Load()
		i := c.n.Add(1) - 1
		if int(i) < chunkSize {
			c.events[i] = e
			return
		}
		// Chunk full (the cursor may overshoot chunkSize under racing
		// writers; the export clamps). Install a fresh chunk and retry.
		b.mu.Lock()
		if b.cur.Load() == c {
			nc := &chunk{}
			b.chunks = append(b.chunks, nc)
			b.cur.Store(nc)
		}
		b.mu.Unlock()
	}
}

// len returns the number of events recorded so far.
func (b *buffer) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, c := range b.chunks {
		k := int(c.n.Load())
		if k > chunkSize {
			k = chunkSize
		}
		n += k
	}
	return n
}

// Tracer records one run's spans and events. Create with New; a nil
// Tracer is the disabled recorder (all methods no-op).
type Tracer struct {
	start  time.Time
	nranks int
	bufs   []*buffer // index rank+1: [0] is the root track
	open   atomic.Int64
	// Steal-flow sequence counters, indexed victim*nranks+thief. The
	// fabric delivers per-(source, destination, tag) in FIFO order, so the
	// n-th grant sent from a victim to a thief is the n-th grant the thief
	// receives from that victim: symmetric counters on both sides yield
	// matching flow ids without shipping the id in the message.
	flowOut []atomic.Uint64
	flowIn  []atomic.Uint64
	metrics *Metrics
}

// New creates a tracer for a run on the given number of ranks. Rank
// tracks are preallocated; events on out-of-range ranks land on the root
// track rather than being dropped.
func New(ranks int) *Tracer {
	if ranks < 1 {
		ranks = 1
	}
	t := &Tracer{start: time.Now(), nranks: ranks, metrics: NewMetrics()}
	t.bufs = make([]*buffer, ranks+1)
	for i := range t.bufs {
		t.bufs[i] = newBuffer()
	}
	t.flowOut = make([]atomic.Uint64, ranks*ranks)
	t.flowIn = make([]atomic.Uint64, ranks*ranks)
	return t
}

// Enabled reports whether the tracer records anything; it is the single
// nil check instrumented hot paths pay when tracing is off.
func (t *Tracer) Enabled() bool { return t != nil }

// Metrics returns the run-metrics registry attached to the tracer, or nil
// for the disabled tracer (the nil *Metrics is itself a no-op registry).
func (t *Tracer) Metrics() *Metrics {
	if t == nil {
		return nil
	}
	return t.metrics
}

// Ranks returns the number of worker-rank tracks.
func (t *Tracer) Ranks() int {
	if t == nil {
		return 0
	}
	return t.nranks
}

// OpenSpans returns the number of spans begun but not yet ended. A run
// that tears down cleanly — including the cancellation paths — leaves
// zero; the tests assert it.
func (t *Tracer) OpenSpans() int64 {
	if t == nil {
		return 0
	}
	return t.open.Load()
}

// Events returns the total number of recorded events across all tracks.
func (t *Tracer) Events() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, b := range t.bufs {
		n += b.len()
	}
	return n
}

func (t *Tracer) now() int64 { return int64(time.Since(t.start)) }

// Now returns the tracer's current timestamp: monotonic nanoseconds since
// New, the time base every recorded event uses. A multi-process run's
// launcher reads its own and each worker's tracer through this method
// when it measures their RankClock offsets, so the offsets are directly
// in trace-timestamp units. Returns 0 on a nil tracer.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

func (t *Tracer) buf(rank int) *buffer {
	i := rank + 1
	if i < 0 || i >= len(t.bufs) {
		i = 0
	}
	return t.bufs[i]
}

// Span is an in-flight span handle returned by Begin. The zero Span (from
// a disabled tracer) is valid and End on it does nothing.
type Span struct {
	t    *Tracer
	rank int
	cat  string
	name string
	t0   int64
}

// Begin opens a span on rank's track (RootRank for root-side work). The
// span is recorded when End is called; a span never ended is never
// written, and OpenSpans counts it as leaked.
func (t *Tracer) Begin(rank int, cat, name string) Span {
	if t == nil {
		return Span{}
	}
	t.open.Add(1)
	return Span{t: t, rank: rank, cat: cat, name: name, t0: t.now()}
}

// End closes the span, attaching the given args.
func (s Span) End(args ...Arg) {
	if s.t == nil {
		return
	}
	s.t.open.Add(-1)
	end := s.t.now()
	dur := end - s.t0
	if dur < 0 {
		dur = 0
	}
	s.t.buf(s.rank).write(event{name: s.name, cat: s.cat, ph: phSpan, ts: s.t0, dur: dur, args: args})
}

// Instant records a zero-duration event on rank's track.
func (t *Tracer) Instant(rank int, cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.buf(rank).write(event{name: name, cat: cat, ph: phInstant, ts: t.now(), args: args})
}

// Counter records a named counter sample on rank's track; trace viewers
// render the series as a filled graph (queue depth over time).
func (t *Tracer) Counter(rank int, name string, val float64) {
	if t == nil {
		return
	}
	t.buf(rank).write(event{name: name, cat: CatSteal, ph: phCounter, ts: t.now(),
		args: []Arg{{Key: "value", Val: val}}})
}

func (t *Tracer) pair(from, to int) (int, bool) {
	if from < 0 || from >= t.nranks || to < 0 || to >= t.nranks {
		return 0, false
	}
	return from*t.nranks + to, true
}

func (t *Tracer) flowID(pair int, seq uint64) uint64 {
	return uint64(pair+1)<<32 | (seq & 0xffffffff)
}

// FlowOut records the start of a flow arrow from rank to dst (a stolen
// task leaving its victim). It must be called between the Begin and End
// of the enclosing span so viewers can bind the arrow to the slice. The
// matching FlowIn on dst pairs by (rank, dst) sequence number, relying on
// the fabric's per-pair FIFO ordering.
func (t *Tracer) FlowOut(rank, dst int, name string) {
	if t == nil {
		return
	}
	p, ok := t.pair(rank, dst)
	if !ok {
		return
	}
	seq := t.flowOut[p].Add(1)
	t.buf(rank).write(event{name: name, cat: CatSteal, ph: phFlowOut, ts: t.now(), id: t.flowID(p, seq)})
}

// FlowIn records the finish of a flow arrow on rank, started by src's
// matching FlowOut. Call it between the Begin and End of the receiving
// span.
func (t *Tracer) FlowIn(rank, src int, name string) {
	if t == nil {
		return
	}
	p, ok := t.pair(src, rank)
	if !ok {
		return
	}
	seq := t.flowIn[p].Add(1)
	t.buf(rank).write(event{name: name, cat: CatSteal, ph: phFlowIn, ts: t.now(), id: t.flowID(p, seq)})
}
