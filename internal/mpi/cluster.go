package mpi

// Cluster is the transport seam: it groups the processes of a run and
// mints the Worlds that communicate across them. The in-process backend
// (InProcess) hosts every rank in this address space — its worlds are
// identical to NewWorld's, keeping the zero-copy SendRef fast path and
// pooled buffers verbatim. The TCP backend (AcceptTCP / JoinTCP) hosts
// exactly one rank per process and routes traffic for every other rank
// over per-peer connections.
//
// The execution model over a wire transport is SPMD: every process runs
// the same program and calls NewWorld in the same order, so worlds pair
// up across processes by epoch — the sequence number stamped on each
// world. A frame that arrives before its world exists locally is parked
// on the transport and delivered when the matching NewWorld call happens,
// which absorbs the natural skew between processes.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Cluster groups the processes of a run under one transport and mints
// epoch-numbered Worlds over it.
type Cluster struct {
	n         int
	rank      int
	tcp       *tcpNode
	nextEpoch atomic.Uint64
}

// InProcess returns a cluster hosting all n ranks in this process; its
// worlds behave exactly like NewWorld(n)'s.
func InProcess(n int) *Cluster {
	if n < 1 {
		n = 1
	}
	return &Cluster{n: n}
}

// Size returns the number of ranks in the cluster.
func (cl *Cluster) Size() int { return cl.n }

// Rank returns the rank hosted by this process (0 for in-process
// clusters, which host every rank).
func (cl *Cluster) Rank() int { return cl.rank }

// TransportName identifies the backend ("inproc" or "tcp") for traces
// and logs.
func (cl *Cluster) TransportName() string {
	if cl.tcp != nil {
		return "tcp"
	}
	return "inproc"
}

// isLocal reports whether rank r is hosted in this process.
func (cl *Cluster) isLocal(r int) bool { return cl.tcp == nil || r == cl.rank }

// NewWorld mints the cluster's next communicator. Over a wire transport,
// every process must call NewWorld the same number of times in the same
// order (the SPMD contract); the k-th world in each process is the same
// communicator.
func (cl *Cluster) NewWorld() *World {
	epoch := cl.nextEpoch.Add(1)
	if cl.tcp == nil {
		w := NewWorld(cl.n)
		w.cl = cl
		w.epoch = epoch
		return w
	}
	w := &World{n: cl.n, stats: &Stats{}, cl: cl, epoch: epoch}
	w.boxes = make([]*mailbox, cl.n)
	w.boxes[cl.rank] = newMailbox()
	w.closedCh = make(chan struct{})
	w.cb = newCBarrier(w)
	cl.tcp.register(w)
	return w
}

// SetNowFunc installs the monotonic clock the cluster's ping/pong
// exchange reads on this process — typically a tracer's Now, so the
// estimated offsets land directly in trace-timestamp units. Install it
// on every process of a run before measuring; without one the exchange
// falls back to process-uptime nanoseconds. No-op on in-process
// clusters (one address space has one clock).
func (cl *Cluster) SetNowFunc(now func() int64) {
	if cl.tcp == nil || now == nil {
		return
	}
	cl.tcp.nowFn.Store(&now)
}

// ClockSync is one rank's clock alignment as measured from this process:
// adding OffsetNS to a timestamp read from that rank's clock (its
// SetNowFunc) yields the equivalent timestamp on this process's clock.
// RTTNS is the round-trip time of the ping the estimate came from; the
// offset error is bounded by half of it.
type ClockSync struct {
	Rank     int
	OffsetNS int64
	RTTNS    int64
}

// TelemetryItem is one peer's decoded telemetry payload, collected by
// this process's transport until Telemetry drains it.
type TelemetryItem struct {
	Rank    int
	Payload any
}

// pingRank measures rank's clock offset against this process's clock by
// `rounds` ping/pong exchanges, keeping the estimate from the round with
// the smallest round-trip (midpoint alignment: the remote clock is read
// halfway through the round trip, so offset = midpoint − remote). The
// peer's reader goroutine answers pings at any time — during a run,
// between worlds, or while blocked in a barrier. Returns a zero offset
// for this process's own rank and on in-process clusters.
func (cl *Cluster) pingRank(ctx context.Context, rank, rounds int) (ClockSync, error) {
	out := ClockSync{Rank: rank}
	if cl.tcp == nil || rank == cl.rank {
		return out, nil
	}
	if rank < 0 || rank >= cl.n {
		return out, fmt.Errorf("mpi: ping rank %d of %d", rank, cl.n)
	}
	if rounds < 1 {
		rounds = 1
	}
	n := cl.tcp
	best := int64(math.MaxInt64)
	for i := 0; i < rounds; i++ {
		seq := n.pingSeq.Add(1)
		ch := make(chan int64, 1)
		n.pingMu.Lock()
		if n.closed.Load() {
			n.pingMu.Unlock()
			return out, errTransportClosed
		}
		if n.pings == nil {
			n.pings = make(map[uint64]chan int64)
		}
		n.pings[seq] = ch
		n.pingMu.Unlock()
		t0 := n.now()
		if _, err := n.sendCtrl(rank, frame{kind: framePing, seq: seq, rank: int32(cl.rank)}); err != nil {
			n.pingMu.Lock()
			delete(n.pings, seq)
			n.pingMu.Unlock()
			return out, err
		}
		select {
		case remote, ok := <-ch:
			if !ok {
				return out, errTransportClosed
			}
			t1 := n.now()
			rtt := t1 - t0
			if rtt < 0 {
				rtt = 0
			}
			if rtt < best {
				best = rtt
				out.OffsetNS = t0 + rtt/2 - remote
				out.RTTNS = rtt
			}
		case <-ctx.Done():
			n.pingMu.Lock()
			delete(n.pings, seq)
			n.pingMu.Unlock()
			return out, context.Cause(ctx)
		}
	}
	return out, nil
}

// MeasureOffsets pings every live peer rank `rounds` times from this
// process (rank 0 in the launcher topology) and returns the per-rank
// clock alignments, own rank included with a zero offset. Dead ranks are
// omitted — a degraded run still aligns the survivors' clocks. On
// in-process clusters every offset is zero: all ranks share one clock.
func (cl *Cluster) MeasureOffsets(ctx context.Context, rounds int) ([]ClockSync, error) {
	out := make([]ClockSync, 0, cl.n)
	for r := 0; r < cl.n; r++ {
		if !cl.alive(r) {
			continue
		}
		cs, err := cl.pingRank(ctx, r, rounds)
		if err != nil {
			// A rank that died mid-measurement is a skip, not a failure.
			var de *RankDeadError
			if errors.As(err, &de) {
				continue
			}
			return out, err
		}
		out = append(out, cs)
	}
	return out, nil
}

// SendTelemetry ships a codec-registered payload (typically a
// *trace.Telemetry) to rank 0, where Telemetry collects it. Call it
// before the run's final barrier: frames on one link deliver in FIFO
// order, so a snapshot sent before the barrier entry is guaranteed to be
// collected on rank 0 by the time the barrier releases — no extra
// synchronization needed. No-op on rank 0 itself and on in-process
// clusters (the caller already holds the local snapshot).
func (cl *Cluster) SendTelemetry(ref any) error {
	if cl.tcp == nil || cl.rank == 0 {
		return nil
	}
	e := codecForRef(ref)
	if e == nil {
		return fmt.Errorf("mpi: no wire codec registered for telemetry type %T", ref)
	}
	payload := e.enc(ref, nil)
	_, err := cl.tcp.sendCtrl(0, frame{
		kind: frameTelemetry, rank: int32(cl.rank), codec: e.id, payload: payload,
	})
	return err
}

// Telemetry drains the telemetry snapshots peers have shipped to this
// process, in arrival order. Returns nil on in-process clusters.
func (cl *Cluster) Telemetry() []TelemetryItem {
	if cl.tcp == nil {
		return nil
	}
	n := cl.tcp
	n.telemMu.Lock()
	items := n.telem
	n.telem = nil
	n.telemMu.Unlock()
	return items
}

// Close shuts the transport down. For TCP clusters it closes every peer
// connection, fails any worlds still open, and waits for the reader
// goroutines to drain; for in-process clusters it is a no-op. Close after
// the last world has completed; a Close during a run tears the run down
// everywhere.
func (cl *Cluster) Close() error {
	if cl.tcp != nil {
		cl.tcp.teardown(nil)
		cl.tcp.wg.Wait()
	}
	return nil
}

// cbarrier coordinates Barrier across processes. Rank 0's process is the
// coordinator: every barrier entry (local or a frameBarrierEnter from a
// peer) is tallied there per sequence number, and when all n ranks have
// entered, a frameBarrierRelease fans out. Each process tracks the
// highest released sequence; since every rank passes barriers in order,
// released >= seq means barrier seq completed.
type cbarrier struct {
	w     *World
	mu    sync.Mutex
	cond  *sync.Cond
	seq   uint64         // barriers entered by the local rank
	rel   uint64         // highest released barrier sequence
	tally map[uint64]int // coordinator only: entries per sequence
	done  bool
}

func newCBarrier(w *World) *cbarrier {
	b := &cbarrier{w: w}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *cbarrier) close() {
	b.mu.Lock()
	b.done = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// await enters the next barrier for the local rank and blocks until it is
// released or the world is torn down.
func (b *cbarrier) await() error {
	b.mu.Lock()
	b.seq++
	seq := b.seq
	b.mu.Unlock()
	w := b.w
	if w.cl.rank == 0 {
		b.enter(seq)
	} else if _, err := w.cl.tcp.sendCtrl(0, frame{
		kind: frameBarrierEnter, epoch: w.epoch, seq: seq, rank: int32(w.cl.rank),
	}); err != nil {
		return w.Err()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.rel < seq && !b.done {
		b.cond.Wait()
	}
	if b.rel >= seq {
		return nil
	}
	return w.Err()
}

// enter records one rank's arrival at barrier seq on the coordinator and
// releases the barrier once every live rank has arrived. The tally can
// exceed the live target when a rank entered and then died (hence >=),
// and the seq <= b.seq guard keeps a shrunken target from releasing a
// barrier the coordinator's own rank has not reached yet.
func (b *cbarrier) enter(seq uint64) {
	b.mu.Lock()
	if b.tally == nil {
		b.tally = make(map[uint64]int)
	}
	b.tally[seq]++
	complete := b.tally[seq] >= b.w.liveCount() && seq <= b.seq
	if complete {
		delete(b.tally, seq)
	}
	b.mu.Unlock()
	if complete {
		b.w.cl.tcp.broadcastCtrl(frame{kind: frameBarrierRelease, epoch: b.w.epoch, seq: seq})
		b.release(seq)
	}
}

// rankDied re-evaluates pending tallies on the coordinator after a
// membership loss: a barrier whose every surviving rank has already
// entered releases now instead of waiting forever for the dead rank.
func (b *cbarrier) rankDied() {
	if b.w.cl == nil || b.w.cl.rank != 0 {
		return
	}
	b.mu.Lock()
	target := b.w.liveCount()
	var done []uint64
	for seq, k := range b.tally {
		if k >= target && seq <= b.seq {
			done = append(done, seq)
		}
	}
	for _, seq := range done {
		delete(b.tally, seq)
	}
	b.mu.Unlock()
	for _, seq := range done {
		b.w.cl.tcp.broadcastCtrl(frame{kind: frameBarrierRelease, epoch: b.w.epoch, seq: seq})
		b.release(seq)
	}
}

// release advances the released watermark and wakes local waiters.
func (b *cbarrier) release(seq uint64) {
	b.mu.Lock()
	if seq > b.rel {
		b.rel = seq
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}
