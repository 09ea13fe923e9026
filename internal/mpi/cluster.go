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
