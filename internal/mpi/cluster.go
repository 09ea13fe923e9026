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

import "sync/atomic"

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
