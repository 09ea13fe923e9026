package mpi

// Rank membership: the fabric's view of which ranks are still alive.
//
// The original transport treated the rank set as immutable — any link
// error tore the whole node down. Membership makes rank death a
// first-class, survivable event: each process marks the dead rank in its
// own live set, announces the death to the surviving peers with a
// frameRankDead so the fabric converges without every node waiting out
// its own timeout, and keeps the remaining links running. Detection is
// two-fold: a write or read error on a link kills that peer immediately
// (a SIGKILLed process resets its connections), and heartbeat frames
// paired with per-read deadlines bound the detection time on links that
// are idle through a long compute phase.
//
// Quorum: rank 0 hosts the RMA windows and coordinates the cross-process
// barrier, so a worker that loses its link to rank 0 has lost the run —
// that one death still tears the node down, with the *RankDeadError as
// the cause. Everything else degrades: sends to dead ranks fail fast,
// worlds created after a death plan around the shrunken live set, and
// worlds open at death time fail their blocking operations with a
// *RankDeadError so the executor can re-plan the dead rank's share.

import (
	"errors"
	"fmt"
	"time"
)

// Default heartbeat cadence. The timeout is the read deadline armed
// before every frame read; it must comfortably exceed the interval so a
// healthy-but-busy peer is never declared dead. Cluster.setHeartbeat
// overrides both (zero disables the corresponding half).
const (
	defaultHeartbeatInterval = 1 * time.Second
	defaultHeartbeatTimeout  = 10 * time.Second
)

// RankDeadError reports an operation that failed because a peer rank was
// declared dead. Match with errors.As; Err carries the detection cause
// (link error, heartbeat timeout, or a peer's death notice).
type RankDeadError struct {
	Rank int
	Err  error
}

func (e *RankDeadError) Error() string { return fmt.Sprintf("mpi: rank %d dead: %v", e.Rank, e.Err) }
func (e *RankDeadError) Unwrap() error { return e.Err }

// RankDeath is one membership loss: which rank died, when this process
// declared it dead, and why.
type RankDeath struct {
	Rank  int
	At    time.Time
	Cause error
}

// alive reports whether rank r is live in this node's membership view.
func (n *tcpNode) alive(r int) bool {
	if r < 0 || r >= n.n {
		return false
	}
	n.memMu.Lock()
	ok := n.deadRank[r] == nil
	n.memMu.Unlock()
	return ok
}

// deadErr returns the typed death error for rank r, or nil while it is
// live.
func (n *tcpNode) deadErr(r int) *RankDeadError {
	if r < 0 || r >= n.n {
		return nil
	}
	n.memMu.Lock()
	cause := n.deadRank[r]
	n.memMu.Unlock()
	if cause == nil {
		return nil
	}
	return &RankDeadError{Rank: r, Err: cause}
}

// deadRanks returns the chronological record of rank deaths this process
// has declared.
func (n *tcpNode) deadRanks() []RankDeath {
	n.memMu.Lock()
	out := append([]RankDeath(nil), n.deaths...)
	n.memMu.Unlock()
	return out
}

// rankDied folds one peer's death into the membership view. The first
// declaration wins: the rank is marked dead, its link is closed so the
// reader drains out, surviving peers hear a frameRankDead, and every open
// world is notified so blocked operations unwind with a *RankDeadError. A worker losing rank 0 is
// quorum loss — the barrier coordinator and window host are gone — so
// that one death still tears the whole node down.
func (n *tcpNode) rankDied(rank int, cause error) {
	if rank < 0 || rank >= n.n || rank == n.rank || n.closed.Load() {
		return
	}
	if cause == nil {
		cause = errors.New("rank declared dead")
	}
	n.memMu.Lock()
	if n.deadRank[rank] != nil {
		n.memMu.Unlock()
		return
	}
	n.deadRank[rank] = cause
	n.deaths = append(n.deaths, RankDeath{Rank: rank, At: time.Now(), Cause: cause})
	n.memMu.Unlock()
	if p := n.peers[rank]; p != nil {
		p.conn.Close()
	}
	if rank == 0 && n.rank != 0 {
		n.teardown(&RankDeadError{Rank: 0, Err: cause})
		return
	}
	n.announceDeath(rank, cause)
	n.mu.Lock()
	worlds := make([]*World, 0, len(n.worlds))
	for _, w := range n.worlds {
		worlds = append(worlds, w)
	}
	n.mu.Unlock()
	for _, w := range worlds {
		w.noteRankDead(rank, cause)
	}
}

// announceDeath tells the surviving peers about a death. Send failures
// feed back into rankDied for that peer, so a cascade of deaths settles
// in at most n rounds.
func (n *tcpNode) announceDeath(rank int, cause error) {
	text := cause.Error()
	if len(text) > maxCauseLen {
		text = text[:maxCauseLen]
	}
	for r, p := range n.peers {
		if p == nil || r == rank || !n.alive(r) {
			continue
		}
		_, _ = n.sendCtrl(r, frame{kind: frameRankDead, rank: int32(rank), cause: text})
	}
}

// startHeartbeats runs the keepalive sender for the node's lifetime:
// one frameHeartbeat to every live peer per interval. Paired with the
// read deadline each reader arms per frame, a silent peer is declared
// dead within the heartbeat timeout.
func (n *tcpNode) startHeartbeats() {
	if n.n <= 1 {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTimer(time.Hour)
		defer t.Stop()
		beat := func() {
			for r, p := range n.peers {
				if p == nil || !n.alive(r) {
					continue
				}
				_, _ = n.sendCtrl(r, frame{kind: frameHeartbeat, rank: int32(n.rank)})
			}
		}
		for {
			// The interval is re-read every beat so setHeartbeat takes
			// effect on the next one; zero pauses sending without stopping
			// the loop. A kick (setHeartbeat) applies a new cadence
			// immediately — one beat now, then the new interval — so a peer
			// that just armed a short read deadline sees traffic right away
			// instead of after the stale timer runs out.
			iv := time.Duration(n.hbInterval.Load())
			send := iv > 0
			if iv <= 0 {
				iv = defaultHeartbeatInterval
			}
			if !t.Stop() {
				select {
				case <-t.C:
				default:
				}
			}
			t.Reset(iv)
			select {
			case <-n.hbStop:
				return
			case <-n.hbKick:
				if time.Duration(n.hbInterval.Load()) > 0 {
					beat()
				}
				continue
			case <-t.C:
			}
			if !send {
				continue
			}
			beat()
		}
	}()
}

// Membership state on a World. Wire worlds distinguish ranks that were
// already dead when the world was minted (bornDead: the world simply
// plans around them — the barrier runs over the survivors) from a death
// that happened while the world was open (failure: partial exchange
// state cannot be trusted, so blocking operations fail fast with the
// *RankDeadError and the caller re-plans on a fresh world). In-process
// worlds never populate any of this — every membership check short-
// circuits on MultiProcess, keeping the shared-memory fast path
// allocation-free and byte-identical to the pre-membership runtime.

// noteRankDead records a death that happened while this world was open:
// blocked receives wake and fail with the *RankDeadError, and the barrier
// coordinator re-evaluates pending tallies against the shrunken live set
// so barriers complete over the survivors.
func (w *World) noteRankDead(rank int, cause error) {
	w.memMu.Lock()
	if w.dead == nil {
		w.dead = make([]error, w.n)
	}
	if w.dead[rank] != nil {
		w.memMu.Unlock()
		return
	}
	w.dead[rank] = cause
	w.deadN++
	w.memMu.Unlock()
	w.failure.CompareAndSwap(nil, &RankDeadError{Rank: rank, Err: cause})
	for _, mb := range w.boxes {
		if mb == nil {
			continue
		}
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
	if w.cb != nil {
		w.cb.rankDied()
	}
}

// seedDead marks a rank that was already dead when the world was minted.
// Unlike noteRankDead it does not poison blocking operations: the world
// was created against the shrunken live set and completes over it.
func (w *World) seedDead(rank int, cause error) {
	w.memMu.Lock()
	if w.dead == nil {
		w.dead = make([]error, w.n)
	}
	if w.dead[rank] == nil {
		w.dead[rank] = cause
		w.deadN++
	}
	w.memMu.Unlock()
}

// Alive reports whether rank r is live in this world's membership view.
// In-process worlds are always fully live.
func (w *World) Alive(r int) bool {
	if r < 0 || r >= w.n {
		return false
	}
	if !w.MultiProcess() {
		return true
	}
	w.memMu.Lock()
	ok := w.dead == nil || w.dead[r] == nil
	w.memMu.Unlock()
	return ok
}

// liveCount returns the number of live ranks.
func (w *World) liveCount() int {
	if !w.MultiProcess() {
		return w.n
	}
	w.memMu.Lock()
	live := w.n - w.deadN
	w.memMu.Unlock()
	return live
}

// deadCause returns the death cause for rank r, or nil while it is live.
func (w *World) deadCause(r int) error {
	if !w.MultiProcess() || r < 0 || r >= w.n {
		return nil
	}
	w.memMu.Lock()
	var cause error
	if w.dead != nil {
		cause = w.dead[r]
	}
	w.memMu.Unlock()
	return cause
}

// Alive reports whether rank r is live in this communicator's world view
// (see World.Alive).
func (c *Comm) Alive(r int) bool { return c.world.Alive(r) }

// alive reports whether rank r is live in the cluster's membership view.
// In-process clusters are always fully live.
func (cl *Cluster) alive(r int) bool {
	if cl.tcp == nil {
		return r >= 0 && r < cl.n
	}
	return cl.tcp.alive(r)
}

// DeadRanks returns the chronological record of rank deaths this process
// has declared, each with its detection time and cause.
func (cl *Cluster) DeadRanks() []RankDeath {
	if cl.tcp == nil {
		return nil
	}
	return cl.tcp.deadRanks()
}

// setHeartbeat overrides the keepalive cadence: interval is the
// heartbeat send period, timeout the per-read deadline that declares a
// silent peer dead. Zero disables the corresponding half. The interval
// takes effect on the next beat; the timeout applies to every subsequent
// frame read. No-op on in-process clusters.
func (cl *Cluster) setHeartbeat(interval, timeout time.Duration) {
	if cl.tcp == nil {
		return
	}
	cl.tcp.hbInterval.Store(int64(interval))
	cl.tcp.hbTimeout.Store(int64(timeout))
	// Kick the sender so the new interval applies now, not after the
	// stale timer expires (the kick also fires an immediate beat).
	select {
	case cl.tcp.hbKick <- struct{}{}:
	default:
	}
	// Re-arm in-flight reads: SetReadDeadline takes effect on a blocked
	// Read, so the new timeout applies immediately instead of after the
	// next frame.
	deadline := time.Time{}
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for _, p := range cl.tcp.peers {
		if p != nil {
			_ = p.conn.SetReadDeadline(deadline)
		}
	}
}
