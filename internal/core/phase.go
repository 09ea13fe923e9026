package core

// The pipeline's distributed-phase driver. loadbal.Scatter owns the
// mechanism every phase shares — deal, stealing, dead-rank re-queue,
// result collection at the root; runPhase adds what only core knows: the
// timed task kernel, the TaskHook seam, the PhaseError contract and its
// precedence, the multi-process agreement that leaves every process with
// the same verdict and result set and the root with every rank's
// counters, and the fold into the run statistics.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"pamg2d/internal/delaunay"
	"pamg2d/internal/loadbal"
	"pamg2d/internal/mpi"
)

// Message tags of the post-phase agreement (distinct from the balancer's
// and the executor's ranges).
const (
	// tagErrSync carries each worker's failure flag and phase record to
	// the root (the collect leg of the star-shaped agreement).
	tagErrSync = iota + 201
	// tagResultSync carries the root's combined verdict + result payload
	// back to each worker (the distribute leg).
	tagResultSync
	// tagVerdictAck carries a worker's acknowledgement of a failing
	// verdict: the root keeps its links open until each has arrived.
	tagVerdictAck
)

// runPhase runs one meshing stage's tasks under loadbal.Scatter on a fresh
// world and returns each task's submesh indexed by task ID — on every
// process of a multi-process run, not only the root's. Every process holds
// the same task list, so the balancer moves only each task's header (ID,
// cost, boundary-layer flag) and the executing rank reads the input by ID.
// A task's submesh and its measured seconds travel to the root as a
// *taskResult, and every process builds the stage's TaskMeasures from the
// results it leaves the phase with. In-process, headers and results move
// by reference; every transfer is accounted at the size its serialized
// form would occupy.
//
// Cancellation of rc's context tears the world down mid-phase: in-flight
// tasks finish, both balancer goroutines on every rank drain, and the
// call returns a *PhaseError carrying the stage name and the context's
// cause. A rank or world failure is returned the same way, and so is the
// first task that failed (processTask or TaskHook returned an error, or
// panicked), attributed to the rank that executed it.
func runPhase(rc *RunCtx, stage string, tasks []meshTask, tctx taskCtx) ([]submesh, error) {
	hook, tr := rc.cfg.TaskHook, rc.tracer
	headers := make([]loadbal.Task, len(tasks))
	var total float64
	for i, t := range tasks {
		headers[i] = loadbal.Task{ID: int32(i), Cost: t.cost, BoundaryLayer: t.kind == kindBLLeaf}
		total += t.cost
	}
	// Engine.Run always sets the fabric. Over a wire each process hosts
	// its own rank and worlds pair across processes by creation order,
	// which is why every process runs the identical stage sequence.
	world := rc.cfg.Fabric.NewWorld()
	world.SetTracer(tr)
	// A rank's mesher goroutine runs one task at a time, so its kernel
	// workspace has one user and needs no lock; both stages share them.
	if len(rc.kernels) != world.Size() {
		rc.kernels = make([]*delaunay.Triangulation, world.Size())
		for r := range rc.kernels {
			rc.kernels[r] = new(delaunay.Triangulation)
		}
	}
	opt := loadbal.DefaultOptions(total, rc.cfg.Ranks)
	opt.Tracer = tr
	collected, balStats, err := loadbal.Scatter(rc.ctx, world, headers, opt,
		func(c *mpi.Comm, h loadbal.Task) (loadbal.Result, error) {
			// Scatter hands over only headers of this process's list.
			t := &tasks[h.ID]
			if hook != nil {
				if err := hook(stage, t.kind); err != nil {
					return nil, err
				}
			}
			r, err := runTask(c.Rank(), h.ID, t, tctx, rc.kernels[c.Rank()], tr)
			if err != nil {
				return nil, err
			}
			return r, nil
		})
	// Error precedence: cancellation first (it is the root cause of any
	// rank errors it provoked), then rank/world failures, then the first
	// task failure.
	if rc.ctx.Err() != nil {
		return nil, &PhaseError{Stage: stage, Rank: -1, Err: context.Cause(rc.ctx)}
	}
	var failed *PhaseError
	var te *loadbal.TaskError
	if errors.As(err, &te) {
		failed = &PhaseError{Stage: stage, Rank: te.Rank, Err: fmt.Errorf("task %d: %w", te.Task, te.Err)}
		if te.Task < 0 { // the processes' task lists differ
			failed.Err = te.Err
		}
	} else if err != nil {
		return nil, phaseError(stage, err)
	}
	msgs, bytes := world.Stats().Messages.Load(), world.Stats().Bytes.Load()
	// A task failure is local knowledge: in a multi-process run the other
	// processes completed the phase cleanly and must be told before anyone
	// returns, or they would march on alone. The agreement also hands the
	// root's collected results to every process, so all of them leave the
	// phase with identical state, and the workers' counters to the root.
	if world.MultiProcess() {
		failed = settlePhase(rc, world, stage, failed, collected, balStats, &msgs, &bytes)
	}
	if failed != nil {
		return nil, failed
	}
	results := make([]submesh, len(tasks))
	measures := make([]TaskMeasure, len(tasks))
	for i, c := range collected {
		r, ok := c.(*taskResult)
		if !ok || int(r.id) != i {
			return nil, &PhaseError{Stage: stage, Rank: -1, Err: fmt.Errorf("result slot %d holds a misplaced or foreign %T", i, c)}
		}
		results[i] = r.sub
		measures[i] = TaskMeasure{
			Seconds:       r.seconds,
			Bytes:         tasks[i].bytes(),
			BoundaryLayer: headers[i].BoundaryLayer,
			Triangles:     len(r.sub.tris),
		}
	}
	rc.stats.Tasks = append(rc.stats.Tasks, measures...)
	rc.foldBalancer(balStats)
	rc.wireMsgs += msgs
	rc.wireBytes += bytes
	return results, nil
}

// settlePhase runs this process's side of a multi-process phase's
// agreement (agreePhase) on world and returns the phase's failure,
// attributed to stage: the context's cause when canceled, the agreed task
// failure once its verdict arrived, the exchange's error — a result list
// from the root that does not decode among them — or nil for a clean
// phase.
func settlePhase(rc *RunCtx, world *mpi.World, stage string, failed *PhaseError, collected []loadbal.Result,
	bal []loadbal.Stats, msgs, bytes *int64) *PhaseError {
	agreed, cause := -1, ""
	err := world.RunCtx(rc.ctx, func(c *mpi.Comm) error {
		var aerr error
		agreed, cause, aerr = agreePhase(rc, c, failed, collected, bal, msgs, bytes)
		return aerr
	})
	if rc.ctx.Err() != nil {
		return &PhaseError{Stage: stage, Rank: -1, Err: context.Cause(rc.ctx)}
	}
	// A failing verdict read whole is the phase's outcome: the processes
	// tear their links down right after it, and a world that saw that
	// teardown before RunCtx returned reports it as its close cause.
	if err != nil && agreed < 0 {
		return phaseError(stage, err)
	}
	if agreed >= 0 && (failed == nil || failed.Rank != agreed) {
		return &PhaseError{Stage: stage, Rank: agreed, Err: errors.New(cause)}
	}
	return failed
}

// agreePhase is the post-phase agreement of multi-process runs: every
// process must leave a distributed phase with the same verdict (which
// rank, if any, failed a task, and why) and, on success, the same result
// set. The exchange is star-shaped — each worker sends its failure flag
// to the root and receives a combined verdict+payload back — so it stays
// correct when survivors hold different views of the membership: every
// leg is a direct root<->worker exchange, and a leg to or from a dead
// rank fails fast with RankDeadError, which the root tolerates inline.
// Tree-shaped collectives would deadlock here when a process that has
// not yet observed a death waits on a parent that the better-informed
// root routed around.
//
// Both legs lead with an 8-byte rank (-1: clean). A worker's leg then
// carries its phase record (its rank's balancer counters and its send
// counts, the leg included) and the failure's text, if any; the root
// folds each record into bal and *msgs/*bytes. The root's leg carries the
// failure's text on a failing verdict and its encoded results, which
// replace collected, on a clean one. A worker answers a failing verdict
// with an empty leg of its own (tagVerdictAck), and the root returns only
// once every live worker has. On return *msgs/*bytes are the
// phase's send counts this process's Stats records: a worker's own, the
// root's own plus every record that arrived. The returned rank and cause
// are the agreed failure (-1 for a clean phase), identical on every
// surviving process.
func agreePhase(rc *RunCtx, c *mpi.Comm, local *PhaseError, collected []loadbal.Result,
	bal []loadbal.Stats, msgs, bytes *int64) (int, string, error) {
	fail, cause := -1, ""
	if local != nil {
		fail, cause = local.Rank, local.Err.Error()
	}
	if c.Rank() != 0 {
		*msgs++
		*bytes += int64(8 + recordLen + len(cause))
		leg := append(appendRecord(nil, c.Rank(), bal[c.Rank()], *msgs, *bytes), cause...)
		if err := sendAgreement(c, 0, tagErrSync, fail, leg); err != nil {
			return -1, "", err
		}
		buf, _, _, err := c.Recv(rc.ctx, 0, tagResultSync)
		if err != nil {
			return -1, "", err
		}
		defer mpi.PutBytes(buf)
		if len(buf) < 8 {
			return -1, "", fmt.Errorf("core: short agreement payload (%d bytes)", len(buf))
		}
		if verdict := agreementRank(buf); verdict >= 0 {
			// A root already gone needs no acknowledgement: the verdict
			// is read either way.
			_ = sendAgreement(c, 0, tagVerdictAck, verdict, nil)
			return verdict, string(buf[8:]), nil
		}
		list, err := decodeResultList(buf[8:])
		if err == nil && len(list) != len(collected) {
			err = fmt.Errorf("core: agreement carries %d results, want %d", len(list), len(collected))
		}
		copy(collected, list)
		return -1, "", err
	}

	// Root: collect the live workers' legs, tolerating deaths mid-phase
	// (a dead worker's leg simply never factors in; its tasks were
	// re-queued by the balancer, so the results are complete without it).
	var workerMsgs, workerBytes int64
	for r := 1; r < c.Size(); r++ {
		if !c.Alive(r) {
			continue
		}
		buf, _, _, err := c.Recv(rc.ctx, r, tagErrSync)
		if err != nil {
			var de *mpi.RankDeadError
			if errors.As(err, &de) {
				continue
			}
			return -1, "", err
		}
		// A leg too short for its record hands decodeRecord a short slice.
		m, by, err := decodeRecord(buf[min(len(buf), 8):min(len(buf), 8+recordLen)], r, &bal[r])
		if err != nil {
			mpi.PutBytes(buf)
			return -1, "", err
		}
		workerMsgs += m
		workerBytes += by
		if v := agreementRank(buf); v > fail {
			fail, cause = v, string(buf[8+recordLen:])
		}
		mpi.PutBytes(buf)
	}
	body := []byte(cause)
	var completeErr error
	if fail < 0 {
		if body, completeErr = encodeResultList(collected); completeErr != nil {
			// Unblock the workers with a root-attributed failure verdict,
			// then surface the real error locally.
			fail, body = 0, []byte(completeErr.Error())
		}
	}
	for r := 1; r < c.Size(); r++ {
		if !c.Alive(r) {
			continue
		}
		// Each worker gets its own payload copy: the fabric returns sent
		// buffers to the pool on delivery, so one shared slice across
		// sends would be a use-after-free.
		if err := sendAgreement(c, r, tagResultSync, fail, body); err != nil {
			var de *mpi.RankDeadError
			if !errors.As(err, &de) {
				return -1, "", err
			}
		}
	}
	// After a failing verdict the processes return and tear their links
	// down, which drops what is still queued on them: hold the root until
	// every live worker has read the verdict, as meshgen's finalize
	// release round does. A clean phase's workers go on to the next one.
	for r := 1; r < c.Size() && fail >= 0; r++ {
		if !c.Alive(r) {
			continue
		}
		buf, _, _, err := c.Recv(rc.ctx, r, tagVerdictAck)
		var de *mpi.RankDeadError
		if err != nil && !errors.As(err, &de) {
			return -1, "", err
		}
		mpi.PutBytes(buf)
	}
	st := c.World().Stats()
	*msgs = st.Messages.Load() + workerMsgs
	*bytes = st.Bytes.Load() + workerBytes
	if completeErr != nil {
		return -1, "", completeErr
	}
	return fail, cause, nil
}

// sendAgreement ships one agreement leg in a pooled buffer; a failed send
// never took the buffer, so it goes back here.
func sendAgreement(c *mpi.Comm, to, tag, rank int, body []byte) error {
	msg := mpi.GetBytes(8 + len(body))
	binary.LittleEndian.PutUint64(msg, uint64(int64(rank)))
	copy(msg[8:], body)
	err := c.Send(to, tag, msg)
	if err != nil {
		mpi.PutBytes(msg)
	}
	return err
}

func agreementRank(msg []byte) int { return int(int64(binary.LittleEndian.Uint64(msg))) }

// foldBalancer folds one distributed stage's balancer records into the
// run statistics: the steal and idle totals accumulate into Stats.Steals,
// and the per-rank summary becomes the stage's StageStat.Ranks via
// rc.stageRanks.
func (rc *RunCtx) foldBalancer(balStats []loadbal.Stats) {
	perRank := make([]RankStat, len(balStats))
	for r, bs := range balStats {
		perRank[r] = RankStat{
			Rank:          r,
			Tasks:         bs.Processed,
			Busy:          bs.Busy,
			Idle:          bs.IdleTime,
			StealRequests: bs.StealRequests,
			StealsGranted: bs.StealsGranted,
			StealsGotten:  bs.StealsGotten,
		}
		rc.stats.Steals.Requests += bs.StealRequests
		rc.stats.Steals.Granted += bs.StealsGranted
		rc.stats.Steals.Gotten += bs.StealsGotten
		rc.stats.Steals.Idle += bs.IdleTime
		// Recovery counters are root-only in each phase's stats; summing
		// over ranks folds exactly the root's observations.
		rc.stats.Resilience.TasksRequeued += bs.Requeued
		rc.stats.Resilience.RecoveryWall += bs.RecoveryTime
	}
	rc.stageRanks = perRank
}
