package main

// The finalize exchange of a multi-process run: one more world, minted by
// every process after generation, on which a tracing rank 0 collects each
// worker's clock and telemetry with ordinary messages. It ends in the
// world's barrier, so no process tears its connections down while another
// still drains the pipeline's last broadcast. The run's statistics do not
// travel here: they reached rank 0's core.Stats phase by phase.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"pamg2d/internal/mpi"
	"pamg2d/internal/trace"
)

// Message tags of the finalize world: rank 0 sends one request byte on
// tagRequest, and a worker answers on tagReply.
const (
	tagRequest = iota + 1
	tagReply
)

// Finalize requests. Either of the last two is a worker's last.
const (
	reqClock byte = iota + 1 // reply with the clock, 8 bytes
	reqShip                  // reply with the telemetry image
	reqDone                  // no reply
)

// clockRounds is the number of clock samples an offset estimate takes
// the best of.
const clockRounds = 5

// shipments is what a tracing rank 0 collected from its workers. A worker
// appears only once its whole visit completed, so every snapshot comes
// with the clock it is rebased by.
type shipments struct {
	telems []*trace.Telemetry
	clocks []trace.RankClock // rank 0's zero offset first
}

// collectWorkers is rank 0's side of the finalize exchange: it visits
// each live worker in rank order, then enters the barrier. now is the
// launcher's trace clock, or nil when the launcher does not trace: then
// each worker is only released to the barrier, so rank 0's flags alone
// decide what crosses the wire. A worker that is or goes dead is
// skipped; the run's degradation report covers it. Only a failed visit
// and the barrier's result are errors: once the barrier releases, a peer
// closing its links is the expected shutdown.
func collectWorkers(ctx context.Context, fabric *mpi.Cluster, now func() int64) (shipments, error) {
	var out shipments
	if now != nil {
		out.clocks = []trace.RankClock{{Rank: 0}}
	}
	var err error
	_ = fabric.NewWorld().RunCtx(ctx, func(c *mpi.Comm) error {
		for r := 1; r < c.Size(); r++ {
			if !c.Alive(r) {
				continue
			}
			var de *mpi.RankDeadError
			if err = visitWorker(ctx, c, r, now, &out); errors.As(err, &de) {
				err = nil
			} else if err != nil {
				return err
			}
		}
		err = c.Barrier()
		return nil
	})
	return out, err
}

// visitWorker releases worker r to the barrier, or, when now is set,
// samples its clock and takes its telemetry, adding both to out once all
// of it has arrived.
func visitWorker(ctx context.Context, c *mpi.Comm, r int, now func() int64, out *shipments) error {
	if now == nil {
		return send(c, r, tagRequest, []byte{reqDone})
	}
	clock, err := sampleClock(ctx, c, r, now)
	if err != nil {
		return err
	}
	if err := send(c, r, tagRequest, []byte{reqShip}); err != nil {
		return err
	}
	b, _, _, err := c.Recv(ctx, r, tagReply)
	if err != nil {
		return err
	}
	var tel *trace.Telemetry
	if len(b) > 0 {
		tel, err = trace.DecodeTelemetry(b)
	}
	mpi.PutBytes(b)
	if err != nil {
		return fmt.Errorf("rank %d telemetry: %w", r, err)
	}
	if tel != nil {
		out.telems = append(out.telems, tel)
	}
	out.clocks = append(out.clocks, clock)
	return nil
}

// sampleClock estimates worker r's clock offset against now: of
// clockRounds request/reply rounds it keeps the one with the smallest
// round trip and takes the worker's reading to fall at its midpoint, so
// the error is bounded by half that round trip.
func sampleClock(ctx context.Context, c *mpi.Comm, r int, now func() int64) (trace.RankClock, error) {
	out := trace.RankClock{Rank: r, RTTNS: math.MaxInt64}
	for i := 0; i < clockRounds; i++ {
		t0 := now()
		if err := send(c, r, tagRequest, []byte{reqClock}); err != nil {
			return out, err
		}
		b, _, _, err := c.Recv(ctx, r, tagReply)
		t1 := now()
		if err != nil {
			return out, err
		}
		if len(b) != 8 {
			mpi.PutBytes(b)
			return out, fmt.Errorf("rank %d: clock reply of %d bytes", r, len(b))
		}
		remote := int64(binary.LittleEndian.Uint64(b))
		mpi.PutBytes(b)
		if rtt := t1 - t0; rtt < out.RTTNS {
			out.OffsetNS, out.RTTNS = t0+rtt/2-remote, rtt
		}
	}
	return out, nil
}

// serveLauncher is a worker's side of the finalize exchange: it answers
// rank 0's requests with its clock (now) and tel's image (empty when tel
// is nil) until rank 0 asks for the image or releases it, and enters the
// barrier. Like collectWorkers it returns a failure or the barrier's
// result.
func serveLauncher(ctx context.Context, cluster *mpi.Cluster, tel *trace.Telemetry, now func() int64) error {
	var err error
	_ = cluster.NewWorld().RunCtx(ctx, func(c *mpi.Comm) error {
		for err == nil {
			var b []byte
			if b, _, _, err = c.Recv(ctx, 0, tagRequest); err != nil {
				break
			}
			req := byte(0)
			if len(b) == 1 {
				req = b[0]
			}
			mpi.PutBytes(b)
			switch req {
			case reqClock:
				err = send(c, 0, tagReply, binary.LittleEndian.AppendUint64(nil, uint64(now())))
			case reqShip, reqDone:
				if req == reqShip {
					var image []byte
					if tel != nil {
						image = tel.AppendBinary(nil)
					}
					err = send(c, 0, tagReply, image)
				}
				if err == nil {
					err = c.Barrier()
				}
				return nil
			default:
				err = fmt.Errorf("unknown finalize request %d", req)
			}
		}
		return nil
	})
	return err
}

// send ships a copy of b to rank `to` in a pooled buffer, which the
// transport releases once written and send itself on a failure.
func send(c *mpi.Comm, to, tag int, b []byte) error {
	buf := mpi.GetBytes(len(b))
	copy(buf, b)
	err := c.Send(to, tag, buf)
	if err != nil {
		mpi.PutBytes(buf)
	}
	return err
}
