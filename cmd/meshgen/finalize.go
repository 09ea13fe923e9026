package main

// The finalize exchange of a multi-process run: one more world, minted by
// every process after generation, on which a tracing rank 0 collects each
// worker's clock and telemetry with ordinary messages. It ends in a
// release round: rank 0 asks every live worker to return and waits for
// each answer, so no process tears its connections down while another
// still drains the pipeline's last broadcast. The run's statistics do not
// travel here: they reached rank 0's core.Stats phase by phase.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"pamg2d/internal/mpi"
	"pamg2d/internal/trace"
)

// Message tags of the finalize world: rank 0 sends one request byte on
// tagRequest, and a worker answers every request with one message on
// tagReply.
const (
	tagRequest = iota + 1
	tagReply
)

// Finalize requests. reqRelease is a worker's last: it answers with an
// empty reply and returns.
const (
	reqClock   byte = iota + 1 // reply with the clock, 8 bytes
	reqShip                    // reply with the telemetry's JSON image
	reqDone                    // empty reply: the visit of an untraced launcher
	reqRelease                 // empty reply, then return
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
// each live worker in rank order, then releases each in the same order
// and waits for its answer. now is the launcher's trace clock, or nil
// when the launcher does not trace: then a visit asks for nothing, so
// rank 0's flags alone decide what crosses the wire. A worker that is or
// goes dead is skipped; the run's degradation report covers it. The
// answer to a release is what lets rank 0 close its links: a release
// still queued when they close would be dropped, and the worker would
// fail.
func collectWorkers(ctx context.Context, fabric *mpi.Cluster, now func() int64) (shipments, error) {
	var out shipments
	if now != nil {
		out.clocks = []trace.RankClock{{Rank: 0}}
	}
	var err error
	_ = fabric.NewWorld().RunCtx(ctx, func(c *mpi.Comm) error {
		err = eachLiveWorker(c, func(r int) error { return visitWorker(ctx, c, r, now, &out) })
		if err == nil {
			err = eachLiveWorker(c, func(r int) error { return ask(ctx, c, r, reqRelease, nil) })
		}
		return err
	})
	return out, err
}

// eachLiveWorker calls visit on each live worker in rank order. A worker
// that is dead, or dies during its visit, is skipped; any other error
// ends the walk.
func eachLiveWorker(c *mpi.Comm, visit func(r int) error) error {
	for r := 1; r < c.Size(); r++ {
		if !c.Alive(r) {
			continue
		}
		var de *mpi.RankDeadError
		if err := visit(r); err != nil && !errors.As(err, &de) {
			return err
		}
	}
	return nil
}

// visitWorker asks worker r for nothing, or, when now is set, samples its
// clock and takes its telemetry, adding both to out once all of it has
// arrived.
func visitWorker(ctx context.Context, c *mpi.Comm, r int, now func() int64, out *shipments) error {
	if now == nil {
		return ask(ctx, c, r, reqDone, nil)
	}
	clock, err := sampleClock(ctx, c, r, now)
	if err != nil {
		return err
	}
	var tel *trace.Telemetry
	err = ask(ctx, c, r, reqShip, func(b []byte) (err error) {
		if len(b) > 0 {
			tel, err = trace.DecodeTelemetry(b)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("rank %d telemetry: %w", r, err)
	}
	if tel != nil {
		out.telems = append(out.telems, tel)
	}
	out.clocks = append(out.clocks, clock)
	return nil
}

// ask sends worker r the request req and waits for its reply, which it
// hands to read (when set) and then releases.
func ask(ctx context.Context, c *mpi.Comm, r int, req byte, read func(b []byte) error) error {
	if err := send(c, r, tagRequest, []byte{req}); err != nil {
		return err
	}
	b, _, _, err := c.Recv(ctx, r, tagReply)
	if err == nil && read != nil {
		err = read(b)
	}
	mpi.PutBytes(b)
	return err
}

// sampleClock estimates worker r's clock offset against now: of
// clockRounds request/reply rounds it keeps the one with the smallest
// round trip and takes the worker's reading to fall at its midpoint, so
// the error is bounded by half that round trip.
func sampleClock(ctx context.Context, c *mpi.Comm, r int, now func() int64) (trace.RankClock, error) {
	out := trace.RankClock{Rank: r, RTTNS: math.MaxInt64}
	for i := 0; i < clockRounds; i++ {
		t0 := now()
		var t1, remote int64
		err := ask(ctx, c, r, reqClock, func(b []byte) error {
			t1 = now()
			if len(b) != 8 {
				return fmt.Errorf("rank %d: clock reply of %d bytes", r, len(b))
			}
			remote = int64(binary.LittleEndian.Uint64(b))
			return nil
		})
		if err != nil {
			return out, err
		}
		if rtt := t1 - t0; rtt < out.RTTNS {
			out.OffsetNS, out.RTTNS = t0+rtt/2-remote, rtt
		}
	}
	return out, nil
}

// serveLauncher is a worker's side of the finalize exchange: it answers
// each of rank 0's requests with its clock (now), tel's image (empty when
// tel is nil) or an empty reply, and returns once it has answered the
// release. It returns nil then, and otherwise the failure that ended the
// exchange, such as the loss of rank 0.
func serveLauncher(ctx context.Context, cluster *mpi.Cluster, tel *trace.Telemetry, now func() int64) error {
	var err error
	_ = cluster.NewWorld().RunCtx(ctx, func(c *mpi.Comm) error {
		for {
			var b []byte
			if b, _, _, err = c.Recv(ctx, 0, tagRequest); err != nil {
				return err
			}
			req := byte(0)
			if len(b) == 1 {
				req = b[0]
			}
			mpi.PutBytes(b)
			var reply []byte
			switch req {
			case reqClock:
				reply = binary.LittleEndian.AppendUint64(nil, uint64(now()))
			case reqShip:
				reply = telemetryImage(tel)
			case reqDone, reqRelease:
			default:
				err = fmt.Errorf("unknown finalize request %d", req)
				return err
			}
			if err = send(c, 0, tagReply, reply); err != nil || req == reqRelease {
				return err
			}
		}
	})
	return err
}

// telemetryImage is a worker's reply to reqShip: tel's JSON document, or
// nothing when tel is nil. json.Marshal refuses a non-finite float, so a
// snapshot whose registry holds one ships its events with an empty
// registry, and one that still does not marshal (a non-finite event arg)
// ships as the empty snapshot: encoding never fails the exchange.
func telemetryImage(tel *trace.Telemetry) []byte {
	if tel == nil {
		return nil
	}
	b, err := json.Marshal(tel)
	if err != nil {
		t := *tel
		t.Metrics = (*trace.Metrics)(nil).Snapshot()
		if b, err = json.Marshal(&t); err != nil {
			t.Tracks = nil
			b, _ = json.Marshal(&t)
		}
	}
	return b
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
