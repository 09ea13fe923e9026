package trace

// Cross-process trace merge. WriteMergedTrace folds the Telemetry
// snapshots of every process in a run into one Chrome trace-event file:
// each worker rank's track lands in its own pid, worker-side stage spans
// get a dedicated "stages" thread inside the rank's process (stage skew
// across processes becomes visible), audit checks that run beside the
// stages keep their own "audit" thread, and every remote timestamp is
// rebased into the launcher's clock with the per-rank offsets the
// launcher measured in its finalize exchange. The offsets themselves are
// recorded in the file's metadata object so a timeline can be audited
// after the fact.
//
// Determinism: snapshots are consumed in ascending host-rank order and
// the final ordering is a stable sort on the rebased timestamp, so the
// same inputs always produce byte-identical output (encoding/json
// already emits map keys sorted).

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// tidStages is the display thread for a worker process's own stage spans
// in a merged trace. Each process runs the SPMD pipeline redundantly, so
// every rank records root-track stage spans; in the merge they move into
// the rank's process under this thread instead of colliding with the
// launcher's root track.
const tidStages = 3

// RankClock is one rank's clock alignment against the merging process:
// adding OffsetNS to a timestamp recorded in that rank's tracer yields
// the equivalent timestamp in the merger's tracer. RTTNS is the round
// trip of the clock message exchange it was estimated from; half of it
// bounds the error.
type RankClock struct {
	Rank     int
	OffsetNS int64
	RTTNS    int64
}

// WriteMergedTrace writes the given telemetry snapshots as one Chrome
// trace-event file. clocks carries the per-rank offsets used to rebase
// remote timestamps (ranks without an entry rebase by zero — correct for
// the merger's own snapshot); transport, when non-empty, is recorded in
// the trace metadata alongside the offsets. Rebased timestamps are
// clamped at zero so a slightly-early remote event cannot fail the
// exporter's monotonicity-from-zero invariant.
func WriteMergedTrace(w io.Writer, telems []*Telemetry, clocks []RankClock, transport string) error {
	offsetOf := make(map[int]int64, len(clocks))
	for _, c := range clocks {
		offsetOf[c.Rank] = c.OffsetNS
	}

	ordered := make([]*Telemetry, 0, len(telems))
	for _, tel := range telems {
		if tel != nil {
			ordered = append(ordered, tel)
		}
	}
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Rank < ordered[j].Rank })

	type placedEvent struct {
		e   Event
		pid int
		tid int
	}
	var evs []placedEvent
	nranks := 0
	stageRanks := make(map[int]bool) // worker hosts whose stage track survived
	auditPIDs := make(map[int]bool)  // processes with an audit thread
	for _, tel := range ordered {
		if tel.Ranks > nranks {
			nranks = tel.Ranks
		}
		off := offsetOf[tel.Rank]
		for _, tr := range tel.Tracks {
			rootTrack := tr.Rank < 0
			pid := tr.Rank + 1
			if rootTrack {
				if tel.Rank == 0 {
					pid = 0
				} else {
					pid = tel.Rank + 1
					if len(tr.Events) > 0 {
						stageRanks[tel.Rank] = true
					}
				}
			}
			for _, e := range tr.Events {
				e.TS += off
				if e.TS < 0 {
					e.TS = 0
				}
				tid := tidFor(e.Cat)
				if rootTrack && tel.Rank != 0 && tid != tidAudit {
					tid = tidStages
				}
				if tid == tidAudit {
					auditPIDs[pid] = true
				}
				evs = append(evs, placedEvent{e: e, pid: pid, tid: tid})
			}
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].e.TS < evs[j].e.TS })
	// A steal arrow keeps both ends or neither: one end is missing when
	// the other rank's snapshot is (that rank did not trace, or died).
	unpaired := make(map[uint64]int)
	for _, pe := range evs {
		switch pe.e.Ph {
		case phFlowOut:
			unpaired[pe.e.ID]++
		case phFlowIn:
			unpaired[pe.e.ID]--
		}
	}

	out := jsonTrace{DisplayTimeUnit: "ms", TraceEvents: []jsonEvent{}}
	if transport != "" || len(clocks) > 0 {
		md := map[string]any{}
		if transport != "" {
			md["transport"] = transport
		}
		if len(clocks) > 0 {
			offs := map[string]any{}
			rtts := map[string]any{}
			for _, c := range clocks {
				key := strconv.Itoa(c.Rank)
				offs[key] = c.OffsetNS
				rtts[key] = c.RTTNS
			}
			md["clock_offsets_ns"] = offs
			md["clock_rtt_ns"] = rtts
		}
		out.Metadata = md
	}

	// Metadata events: name the processes and threads so the viewer
	// labels the tracks; sort indices keep root first and ranks in order.
	meta := func(pid int, kind, name string, tid int) {
		out.TraceEvents = append(out.TraceEvents, jsonEvent{
			Name: kind, Ph: "M", PID: pid, TID: tid, Args: map[string]any{"name": name},
		})
	}
	sortIdx := func(pid int) {
		out.TraceEvents = append(out.TraceEvents, jsonEvent{
			Name: "process_sort_index", Ph: "M", PID: pid,
			Args: map[string]any{"sort_index": pid},
		})
	}
	meta(0, "process_name", "root (pipeline)", 0)
	sortIdx(0)
	meta(0, "thread_name", "stages", tidMesher)
	if auditPIDs[0] {
		meta(0, "thread_name", "audit", tidAudit)
	}
	for r := 0; r < nranks; r++ {
		pid := r + 1
		meta(pid, "process_name", "rank "+strconv.Itoa(r), 0)
		sortIdx(pid)
		meta(pid, "thread_name", "mesher", tidMesher)
		meta(pid, "thread_name", "comm", tidComm)
		if stageRanks[r] {
			meta(pid, "thread_name", "stages", tidStages)
		}
		if auditPIDs[pid] {
			meta(pid, "thread_name", "audit", tidAudit)
		}
	}

	for _, pe := range evs {
		if (pe.e.Ph == phFlowOut || pe.e.Ph == phFlowIn) && unpaired[pe.e.ID] != 0 {
			continue
		}
		je := jsonEvent{
			Name: pe.e.Name,
			Cat:  pe.e.Cat,
			Ph:   string(rune(pe.e.Ph)),
			TS:   float64(pe.e.TS) / 1e3,
			PID:  pe.pid,
			TID:  pe.tid,
		}
		switch pe.e.Ph {
		case phSpan:
			d := float64(pe.e.Dur) / 1e3
			je.Dur = &d
		case phInstant:
			je.S = "t" // thread-scoped instant
		case phFlowOut:
			je.ID = pe.e.ID
		case phFlowIn:
			je.ID = pe.e.ID
			je.BP = "e" // bind to the enclosing slice
		}
		if len(pe.e.Args) > 0 {
			je.Args = make(map[string]any, len(pe.e.Args))
			for _, a := range pe.e.Args {
				je.Args[a.Key] = a.Val
			}
		}
		out.TraceEvents = append(out.TraceEvents, je)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}
