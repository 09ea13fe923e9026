package main

// Per-process run-summary aggregation for multi-process runs. Each worker
// ships a compact summary of its own Stats to the launcher over the
// telemetry channel (a versioned little-endian []byte payload, wire codec
// mpi.CodecBytes) just before the finalize barrier; FIFO frame delivery
// guarantees the launcher holds every survivor's summary once the barrier
// releases. The launcher merges them with its own rank-0 summary into the
// final report, so the per-rank tasks/wire/steal numbers cover the whole
// process tree instead of just rank 0.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"pamg2d/internal/core"
)

// statsWireVersion stamps the summary so a launcher never misparses a
// foreign []byte telemetry payload or another layout. Versions 1 and 2
// were float64 vectors.
const statsWireVersion = 3

// statsWireLen is the summary's size: six u32s (version, rank, tasks and
// the three steal counts), then msgs and bytes as u64s and the busy and
// idle seconds as float64 bits.
const statsWireLen = 6*4 + 4*8

// rankSummary is one process's run summary, as shipped on the wire.
type rankSummary struct {
	rank         int
	tasks        int
	busySeconds  float64
	msgs         int64
	bytes        int64
	stealReq     int
	stealGranted int
	stealGotten  int
	idleSeconds  float64
}

// summarizeRankStats reduces one process's Stats to its local summary.
// Task measures are recorded only on the executing process, so counting
// the non-zero entries yields the tasks this rank ran.
func summarizeRankStats(rank int, st *core.Stats) rankSummary {
	rs := rankSummary{
		rank:         rank,
		msgs:         st.Messages,
		bytes:        st.BytesOnWire,
		stealReq:     st.Steals.Requests,
		stealGranted: st.Steals.Granted,
		stealGotten:  st.Steals.Gotten,
		idleSeconds:  st.Steals.Idle.Seconds(),
	}
	for _, m := range st.Tasks {
		if m.Seconds > 0 || m.Triangles > 0 {
			rs.tasks++
			rs.busySeconds += m.Seconds
		}
	}
	return rs
}

// encodeRankStats lays the summary out as the telemetry payload.
func encodeRankStats(rank int, st *core.Stats) []byte {
	rs := summarizeRankStats(rank, st)
	b := make([]byte, 0, statsWireLen)
	for _, v := range []int{statsWireVersion, rs.rank, rs.tasks, rs.stealReq, rs.stealGranted, rs.stealGotten} {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(rs.msgs))
	b = binary.LittleEndian.AppendUint64(b, uint64(rs.bytes))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rs.busySeconds))
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(rs.idleSeconds))
}

// decodeRankStats parses a telemetry payload back into a summary; ok is
// false for payloads that are not a current-version summary.
func decodeRankStats(b []byte) (rankSummary, bool) {
	if len(b) != statsWireLen || binary.LittleEndian.Uint32(b) != statsWireVersion {
		return rankSummary{}, false
	}
	i32 := func(i int) int { return int(int32(binary.LittleEndian.Uint32(b[4*i:]))) }
	u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }
	return rankSummary{
		rank:         i32(1),
		tasks:        i32(2),
		stealReq:     i32(3),
		stealGranted: i32(4),
		stealGotten:  i32(5),
		msgs:         int64(u64(24)),
		bytes:        int64(u64(32)),
		busySeconds:  math.Float64frombits(u64(40)),
		idleSeconds:  math.Float64frombits(u64(48)),
	}, true
}

// printRankStats writes the per-rank section of the final report: the
// launcher's own summary merged with every worker summary that arrived,
// in rank order. Ranks that died mid-run simply have no line — their
// summary never shipped.
func printRankStats(w io.Writer, own rankSummary, workers []rankSummary) {
	all := append([]rankSummary{own}, workers...)
	sort.Slice(all, func(i, j int) bool { return all[i].rank < all[j].rank })
	for _, rs := range all {
		fmt.Fprintf(w, "rank %-2d              %d tasks, %.2fs busy, %d msgs, %d B wire, steals %d got / %d granted\n",
			rs.rank, rs.tasks, rs.busySeconds, rs.msgs, rs.bytes, rs.stealGotten, rs.stealGranted)
	}
}

// printResilience writes the degradation section: which ranks died, when
// and why, and what the recovery cost.
func printResilience(w io.Writer, st *core.Stats) {
	r := st.Resilience
	fmt.Fprintf(w, "resilience           %d rank(s) lost, %d task(s) re-queued, recovery %v\n",
		r.RanksLost, r.TasksRequeued, r.RecoveryWall.Round(time.Millisecond))
	for _, d := range r.Deaths {
		fmt.Fprintf(w, "  rank %-2d died       %s: %s\n",
			d.Rank, d.At.Format("15:04:05.000"), d.Cause)
	}
}

// reportDeaths prints the operational warning for a degraded run; it goes
// to stderr even in quiet mode — a silently shrunken fabric is the one
// thing an operator always wants to know about. It reads the deaths the
// run itself recorded, not the fabric's current view: after the finalize
// barrier the surviving workers exit and their link EOFs are declared as
// deaths too, which would misreport a clean shutdown.
func reportDeaths(w io.Writer, st *core.Stats) {
	for _, d := range st.Resilience.Deaths {
		fmt.Fprintf(w, "meshgen: rank %d died at %s (%s); completed on the survivors (%d task(s) re-queued)\n",
			d.Rank, d.At.Format("15:04:05.000"), d.Cause, st.Resilience.TasksRequeued)
	}
}
