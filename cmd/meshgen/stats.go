package main

// The run report's per-rank and degradation sections. Both read the run's
// own core.Stats, which on rank 0 is the whole run's record at every
// transport: each worker's counters reach it on the agreement that ends
// every distributed stage.

import (
	"fmt"
	"io"
	"time"

	"pamg2d/internal/core"
)

// printRanks writes one line per rank: the tasks it ran, its busy time and
// its steals, summed over the distributed stages' Ranks. A rank that died
// mid-run keeps what it reported before it died.
func printRanks(w io.Writer, st *core.Stats) {
	var ranks []core.RankStat
	for _, s := range st.Stages {
		for i, r := range s.Ranks {
			if i == len(ranks) {
				ranks = append(ranks, core.RankStat{Rank: i})
			}
			ranks[i].Tasks += r.Tasks
			ranks[i].Busy += r.Busy
			ranks[i].StealsGotten += r.StealsGotten
			ranks[i].StealsGranted += r.StealsGranted
		}
	}
	for _, r := range ranks {
		fmt.Fprintf(w, "rank %-2d              %d tasks, %.2fs busy, steals %d got / %d granted\n",
			r.Rank, r.Tasks, r.Busy.Seconds(), r.StealsGotten, r.StealsGranted)
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
// run itself recorded, not the fabric's current view: once the finalize
// exchange releases them the surviving workers exit and their link EOFs
// are declared as deaths too, which would misreport a clean shutdown.
func reportDeaths(w io.Writer, st *core.Stats) {
	for _, d := range st.Resilience.Deaths {
		fmt.Fprintf(w, "meshgen: rank %d died at %s (%s); completed on the survivors (%d task(s) re-queued)\n",
			d.Rank, d.At.Format("15:04:05.000"), d.Cause, st.Resilience.TasksRequeued)
	}
}
