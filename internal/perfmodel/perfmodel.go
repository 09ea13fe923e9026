// Package perfmodel is the discrete-event performance model standing in
// for the paper's 32-node Infiniband cluster: no host this reproduction
// is measured on has its 256 ranks. The simulator replays measured
// per-subdomain meshing costs through the paper's scheduling policy —
// per-rank priority queues, largest-first processing, work stealing from
// the most loaded rank when a rank runs dry — under a latency/bandwidth
// communication model, producing the strong-scaling speedup and
// efficiency curves of Figures 11 and 12. The curve shape is governed by
// load imbalance, steal traffic and the sequential fraction, which the
// caller measures (core.Stats.SerialTime); absolute seconds are whatever
// the calibration run measured.
package perfmodel

import (
	"fmt"
	"math"
	"sort"
)

// Task is one unit of meshing work for the simulator.
type Task struct {
	// Cost is the processing time in seconds (measured by running the real
	// kernel on the subdomain, or scaled from a triangle-count estimate).
	Cost float64
	// Bytes is the transfer size when the task moves between ranks.
	Bytes int64
	// BoundaryLayer tasks are processed before inviscid tasks.
	BoundaryLayer bool
}

// Network is the communication cost model: Latency seconds per message
// plus Bytes/Bandwidth seconds of serialization. The paper's 4X FDR
// Infiniband is roughly 1.5 microseconds and 56 Gbit/s.
type Network struct {
	Latency   float64
	Bandwidth float64 // bytes per second
}

// FDRInfiniband approximates the evaluation cluster's interconnect.
func FDRInfiniband() Network {
	return Network{Latency: 1.5e-6, Bandwidth: 56e9 / 8}
}

// Result summarizes one simulated run.
type Result struct {
	Ranks    int
	Makespan float64 // wall time, including the sequential fraction
	Steals   int
}

// Simulate runs the schedule of tasks on the given number of ranks.
// seqTime is the non-overlappable sequential fraction, the root-side time
// no rank count removes; it is added to the makespan. Tasks are dealt round-robin by descending cost, which
// mirrors the pipeline's initial distribution.
func Simulate(tasks []Task, ranks int, net Network, seqTime float64) Result {
	return SimulatePolicy(tasks, ranks, net, seqTime, Policy{LargestFirst: true, Prefetch: true})
}

// Policy selects the scheduling behaviors whose value the paper argues
// for; the ablation benchmarks flip them off individually.
type Policy struct {
	// LargestFirst processes each queue in descending cost order with
	// boundary-layer tasks first (the paper's priority queue); false is
	// plain FIFO.
	LargestFirst bool
	// Prefetch overlaps steal communication with the victim-side mesher:
	// the communicator thread requests work before the mesher runs dry, so
	// the transfer hides behind the rank's last task. False models a
	// single-threaded design where the mesher blocks for the transfer.
	Prefetch bool
}

// SimulatePolicy runs the schedule under an explicit policy.
func SimulatePolicy(tasks []Task, ranks int, net Network, seqTime float64, pol Policy) Result {
	if ranks < 1 {
		ranks = 1
	}
	res := Result{Ranks: ranks}
	if ranks == 1 {
		for _, t := range tasks {
			res.Makespan += t.Cost
		}
		res.Makespan += seqTime
		return res
	}

	// Initial distribution: largest first, round-robin. Queues keep tasks
	// sorted by priority (boundary layer first, then cost descending).
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	if pol.LargestFirst {
		sort.Slice(order, func(a, b int) bool {
			ta, tb := tasks[order[a]], tasks[order[b]]
			if ta.BoundaryLayer != tb.BoundaryLayer {
				return ta.BoundaryLayer
			}
			return ta.Cost > tb.Cost
		})
	}
	queues := make([][]int, ranks)
	for i, ti := range order {
		r := i % ranks
		queues[r] = append(queues[r], ti)
	}

	now := make([]float64, ranks) // per-rank clock
	lastCost := make([]float64, ranks)
	remaining := make([]float64, ranks)
	for r, q := range queues {
		for _, ti := range q {
			remaining[r] += tasks[ti].Cost
		}
	}
	left := len(tasks)
	for left > 0 {
		// Pick the rank that will act next: the earliest-clock rank that
		// either has work or can steal.
		r := -1
		for i := 0; i < ranks; i++ {
			if r == -1 || now[i] < now[r] {
				r = i
			}
		}
		if len(queues[r]) > 0 {
			ti := queues[r][0]
			queues[r] = queues[r][1:]
			now[r] += tasks[ti].Cost
			lastCost[r] = tasks[ti].Cost
			remaining[r] -= tasks[ti].Cost
			left--
			continue
		}
		// Steal: ask the most loaded rank (by remaining estimate) for its
		// top task. The requester pays two latencies (request + grant) plus
		// the transfer; the victim's communicator thread serves the request
		// without interrupting its mesher, per the paper's two-thread
		// design.
		victim := -1
		for i := 0; i < ranks; i++ {
			if i == r || len(queues[i]) == 0 {
				continue
			}
			if victim == -1 || remaining[i] > remaining[victim] {
				victim = i
			}
		}
		if victim == -1 {
			// Nothing to steal; this rank is done. Park it at +inf so it
			// is never selected again.
			now[r] = math.Inf(1)
			continue
		}
		// Steal the victim's largest queued task (head of its queue).
		ti := queues[victim][0]
		queues[victim] = queues[victim][1:]
		remaining[victim] -= tasks[ti].Cost
		t := tasks[ti]
		comm := 2*net.Latency + float64(t.Bytes)/net.Bandwidth
		res.Steals++
		delay := comm
		if pol.Prefetch {
			// The communicator issued the request while the mesher was
			// still busy on the rank's previous task, so only the part of
			// the transfer that outlasts it delays the mesher.
			delay = comm - lastCost[r]
			if delay < 0 {
				delay = 0
			}
		}
		now[r] += delay + t.Cost
		lastCost[r] = t.Cost
		left--
	}
	makespan := 0.0
	for _, t := range now {
		if !math.IsInf(t, 1) && t > makespan {
			makespan = t
		}
	}
	res.Makespan = seqTime + makespan
	return res
}

// ScalePoint is one point of a strong-scaling study.
type ScalePoint struct {
	Ranks      int     `json:"ranks"`
	Time       float64 `json:"time_s"`
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
}

// StrongScaling simulates the fixed workload at every rank count and
// reports speedup and efficiency relative to the best sequential time
// (the paper's definition: speedup against the fastest sequential mesher,
// here the kernel's sequential time = total work without any parallel
// overhead).
func StrongScaling(tasks []Task, seqTime float64, net Network, rankCounts []int) []ScalePoint {
	var work float64
	for _, t := range tasks {
		work += t.Cost
	}
	tSeq := seqTime + work
	out := make([]ScalePoint, 0, len(rankCounts))
	for _, p := range rankCounts {
		r := Simulate(tasks, p, net, seqTime)
		sp := tSeq / r.Makespan
		out = append(out, ScalePoint{
			Ranks:      p,
			Time:       r.Makespan,
			Speedup:    sp,
			Efficiency: sp / float64(p),
		})
	}
	return out
}

// FormatTable renders scale points as the rows of Figures 11 and 12.
func FormatTable(points []ScalePoint) string {
	s := fmt.Sprintf("%8s %12s %10s %10s\n", "ranks", "time(s)", "speedup", "efficiency")
	for _, p := range points {
		s += fmt.Sprintf("%8d %12.4f %10.2f %9.1f%%\n", p.Ranks, p.Time, p.Speedup, 100*p.Efficiency)
	}
	return s
}
