package loadbal

// Steal-flow tracing: a forced-imbalance run must record grant spans on
// the victim's comm track, stolen spans on the thief's, and flow arrows
// pairing them by id so Perfetto draws the task's journey between ranks.

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"pamg2d/internal/mpi"
	"pamg2d/internal/trace"
)

func TestStealFlowsTraced(t *testing.T) {
	// All work starts on rank 0 with a steal threshold high enough that
	// rank 1 asks immediately; the sleep keeps rank 0's queue non-empty
	// long enough for grants to happen.
	const ranks = 2
	dist := make([][]Task, ranks)
	for k := int32(0); k < 16; k++ {
		dist[0] = append(dist[0], Task{ID: k, Cost: 20})
	}
	tr := trace.New(ranks)
	world := mpi.NewWorld(ranks)
	world.SetTracer(tr)
	win := world.NewWindow(ranks)
	opt := Options{StealBelow: 30, Poll: 100 * time.Microsecond, Tracer: tr}
	statsOut := make([]Stats, ranks)
	var mu sync.Mutex
	err := world.RunCtx(context.Background(), func(c *mpi.Comm) error {
		st, rerr := Run(context.Background(), c, win, dist[c.Rank()], 16, opt, func(task Task) {
			time.Sleep(time.Duration(task.Cost) * 10 * time.Microsecond)
		})
		if rerr != nil {
			t.Errorf("rank %d: %v", c.Rank(), rerr)
		}
		mu.Lock()
		statsOut[c.Rank()] = st
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stolen := 0
	for _, s := range statsOut {
		stolen += s.StealsGotten
	}
	if stolen == 0 {
		t.Skip("no steals happened this run; nothing to trace")
	}

	if n := tr.OpenSpans(); n != 0 {
		t.Errorf("%d spans left open", n)
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	var tj struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			PID  float64 `json:"pid"`
			ID   uint64  `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tj); err != nil {
		t.Fatal(err)
	}
	grants, stolenSpans := 0, 0
	outIDs := map[uint64]int{}
	inIDs := map[uint64]int{}
	for _, e := range tj.TraceEvents {
		switch {
		case e.Ph == "X" && e.Cat == trace.CatSteal && e.Name == "grant":
			grants++
			if e.PID != 1 { // pid = rank+1; all tasks start on rank 0
				t.Errorf("grant span on pid %v, want the victim's track 1", e.PID)
			}
		case e.Ph == "X" && e.Cat == trace.CatSteal && e.Name == "stolen":
			stolenSpans++
		case e.Ph == "s" && e.Name == "steal":
			outIDs[e.ID]++
		case e.Ph == "f" && e.Name == "steal":
			inIDs[e.ID]++
		}
	}
	if grants < stolen {
		t.Errorf("%d grant spans for %d stolen tasks", grants, stolen)
	}
	if stolenSpans != stolen {
		t.Errorf("%d stolen spans for %d stolen tasks", stolenSpans, stolen)
	}
	if len(outIDs) == 0 {
		t.Fatal("no steal flow-start events")
	}
	for id, n := range outIDs {
		if inIDs[id] != n {
			t.Errorf("flow id %#x: %d starts, %d finishes", id, n, inIDs[id])
		}
	}
	for id := range inIDs {
		if _, ok := outIDs[id]; !ok {
			t.Errorf("flow id %#x finishes without a start", id)
		}
	}
}
