package mpi

import (
	"context"
	"testing"
	"time"
)

// TestTCPClockSync pings across a loopback cluster with deliberately
// skewed per-node clocks and checks the midpoint estimator recovers the
// skew. Loopback RTTs are microseconds while the injected skews are
// seconds, so a generous tolerance still pins the estimate to the right
// clock.
func TestTCPClockSync(t *testing.T) {
	clusters := byRank(loopback(t, 3))
	base := time.Now()
	skews := []int64{0, 5_000_000_000, -3_000_000_000}
	for _, cl := range clusters {
		skew := skews[cl.Rank()]
		cl.SetNowFunc(func() int64 { return int64(time.Since(base)) + skew })
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	offsets, err := clusters[0].MeasureOffsets(ctx, 5)
	if err != nil {
		t.Fatalf("MeasureOffsets: %v", err)
	}
	if len(offsets) != 3 {
		t.Fatalf("got %d offsets, want 3", len(offsets))
	}
	const tol = int64(200 * time.Millisecond)
	for r, cs := range offsets {
		if cs.Rank != r {
			t.Errorf("offset %d labeled rank %d", r, cs.Rank)
		}
		want := skews[0] - skews[r] // remote ts + offset = local ts
		if diff := cs.OffsetNS - want; diff < -tol || diff > tol {
			t.Errorf("rank %d: offset %d, want %d±%d", r, cs.OffsetNS, want, tol)
		}
		if r == 0 && (cs.OffsetNS != 0 || cs.RTTNS != 0) {
			t.Errorf("own rank offset not zero: %+v", cs)
		}
		if r != 0 && cs.RTTNS < 0 {
			t.Errorf("rank %d: negative RTT %d", r, cs.RTTNS)
		}
	}
	if _, err := clusters[0].pingRank(ctx, 99, 1); err == nil {
		t.Error("pingRank accepted out-of-range rank")
	}
}

// byRank reorders loopback clusters so index i hosts rank i (the join
// handshake assigns ranks in connection order, not construction order).
func byRank(clusters []*Cluster) []*Cluster {
	out := make([]*Cluster, len(clusters))
	for _, cl := range clusters {
		out[cl.Rank()] = cl
	}
	return out
}

// TestTCPTelemetryShipping sends a codec-typed payload from each worker
// rank before a barrier and checks rank 0 holds all of them once the
// barrier releases — the FIFO-before-barrier guarantee the launcher's
// trace collection leans on.
func TestTCPTelemetryShipping(t *testing.T) {
	clusters := byRank(loopback(t, 3))
	errs := runSPMD(context.Background(), clusters, func(c *Comm) error {
		if c.Rank() != 0 {
			payload := []byte{byte(c.Rank()), 2, 3}
			if err := clusters[c.Rank()].SendTelemetry(payload); err != nil {
				return err
			}
		}
		return c.Barrier()
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	items := clusters[0].Telemetry()
	if len(items) != 2 {
		t.Fatalf("rank 0 collected %d telemetry items, want 2", len(items))
	}
	seen := map[int]bool{}
	for _, it := range items {
		b, ok := it.Payload.([]byte)
		if !ok || len(b) != 3 || int(b[0]) != it.Rank {
			t.Fatalf("item from rank %d decoded wrong: %#v", it.Rank, it.Payload)
		}
		PutBytes(b)
		seen[it.Rank] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("missing ranks in telemetry: %v", seen)
	}
	if again := clusters[0].Telemetry(); len(again) != 0 {
		t.Errorf("second drain returned %d items, want 0", len(again))
	}
	if err := clusters[0].SendTelemetry([]byte{9}); err != nil {
		t.Errorf("rank 0 SendTelemetry should no-op: %v", err)
	}
	if err := clusters[1].SendTelemetry(struct{ X int }{}); err == nil {
		t.Error("SendTelemetry accepted an unregistered payload type")
	}
}

// TestInProcessTelemetryNoops pins the in-process cluster contract:
// offsets are all zero (one address space, one clock), telemetry is a
// local no-op, and SetNowFunc is safe to call.
func TestInProcessTelemetryNoops(t *testing.T) {
	cl := InProcess(4)
	cl.SetNowFunc(func() int64 { return 42 })
	offsets, err := cl.MeasureOffsets(context.Background(), 3)
	if err != nil {
		t.Fatalf("MeasureOffsets: %v", err)
	}
	if len(offsets) != 4 {
		t.Fatalf("got %d offsets, want 4", len(offsets))
	}
	for _, cs := range offsets {
		if cs.OffsetNS != 0 || cs.RTTNS != 0 {
			t.Errorf("in-process offset not zero: %+v", cs)
		}
	}
	if err := cl.SendTelemetry([]byte{1}); err != nil {
		t.Errorf("SendTelemetry: %v", err)
	}
	if items := cl.Telemetry(); items != nil {
		t.Errorf("Telemetry returned %v, want nil", items)
	}
}
