package loadbal

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"pamg2d/internal/mpi"
)

// TestTaskCodecRoundTrip is the property test for the steal-grant wire
// format: any task header survives encode→decode bit-exactly, in a frame
// of exactly WireBytes bytes.
func TestTaskCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		in := Task{
			ID:            rng.Int31(),
			Cost:          math.Abs(rng.NormFloat64()) * 1e4,
			BoundaryLayer: rng.Intn(2) == 1,
		}
		wire := encodeTaskRef(in, nil)
		if len(wire) != in.WireBytes() {
			t.Fatalf("iter %d: frame of %d bytes, WireBytes %d", i, len(wire), in.WireBytes())
		}
		ref, err := decodeTaskRef(wire)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", i, err)
		}
		if out := ref.(Task); out != in {
			t.Fatalf("iter %d: %+v -> %+v", i, in, out)
		}
	}
}

// TestTaskCodecRejectsMalformed: a grant header no process could send is
// refused — a frame of another length (the parent's vector form among
// them), a flag byte other than 0 or 1, a cost that is negative, NaN or
// infinite.
func TestTaskCodecRejectsMalformed(t *testing.T) {
	good := encodeTaskRef(Task{ID: 1, Cost: 2, BoundaryLayer: true}, nil)
	if _, err := decodeTaskRef(good); err != nil {
		t.Fatalf("a well-formed frame is refused: %v", err)
	}
	withCost := func(c float64) []byte { return encodeTaskRef(Task{ID: 1, Cost: c}, nil) }
	withFlag := func(f byte) []byte { b := slices.Clone(good); b[12] = f; return b }
	cases := map[string][]byte{
		"empty":          nil,
		"short header":   good[:10],
		"one byte short": good[:len(good)-1],
		"one byte long":  append(slices.Clone(good), 0),
		"vector form":    binary.LittleEndian.AppendUint64(append(slices.Clone(good), 1), math.Float64bits(0.5)),
		"flag byte 2":    withFlag(2),
		"flag byte 255":  withFlag(255),
		"negative cost":  withCost(-1),
		"NaN cost":       withCost(math.NaN()),
		"infinite cost":  withCost(math.Inf(1)),
		"-infinite cost": withCost(math.Inf(-1)),
	}
	for name, b := range cases {
		if _, err := decodeTaskRef(b); err == nil {
			t.Errorf("%s: decoder accepted malformed task", name)
		}
	}
}

// TestControlMessageRoundTrip: the task count, completion and
// grant-acknowledgement payloads decode to what was encoded, at the range
// bounds too, in pooled buffers of exactly 12, 4 and 8 bytes.
func TestControlMessageRoundTrip(t *testing.T) {
	const tasks, ranks = 1000, 7
	for _, n := range []int{0, 1, tasks, math.MaxInt32} {
		for _, d := range []uint64{0, 1, math.MaxUint64, listDigest(nil)} {
			b := countMsg(n, d)
			got, gotD, err := decodeCount(b)
			if err != nil || got != n || gotD != d || len(b) != 12 {
				t.Errorf("count of %d, digest %x: %d bytes decode to %d, %x, %v", n, d, len(b), got, gotD, err)
			}
			mpi.PutBytes(b)
		}
	}
	for _, id := range []int32{0, 1, 517, tasks - 1} {
		b := completeMsg(id)
		got, err := decodeComplete(b, tasks)
		if err != nil || got != id || len(b) != 4 {
			t.Errorf("completion of %d: %d bytes decode to %d, %v", id, len(b), got, err)
		}
		mpi.PutBytes(b)
		for _, owner := range []int{0, 3, ranks - 1} {
			b := movedMsg(id, owner)
			gotID, gotOwner, err := decodeMoved(b, tasks, ranks)
			if err != nil || gotID != id || int(gotOwner) != owner || len(b) != 8 {
				t.Errorf("grant of %d to %d: %d bytes decode to %d, %d, %v", id, owner, len(b), gotID, gotOwner, err)
			}
			mpi.PutBytes(b)
		}
	}
}

func TestControlMessageRejectsMalformed(t *testing.T) {
	const tasks, ranks = 10, 3
	le := func(v ...int32) []byte {
		var b []byte
		for _, x := range v {
			b = binary.LittleEndian.AppendUint32(b, uint32(x))
		}
		return b
	}
	complete := map[string][]byte{
		"empty":            nil,
		"short":            le(1)[:3],
		"long":             le(1, 0),
		"id out of range":  le(tasks),
		"negative id":      le(-1),
		"eight-byte float": binary.LittleEndian.AppendUint64(nil, math.Float64bits(3)),
	}
	for name, b := range complete {
		if _, err := decodeComplete(b, tasks); err == nil {
			t.Errorf("completion %s: decoder accepted %v", name, b)
		}
	}
	count := map[string][]byte{
		"empty":          nil,
		"count alone":    le(1),
		"short":          le(1, 2, 3)[:11],
		"long":           le(1, 2, 3, 0),
		"negative count": le(-1, 2, 3),
	}
	for name, b := range count {
		if _, _, err := decodeCount(b); err == nil {
			t.Errorf("task count %s: decoder accepted %v", name, b)
		}
	}
	moved := map[string][]byte{
		"empty":              nil,
		"short":              le(1, 2)[:7],
		"long":               le(1, 2, 0),
		"id out of range":    le(tasks, 1),
		"negative id":        le(-1, 1),
		"owner out of range": le(1, ranks),
		"negative owner":     le(1, -1),
	}
	for name, b := range moved {
		if _, _, err := decodeMoved(b, tasks, ranks); err == nil {
			t.Errorf("grant acknowledgement %s: decoder accepted %v", name, b)
		}
	}
}

// TestLedgerRequeuesInIDOrder: a dead rank's unfinished tasks come back in
// ascending ID order whatever order they were dealt in, without the ones
// it completed or granted away, and the ledger then names the survivor
// as their owner.
func TestLedgerRequeuesInIDOrder(t *testing.T) {
	deal := [][]Task{
		{{ID: 0}, {ID: 3}},
		{{ID: 1}, {ID: 4}},
		{{ID: 11}, {ID: 2}, {ID: 8}, {ID: 5}, {ID: 9}, {ID: 6}, {ID: 10}, {ID: 7}},
	}
	led := newLedger(deal, 12)
	note := func(tag int, b []byte) bool {
		t.Helper()
		first, err := led.note(tag, b, len(deal))
		if err != nil {
			t.Fatal(err)
		}
		mpi.PutBytes(b)
		return first
	}
	if !note(tagComplete, completeMsg(8)) || note(tagComplete, completeMsg(8)) {
		t.Error("a task's second completion counted as its first")
	}
	note(tagMoved, movedMsg(5, 1)) // rank 2 granted task 5 to rank 1
	note(tagMoved, movedMsg(4, 2)) // and got task 4 from rank 1

	var ids []int32
	for _, tk := range led.requeue(2, 0) {
		ids = append(ids, tk.ID)
	}
	if want := []int32{2, 4, 6, 7, 9, 10, 11}; !slices.Equal(ids, want) {
		t.Errorf("re-queued %v, want %v", ids, want)
	}
	if again := led.requeue(2, 0); len(again) != 0 {
		t.Errorf("a second requeue of rank 2 returned %d tasks", len(again))
	}
	if moved := led.requeue(0, 1); len(moved) != 9 {
		t.Errorf("rank 0 owns %d tasks after the requeue, want 9 (2 dealt, 7 inherited)", len(moved))
	}
}

// TestStealingOverTCP runs the total-imbalance scenario across a loopback
// TCP cluster: all work starts on rank 0's process and the other
// processes must steal it over the wire — grants serialize through the
// Task codec, the load table crosses via window frames, and termination
// fans out from the root. Every pooled control-message buffer comes back
// once the clusters close.
func TestStealingOverTCP(t *testing.T) {
	const ranks = 3
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	g0, p0 := mpi.PoolCounters()
	clusters, err := mpi.LoopbackClusters(ctx, ranks)
	if err != nil {
		t.Fatalf("LoopbackClusters: %v", err)
	}
	closeAll := func() {
		for _, cl := range clusters {
			cl.Close()
		}
	}
	defer closeAll()

	const total = 24
	var mu sync.Mutex
	processed := map[int32]int{}
	perRank := make([]int, ranks)
	stats := make([]Stats, ranks)
	errs := make([]error, ranks)

	var wg sync.WaitGroup
	for i, cl := range clusters {
		wg.Add(1)
		go func(i int, cl *mpi.Cluster) {
			defer wg.Done()
			w := cl.NewWorld()
			errs[i] = w.RunCtx(ctx, func(c *mpi.Comm) error {
				var initial []Task
				if c.Rank() == 0 {
					for k := int32(0); k < total; k++ {
						initial = append(initial, Task{ID: k, Cost: 20 + float64(k), BoundaryLayer: k%2 == 0})
					}
				}
				win := w.NewWindow(c.Size())
				st, err := Run(ctx, c, win, initial, total,
					Options{StealBelow: 30, Poll: 100 * time.Microsecond},
					func(task Task) {
						time.Sleep(2 * time.Millisecond) // keep rank 0 busy enough to be robbed
						if task.Cost != 20+float64(task.ID) || task.BoundaryLayer != (task.ID%2 == 0) {
							t.Errorf("task %d arrived as %+v", task.ID, task)
						}
						mu.Lock()
						processed[task.ID]++
						perRank[c.Rank()]++
						mu.Unlock()
					})
				stats[c.Rank()] = st
				return err
			})
		}(i, cl)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	for k := int32(0); k < total; k++ {
		if processed[k] != 1 {
			t.Errorf("task %d processed %d times, want exactly once", k, processed[k])
		}
	}
	stolen := 0
	busy := 0
	for r := 0; r < ranks; r++ {
		stolen += stats[r].StealsGotten
		if perRank[r] > 0 {
			busy++
		}
	}
	if stolen == 0 {
		t.Error("no tasks crossed the wire despite total imbalance")
	}
	if busy < 2 {
		t.Errorf("only %d processes did any work", busy)
	}
	closeAll()
	if g1, p1 := mpi.PoolCounters(); g1-g0 != p1-p0 {
		t.Errorf("pool imbalance over the run: %d gets, %d puts", g1-g0, p1-p0)
	}
}

// TestRecoveryOverTCP kills one worker of a 3-process loopback fabric
// mid-run and checks the balancer completes on the survivors: the root
// re-queues the dead rank's unfinished tasks (at-least-once semantics),
// every task executes, and the recovery counters land in the root's
// stats.
func TestRecoveryOverTCP(t *testing.T) {
	const ranks = 3
	const total = 12
	const victim = 2
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	clusters, err := mpi.LoopbackClusters(ctx, ranks)
	if err != nil {
		t.Fatalf("LoopbackClusters: %v", err)
	}
	byRank := make([]*mpi.Cluster, ranks)
	for _, cl := range clusters {
		byRank[cl.Rank()] = cl
	}
	defer func() {
		for r, cl := range byRank {
			if r != victim {
				cl.Close()
			}
		}
	}()

	// Every process computes the identical deal (the SPMD contract) and
	// the root additionally learns the ownership map from it.
	initial := make([][]Task, ranks)
	for i := 0; i < total; i++ {
		tk := Task{ID: int32(i), Cost: 20}
		initial[i%ranks] = append(initial[i%ranks], tk)
	}
	opt := Options{StealBelow: 1, Poll: 100 * time.Microsecond, deal: initial}

	victimStarted := make(chan struct{})
	var startOnce sync.Once
	var mu sync.Mutex
	processed := map[int32]int{}
	stats := make([]Stats, ranks)
	errs := make([]error, ranks)

	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int, cl *mpi.Cluster) {
			defer wg.Done()
			w := cl.NewWorld()
			errs[r] = w.RunCtx(ctx, func(c *mpi.Comm) error {
				win := w.NewWindow(c.Size())
				st, err := Run(ctx, c, win, initial[c.Rank()], total, opt, func(task Task) {
					if c.Rank() == victim {
						// Park so the kill lands while this rank still owns
						// unfinished work; the signal fires before the sleep so
						// the in-flight task is never completed by the victim.
						startOnce.Do(func() { close(victimStarted) })
						time.Sleep(30 * time.Millisecond)
					}
					mu.Lock()
					processed[task.ID]++
					mu.Unlock()
				})
				mu.Lock()
				stats[c.Rank()] = st
				mu.Unlock()
				return err
			})
		}(r, byRank[r])
	}

	<-victimStarted
	// SIGKILL stand-in: the victim's process vanishes mid-task.
	byRank[victim].Close()
	wg.Wait()

	for r, err := range errs {
		if r != victim && err != nil {
			t.Fatalf("survivor %d: %v", r, err)
		}
	}
	for i := 0; i < total; i++ {
		if processed[int32(i)] < 1 {
			t.Errorf("task %d never processed", i)
		}
	}
	mu.Lock()
	root := stats[0]
	mu.Unlock()
	if root.RanksLost != 1 {
		t.Errorf("root RanksLost = %d, want 1", root.RanksLost)
	}
	if root.Requeued < 1 {
		t.Errorf("root Requeued = %d, want >= 1", root.Requeued)
	}
	if root.RecoveryTime <= 0 {
		t.Errorf("root RecoveryTime = %v, want > 0", root.RecoveryTime)
	}
}
