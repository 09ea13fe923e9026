package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pamg2d/internal/mpi"
	"pamg2d/internal/trace"
)

// TestMain doubles as the worker re-exec entry point: the launcher spawns
// os.Executable(), which under `go test` is the test binary, with
// workerEnv set. Dispatch those invocations into run() so the end-to-end
// launcher tests exercise real separate processes.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
			os.Stderr.WriteString("meshgen worker: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRunTCPMatchesInProcess is the CLI acceptance gate for the TCP
// transport: `meshgen -transport tcp -ranks 2` (launcher + one spawned
// worker process) must write exactly the bytes of the in-process run with
// the same flags, with the audit stage on in both.
func TestRunTCPMatchesInProcess(t *testing.T) {
	dir := t.TempDir()
	inproc := filepath.Join(dir, "inproc.bin")
	overTCP := filepath.Join(dir, "tcp.bin")

	base := []string{
		"-n", "24", "-farfield", "6", "-ranks", "2",
		"-h0", "0.08", "-hmax", "2", "-bl-h0", "3e-3", "-bl-layers", "8",
		"-format", "binary", "-audit", "-q",
	}
	var errb bytes.Buffer
	if err := run(context.Background(), append(base, "-o", inproc), &bytes.Buffer{}, &errb); err != nil {
		t.Fatalf("in-process run: %v\n%s", err, errb.String())
	}
	errb.Reset()
	if err := run(context.Background(), append(base, "-transport", "tcp", "-o", overTCP), &bytes.Buffer{}, &errb); err != nil {
		t.Fatalf("tcp run: %v\n%s", err, errb.String())
	}

	a, err := os.ReadFile(inproc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(overTCP)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("in-process run wrote an empty mesh")
	}
	if !bytes.Equal(a, b) {
		t.Errorf("tcp mesh (%d bytes) differs from in-process mesh (%d bytes)", len(b), len(a))
	}
}

// TestRunTCPHandJoinedWorkers: with -spawn 0 the launcher forks nothing
// and waits for the workers to join by themselves, which is how remote or
// debugger-wrapped workers attach. Both roles run in this process (the
// TCP fabric does not care), and the launcher's mesh must match the
// in-process run byte for byte. The launcher's flags alone decide what
// the finalize exchange asks for: a launcher with -trace and a worker
// without it still complete, and the trace holds the worker's clock but
// none of its spans.
func TestRunTCPHandJoinedWorkers(t *testing.T) {
	dir := t.TempDir()
	inproc := filepath.Join(dir, "inproc.bin")
	base := []string{
		"-n", "24", "-farfield", "6", "-ranks", "2",
		"-h0", "0.08", "-hmax", "2", "-bl-h0", "3e-3", "-bl-layers", "8",
		"-format", "binary", "-audit", "-q",
	}
	var errb bytes.Buffer
	if err := run(context.Background(), append(base, "-o", inproc), &bytes.Buffer{}, &errb); err != nil {
		t.Fatalf("in-process run: %v\n%s", err, errb.String())
	}
	want, err := os.ReadFile(inproc)
	if err != nil {
		t.Fatal(err)
	}

	for _, traced := range []bool{false, true} {
		overTCP := filepath.Join(dir, fmt.Sprintf("tcp-%v.bin", traced))
		tracePath := filepath.Join(dir, "launcher.trace.json")
		launcherArgs := append(base, "-transport", "tcp", "-spawn", "0", "-o", overTCP)
		if traced {
			launcherArgs = append(launcherArgs, "-trace", tracePath)
		}
		handJoin(t, launcherArgs, base)
		if got, err := os.ReadFile(overTCP); err != nil || !bytes.Equal(got, want) {
			t.Errorf("traced=%v: hand-joined tcp mesh (%d bytes, %v) differs from in-process mesh (%d bytes)",
				traced, len(got), err, len(want))
		}
		if !traced {
			continue
		}
		raw, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Ph  string `json:"ph"`
				Pid int    `json:"pid"`
			} `json:"traceEvents"`
			Metadata struct {
				Offsets map[string]int64 `json:"clock_offsets_ns"`
			} `json:"metadata"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		if _, ok := doc.Metadata.Offsets["1"]; !ok {
			t.Errorf("no clock for the untraced worker: %v", doc.Metadata.Offsets)
		}
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "X" && ev.Pid == 2 {
				t.Fatal("the untraced worker's rank has spans in the launcher's trace")
			}
		}
	}
}

// handJoin runs a launcher with launcherArgs (which must say -spawn 0)
// and one worker with workerArgs joining it by hand, on a reserved port,
// and fails unless both succeed.
func handJoin(t *testing.T, launcherArgs, workerArgs []string) {
	t.Helper()
	launcherErr, workerErr := handJoinErrs(t, launcherArgs, workerArgs)
	if workerErr != nil {
		t.Fatalf("hand-joined worker: %v", workerErr)
	}
	if launcherErr != nil {
		t.Fatalf("launcher: %v", launcherErr)
	}
}

// handJoinErrs is handJoin returning the launcher's and the worker's
// errors.
func handJoinErrs(t *testing.T, launcherArgs, workerArgs []string) (launcherErr, workerErr error) {
	t.Helper()
	// Reserve a port for the launcher: listen, read the address, close.
	// The window between Close and the launcher's Listen is racy in
	// principle, but nothing else in the test binary is binding ports.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	launched := make(chan error, 1)
	go func() {
		var b bytes.Buffer
		err := run(context.Background(), append(launcherArgs, "-listen", addr), &bytes.Buffer{}, &b)
		if err != nil {
			err = fmt.Errorf("%w\n%s", err, b.String())
		}
		launched <- err
	}()

	// The worker dials once, so retry until the launcher is listening.
	for i := 0; i < 100; i++ {
		workerErr = run(context.Background(), append(workerArgs, "-worker", "-join", addr),
			&bytes.Buffer{}, &bytes.Buffer{})
		if workerErr == nil || !strings.Contains(workerErr.Error(), "connection refused") {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	return <-launched, workerErr
}

// TestRunTCPHandJoinedWorkerWithOtherFlags: a hand-joined worker started
// with another far field builds a task list of the launcher's length but
// not its content. Both processes used to finish, and the launcher wrote
// a mesh that differs from a consistent run's, unless a differing header
// happened to be stolen. Now the launcher refuses the worker's list
// digest and writes nothing, and the worker fails with the launcher's
// verdict: the launcher holds its links open until the worker has read
// it.
func TestRunTCPHandJoinedWorkerWithOtherFlags(t *testing.T) {
	base := []string{
		"-n", "24", "-ranks", "2",
		"-h0", "0.08", "-hmax", "2", "-bl-h0", "3e-3", "-bl-layers", "8", "-q",
	}
	out := filepath.Join(t.TempDir(), "mesh")
	launcher := append(append([]string{}, base...), "-farfield", "6", "-transport", "tcp", "-spawn", "0", "-o", out)
	worker := append(append([]string{}, base...), "-farfield", "12")
	launcherErr, workerErr := handJoinErrs(t, launcher, worker)
	if launcherErr == nil || !strings.Contains(launcherErr.Error(), "task lists differ") {
		t.Errorf("launcher: %v, want a failure naming the differing task lists", launcherErr)
	}
	if workerErr == nil || !strings.Contains(workerErr.Error(), "task lists differ") {
		t.Errorf("worker: %v, want a failure naming the differing task lists", workerErr)
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the launcher wrote a mesh (%v)", err)
	}
}

// TestRunTCPMergedTrace is the distributed-telemetry acceptance gate: a
// 2-rank TCP run with -trace and -metrics must produce ONE Chrome trace
// spanning both processes — stage/task spans from each rank on its own
// pid track, clock-offset metadata for every rank — that passes the
// structural validator, plus a metrics document carrying the worker's
// registry under a rank prefix.
func TestRunTCPMergedTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.trace.json")
	metricsPath := filepath.Join(dir, "run.metrics.json")

	args := []string{
		"-n", "24", "-farfield", "6", "-ranks", "2",
		"-h0", "0.08", "-hmax", "2", "-bl-h0", "3e-3", "-bl-layers", "8",
		"-format", "binary", "-transport", "tcp",
		"-o", filepath.Join(dir, "mesh.bin"),
		"-trace", tracePath, "-metrics", metricsPath,
	}
	var errb bytes.Buffer
	if err := run(context.Background(), args, &bytes.Buffer{}, &errb); err != nil {
		t.Fatalf("tcp traced run: %v\n%s", err, errb.String())
	}
	// The launcher's report is the whole run's: both ranks' lines, whose
	// task counts add up to the tasks total.
	total, sum, lines := 0, 0, 0
	for _, line := range strings.Split(errb.String(), "\n") {
		var rank, n int
		if _, err := fmt.Sscanf(line, "tasks %d", &n); err == nil {
			total = n
		} else if _, err := fmt.Sscanf(line, "rank %d %d tasks", &rank, &n); err == nil && rank == lines {
			sum += n
			lines++
		}
	}
	if lines != 2 || total == 0 || sum != total {
		t.Errorf("report has %d rank lines running %d of %d tasks, want 2 lines running all:\n%s", lines, sum, total, errb.String())
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := trace.ValidateTrace(bytes.NewReader(raw)); err != nil {
		t.Fatalf("merged trace invalid: %v", err)
	} else if n == 0 {
		t.Fatal("merged trace has no events")
	}

	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("merged trace not JSON: %v", err)
	}
	// Stage/task spans from both ranks, on distinct pid tracks. Rank r's
	// worker track is pid r+1; the launcher's root pipeline track is pid 0.
	spansByPid := map[int]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spansByPid[ev.Pid]++
		}
	}
	for _, pid := range []int{1, 2} {
		if spansByPid[pid] == 0 {
			t.Errorf("no spans on pid %d (rank %d): per-pid span counts %v", pid, pid-1, spansByPid)
		}
	}
	if doc.Metadata["transport"] != "tcp" {
		t.Errorf("trace metadata transport = %v, want tcp", doc.Metadata["transport"])
	}
	offsets, ok := doc.Metadata["clock_offsets_ns"].(map[string]any)
	if !ok {
		t.Fatalf("trace metadata lacks clock_offsets_ns: %v", doc.Metadata)
	}
	for _, rank := range []string{"0", "1"} {
		if _, ok := offsets[rank]; !ok {
			t.Errorf("no clock offset for rank %s: %v", rank, offsets)
		}
	}

	// The metrics document must fold the worker's registry in under its
	// rank prefix next to the launcher's own entries.
	mf, err := os.Open(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	if err := trace.ValidateMetrics(mf); err != nil {
		t.Fatalf("metrics document invalid: %v", err)
	}
	mraw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(mraw, &metrics); err != nil {
		t.Fatal(err)
	}
	var local, remote bool
	for name := range metrics.Counters {
		if strings.HasPrefix(name, "rank1.") {
			remote = true
		} else if !strings.HasPrefix(name, "rank") {
			local = true
		}
	}
	if !remote {
		t.Errorf("no rank1.-prefixed counters in merged metrics: %v", metrics.Counters)
	}
	if !local {
		t.Errorf("no launcher-local counters in merged metrics: %v", metrics.Counters)
	}
	if metrics.Counters["tasks.rank.1"] == 0 {
		t.Errorf("the launcher's registry records no tasks for rank 1: %v", metrics.Counters)
	}
}

// loopbackByRank starts an n-rank loopback cluster indexed by rank; the
// clusters close when the test ends.
func loopbackByRank(t *testing.T, n int) []*mpi.Cluster {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	clusters, err := mpi.LoopbackClusters(ctx, n)
	if err != nil {
		t.Fatal(err)
	}
	byRank := make([]*mpi.Cluster, n)
	for _, cl := range clusters {
		byRank[cl.Rank()] = cl
		t.Cleanup(func() { cl.Close() })
	}
	return byRank
}

// finalizeOver runs one finalize exchange on clusters: rank 0 collects
// with now while every worker runs serve. A worker's error fails the test.
func finalizeOver(t *testing.T, clusters []*mpi.Cluster, now func() int64,
	serve func(ctx context.Context, cl *mpi.Cluster) error) (shipments, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, cl := range clusters[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := serve(ctx, cl); err != nil {
				t.Errorf("rank %d: %v", cl.Rank(), err)
			}
		}()
	}
	out, err := collectWorkers(ctx, clusters[0], now)
	wg.Wait()
	return out, err
}

// TestFinalizeRecoversClockSkew gives each process of a loopback cluster
// a clock skewed by seconds and checks that the finalize exchange's
// midpoint estimator recovers every skew. Loopback round trips take
// microseconds, so a generous tolerance still pins each estimate to the
// right clock; rank 0's own entry is exactly zero.
func TestFinalizeRecoversClockSkew(t *testing.T) {
	clusters := loopbackByRank(t, 3)
	base := time.Now()
	skews := []int64{0, 5_000_000_000, -5_000_000_000}
	clock := func(r int) func() int64 {
		return func() int64 { return int64(time.Since(base)) + skews[r] }
	}
	got, err := finalizeOver(t, clusters, clock(0), func(ctx context.Context, cl *mpi.Cluster) error {
		r := cl.Rank()
		return serveLauncher(ctx, cl, nil, clock(r))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.clocks) != 3 || len(got.telems) != 0 {
		t.Fatalf("collected %d clocks and %d snapshots, want 3 and 0", len(got.clocks), len(got.telems))
	}
	const tol = int64(200 * time.Millisecond)
	for r, rc := range got.clocks {
		want := skews[0] - skews[r] // a rank-r timestamp plus the offset is rank 0's
		if rc.Rank != r || rc.OffsetNS < want-tol || rc.OffsetNS > want+tol || rc.RTTNS < 0 {
			t.Errorf("clock %d: %+v, want rank %d offset %d±%d", r, rc, r, want, tol)
		}
	}
	if got.clocks[0].OffsetNS != 0 || got.clocks[0].RTTNS != 0 {
		t.Errorf("rank 0's own clock is %+v, want zero", got.clocks[0])
	}
}

// TestFinalizeReleasesPooledBuffers runs the finalize exchange twice over
// a loopback pair: an untraced launcher only visits and releases the
// worker and collects nothing, even from a worker that traced; a traced
// one gets its clock and snapshot. Every request and every reply travels
// in a pooled buffer that one side or the other releases, so the pool
// counters balance.
func TestFinalizeReleasesPooledBuffers(t *testing.T) {
	g0, p0 := mpi.PoolCounters()
	clusters := loopbackByRank(t, 2)
	workerTracer := trace.New(2)
	workerTracer.Begin(1, "test", "span").End()
	serve := func(ctx context.Context, cl *mpi.Cluster) error {
		return serveLauncher(ctx, cl, workerTracer.Export(1), workerTracer.Now)
	}

	got, err := finalizeOver(t, clusters, nil, serve)
	if err != nil {
		t.Fatal(err)
	}
	if got.telems != nil || got.clocks != nil {
		t.Fatalf("untraced launcher collected %+v, want nothing", got)
	}

	got, err = finalizeOver(t, clusters, trace.New(1).Now, serve)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.telems) != 1 || got.telems[0].Rank != 1 || len(got.telems[0].Tracks) == 0 {
		t.Errorf("traced launcher collected snapshots %+v, want rank 1's", got.telems)
	}
	if len(got.clocks) != 2 || got.clocks[1].Rank != 1 {
		t.Errorf("traced launcher collected clocks %+v, want ranks 0 and 1", got.clocks)
	}
	if g1, p1 := mpi.PoolCounters(); g1-g0 != p1-p0 {
		t.Errorf("pool imbalance after the exchanges: %d gets, %d puts", g1-g0, p1-p0)
	}
}

// TestFinalizeSkipsRankThatDies: rank 2 answers its clock rounds and
// then closes its cluster instead of shipping. The launcher keeps rank
// 1's snapshot and clock, nothing of rank 2's (not even the clock it did
// measure), and releases rank 1 without an error.
func TestFinalizeSkipsRankThatDies(t *testing.T) {
	clusters := loopbackByRank(t, 3)
	workerTracer := trace.New(3)
	workerTracer.Begin(1, "test", "span").End()
	got, err := finalizeOver(t, clusters, trace.New(1).Now, func(ctx context.Context, cl *mpi.Cluster) error {
		if cl.Rank() == 1 {
			return serveLauncher(ctx, cl, workerTracer.Export(1), workerTracer.Now)
		}
		_ = cl.NewWorld().RunCtx(ctx, func(c *mpi.Comm) error {
			for {
				b, _, _, err := c.Recv(ctx, 0, tagRequest)
				if err != nil {
					return err
				}
				mpi.PutBytes(b)
				if b[0] != reqClock {
					return cl.Close()
				}
				if err := send(c, 0, tagReply, make([]byte, 8)); err != nil {
					return err
				}
			}
		})
		return nil
	})
	if err != nil {
		t.Fatalf("launcher failed: %v", err)
	}
	if len(got.telems) != 1 || got.telems[0].Rank != 1 {
		t.Errorf("snapshots %+v, want rank 1's only", got.telems)
	}
	if len(got.clocks) != 2 || got.clocks[0].Rank != 0 || got.clocks[1].Rank != 1 {
		t.Errorf("clocks %+v, want ranks 0 and 1", got.clocks)
	}
}

// TestFinalizeHoldsWorkersUntilLastVisit: no worker returns before rank 0
// has visited the last live worker. Rank 2's clock blocks on its first
// reading, which holds rank 0 inside rank 2's visit, past rank 1's; rank
// 1 must still be serving then. A release folded into each visit would
// let rank 1 return here.
func TestFinalizeHoldsWorkersUntilLastVisit(t *testing.T) {
	clusters := loopbackByRank(t, 3)
	visiting, gate, firstDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var once sync.Once
	blockedClock := func() int64 {
		once.Do(func() {
			close(visiting)
			<-gate
		})
		return 0
	}
	go func() {
		<-visiting
		select {
		case <-firstDone:
			t.Error("rank 1 returned before rank 0 visited rank 2")
		case <-time.After(100 * time.Millisecond):
		}
		close(gate)
	}()
	_, err := finalizeOver(t, clusters, trace.New(1).Now, func(ctx context.Context, cl *mpi.Cluster) error {
		if cl.Rank() == 2 {
			return serveLauncher(ctx, cl, nil, blockedClock)
		}
		defer close(firstDone)
		return serveLauncher(ctx, cl, nil, func() int64 { return 0 })
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFinalizeSurvivesDeathBeforeRelease: rank 1 answers its visit and
// then closes its cluster, dying before rank 0 releases it. Rank 0 skips
// it, and both rank 0 and rank 2 return nil.
func TestFinalizeSurvivesDeathBeforeRelease(t *testing.T) {
	clusters := loopbackByRank(t, 3)
	_, err := finalizeOver(t, clusters, nil, func(ctx context.Context, cl *mpi.Cluster) error {
		if cl.Rank() == 2 {
			return serveLauncher(ctx, cl, nil, nil)
		}
		_ = cl.NewWorld().RunCtx(ctx, func(c *mpi.Comm) error {
			b, _, _, err := c.Recv(ctx, 0, tagRequest)
			if err != nil {
				return err
			}
			mpi.PutBytes(b)
			if err := send(c, 0, tagReply, nil); err != nil {
				return err
			}
			return cl.Close()
		})
		return nil
	})
	if err != nil {
		t.Fatalf("launcher: %v", err)
	}
}

// TestFinalizeWorkerFailsWhenLauncherDies: rank 0 visits its worker and
// then closes its cluster instead of releasing it. The worker's
// serveLauncher returns the loss of rank 0.
func TestFinalizeWorkerFailsWhenLauncherDies(t *testing.T) {
	clusters := loopbackByRank(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- serveLauncher(ctx, clusters[1], nil, nil) }()
	_ = clusters[0].NewWorld().RunCtx(ctx, func(c *mpi.Comm) error {
		if err := ask(ctx, c, 1, reqDone, nil); err != nil {
			return err
		}
		return clusters[0].Close()
	})
	var de *mpi.RankDeadError
	if err := <-served; !errors.As(err, &de) || de.Rank != 0 {
		t.Errorf("worker returned %v, want rank 0's death", err)
	}
}

// TestFinalizeShipsNonFiniteTelemetry: JSON has no NaN, so a worker
// whose registry holds a NaN gauge ships its events with an empty
// registry, and one with a NaN event arg ships the empty snapshot. Both
// replies decode, so the exchange never fails on a non-finite value.
func TestFinalizeShipsNonFiniteTelemetry(t *testing.T) {
	gauge := trace.New(2)
	gauge.Begin(1, "test", "span").End()
	gauge.Metrics().Gauge("g", math.NaN())
	arg := trace.New(2)
	arg.Begin(1, "test", "span").End(trace.F("x", math.NaN()))
	for name, c := range map[string]struct {
		tr     *trace.Tracer
		tracks int
	}{"nan gauge": {gauge, 1}, "nan arg": {arg, 0}} {
		tel, err := trace.DecodeTelemetry(telemetryImage(c.tr.Export(1)))
		if err != nil {
			t.Errorf("%s: reply refused: %v", name, err)
			continue
		}
		if tel.Rank != 1 || len(tel.Tracks) != c.tracks || len(tel.Metrics.Gauges) != 0 {
			t.Errorf("%s: shipped %+v, want rank 1, %d track(s), an empty registry", name, tel, c.tracks)
		}
	}
	if b := telemetryImage(nil); b != nil {
		t.Errorf("a worker without a tracer replies %q, want nothing", b)
	}
}

// TestRunTCPLogsRankTagged: every process of a TCP run logs its run's
// lifecycle through the engine it built, tagged with its rank; the
// spawned worker's records reach the launcher's stderr.
func TestRunTCPLogsRankTagged(t *testing.T) {
	var errb bytes.Buffer
	args := []string{"-n", "16", "-ranks", "2", "-transport", "tcp", "-q",
		"-o", filepath.Join(t.TempDir(), "m.bin"), "-log-level", "info", "-log-format", "json"}
	if err := run(context.Background(), args, &bytes.Buffer{}, &errb); err != nil {
		t.Fatalf("tcp run: %v\n%s", err, errb.String())
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(errb.String()), "\n") {
		var rec struct {
			Msg  string `json:"msg"`
			Rank *int   `json:"rank"`
		}
		if json.Unmarshal([]byte(line), &rec) != nil || rec.Rank == nil {
			continue
		}
		seen[fmt.Sprintf("%d %s", *rec.Rank, rec.Msg)] = true
	}
	for _, want := range []string{"0 run started", "0 run completed", "1 run started", "1 run completed"} {
		if !seen[want] {
			t.Errorf("no %q record in stderr:\n%s", want, errb.String())
		}
	}
}

// TestRunWorkerFlagValidation: a worker without a launcher address must
// fail fast instead of dialing nothing.
func TestRunWorkerFlagValidation(t *testing.T) {
	err := run(context.Background(), []string{"-worker"}, &bytes.Buffer{}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("worker without -join succeeded")
	}
}

// TestRunUnknownTransport rejects transports the build does not provide.
func TestRunUnknownTransport(t *testing.T) {
	err := run(context.Background(), fastArgs("-transport", "infiniband"), &bytes.Buffer{}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("unknown transport accepted")
	}
}

// TestRunTCPSurvivesWorkerKill is the fault-tolerance acceptance gate: a
// 4-process TCP run loses a worker to SIGKILL mid-run (the
// -fault-kill-rank hook raises SIGKILL on the worker at the start of its
// first task — delivery identical to an external kill -9) and must still
// complete on the survivors with the audit stage clean, exit
// successfully, report the death and the re-queued tasks, and export a
// merged trace carrying the recovery events, with a clock and a metrics
// registry for every survivor and none for the dead rank. The same run
// under -strict-ranks must fail instead.
func TestRunTCPSurvivesWorkerKill(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "degraded.bin")
	tracePath := filepath.Join(dir, "degraded.trace.json")
	metricsPath := filepath.Join(dir, "degraded.metrics.json")

	base := []string{
		"-n", "24", "-farfield", "6", "-ranks", "4",
		"-h0", "0.08", "-hmax", "2", "-bl-h0", "3e-3", "-bl-layers", "8",
		"-format", "binary", "-audit", "-transport", "tcp",
		"-fault-kill-rank", "2",
	}
	var errb bytes.Buffer
	err := run(context.Background(), append(base, "-o", out, "-trace", tracePath, "-metrics", metricsPath),
		&bytes.Buffer{}, &errb)
	if err != nil {
		t.Fatalf("degraded run failed: %v\n%s", err, errb.String())
	}
	msg := errb.String()
	if !strings.Contains(msg, "rank 2 died") {
		t.Errorf("no death report for rank 2 on stderr:\n%s", msg)
	}
	if !strings.Contains(msg, "re-queued") {
		t.Errorf("no re-queue report on stderr:\n%s", msg)
	}
	if !strings.Contains(msg, "resilience") {
		t.Errorf("no resilience section in the stats report:\n%s", msg)
	}
	if b, rerr := os.ReadFile(out); rerr != nil || len(b) == 0 {
		t.Fatalf("degraded mesh not written: %v (%d bytes)", rerr, len(b))
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if n, verr := trace.ValidateTrace(bytes.NewReader(raw)); verr != nil {
		t.Fatalf("degraded merged trace invalid: %v", verr)
	} else if n == 0 {
		t.Fatal("degraded merged trace has no events")
	}
	var doc struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
		} `json:"traceEvents"`
		Metadata struct {
			Offsets map[string]int64 `json:"clock_offsets_ns"`
		} `json:"metadata"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var clockRanks []string
	for r := range doc.Metadata.Offsets {
		clockRanks = append(clockRanks, r)
	}
	sort.Strings(clockRanks)
	if got := strings.Join(clockRanks, ","); got != "0,1,3" {
		t.Errorf("degraded trace has clocks for ranks %s, want 0,1,3", got)
	}
	var metrics struct {
		Counters map[string]int64 `json:"counters"`
	}
	if mraw, err := os.ReadFile(metricsPath); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(mraw, &metrics); err != nil {
		t.Fatal(err)
	}
	prefixed := map[string]bool{}
	for name := range metrics.Counters {
		prefixed[strings.SplitN(name, ".", 2)[0]] = true
	}
	if !prefixed["rank1"] || !prefixed["rank3"] || prefixed["rank2"] {
		t.Errorf("degraded metrics have rank1/rank2/rank3 counters %v/%v/%v, want true/false/true",
			prefixed["rank1"], prefixed["rank2"], prefixed["rank3"])
	}
	recover := 0
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "recover" {
			recover++
		}
	}
	if recover == 0 {
		t.Error("merged trace has no recovery-category events for the rank death")
	}

	errb.Reset()
	err = run(context.Background(),
		append(base, "-strict-ranks", "-q", "-o", filepath.Join(dir, "strict.bin")),
		&bytes.Buffer{}, &errb)
	if err == nil {
		t.Fatal("-strict-ranks accepted a degraded run")
	}
	if !strings.Contains(err.Error(), "rank(s) died") {
		t.Errorf("-strict-ranks failed with the wrong error: %v", err)
	}
}
