package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pamg2d/internal/core"
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
// in-process run byte for byte.
func TestRunTCPHandJoinedWorkers(t *testing.T) {
	dir := t.TempDir()
	inproc := filepath.Join(dir, "inproc.bin")
	overTCP := filepath.Join(dir, "tcp.bin")

	// Reserve a port for the launcher: listen, read the address, close.
	// The window between Close and the launcher's Listen is racy in
	// principle, but nothing else in the test binary is binding ports.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	base := []string{
		"-n", "24", "-farfield", "6", "-ranks", "2",
		"-h0", "0.08", "-hmax", "2", "-bl-h0", "3e-3", "-bl-layers", "8",
		"-format", "binary", "-audit", "-q",
	}
	var errb bytes.Buffer
	if err := run(context.Background(), append(base, "-o", inproc), &bytes.Buffer{}, &errb); err != nil {
		t.Fatalf("in-process run: %v\n%s", err, errb.String())
	}

	launcherErr := make(chan error, 1)
	go func() {
		var b bytes.Buffer
		err := run(context.Background(),
			append(base, "-transport", "tcp", "-spawn", "0", "-listen", addr, "-o", overTCP),
			&bytes.Buffer{}, &b)
		if err != nil {
			err = fmt.Errorf("%w\n%s", err, b.String())
		}
		launcherErr <- err
	}()

	// The worker dials once, so retry until the launcher is listening.
	var werr error
	for i := 0; i < 100; i++ {
		werr = run(context.Background(), append(base, "-worker", "-join", addr),
			&bytes.Buffer{}, &bytes.Buffer{})
		if werr == nil || !strings.Contains(werr.Error(), "connection refused") {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if werr != nil {
		t.Fatalf("hand-joined worker: %v", werr)
	}
	if err := <-launcherErr; err != nil {
		t.Fatalf("launcher: %v", err)
	}

	a, err := os.ReadFile(inproc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(overTCP)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("hand-joined tcp mesh (%d bytes) differs from in-process mesh (%d bytes)", len(b), len(a))
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
		"-format", "binary", "-transport", "tcp", "-q",
		"-o", filepath.Join(dir, "mesh.bin"),
		"-trace", tracePath, "-metrics", metricsPath,
	}
	var errb bytes.Buffer
	if err := run(context.Background(), args, &bytes.Buffer{}, &errb); err != nil {
		t.Fatalf("tcp traced run: %v\n%s", err, errb.String())
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
}

// TestDrainTelemetryReleasesSummaries ships one worker's run summary over
// a loopback pair the way a worker does — sent ahead of the finalize
// barrier — and drains it on rank 0: the summary decodes to what was sent,
// and the pooled buffer the transport decoded it into goes back, so the
// launcher's pool counters balance.
func TestDrainTelemetryReleasesSummaries(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	g0, p0 := mpi.PoolCounters()
	clusters, err := mpi.LoopbackClusters(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	byRank := make([]*mpi.Cluster, 2)
	for _, cl := range clusters {
		byRank[cl.Rank()] = cl
		defer cl.Close()
	}
	st := &core.Stats{
		Messages: 17, BytesOnWire: 1 << 33,
		Tasks:  []core.TaskMeasure{{Seconds: 0.25}, {}, {Triangles: 9}},
		Steals: core.StealStats{Requests: 3, Granted: 2, Gotten: 1, Idle: 1500 * time.Millisecond},
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if errs[1] = byRank[1].SendTelemetry(encodeRankStats(1, st)); errs[1] == nil {
			errs[1] = finalizeTCP(ctx, byRank[1])
		}
	}()
	go func() {
		defer wg.Done()
		errs[0] = finalizeTCP(ctx, byRank[0])
	}()
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	got, telems := drainTelemetry(byRank[0])
	if want := summarizeRankStats(1, st); len(got) != 1 || got[0] != want || len(telems) != 0 {
		t.Fatalf("drained %+v and %d snapshots, want [%+v] and none", got, len(telems), want)
	}
	if g1, p1 := mpi.PoolCounters(); g1-g0 != p1-p0 {
		t.Errorf("pool imbalance after the drain: %d gets, %d puts", g1-g0, p1-p0)
	}
}

// TestRankStatsRejectsForeignPayloads: only a current-version summary of
// the exact length decodes.
func TestRankStatsRejectsForeignPayloads(t *testing.T) {
	good := encodeRankStats(2, &core.Stats{Messages: 5})
	if rs, ok := decodeRankStats(good); !ok || rs.rank != 2 || rs.msgs != 5 {
		t.Fatalf("current summary decoded to %+v, %v", rs, ok)
	}
	other := append([]byte{}, good...)
	other[0] = statsWireVersion - 1
	for name, b := range map[string][]byte{
		"empty": nil, "short": good[:len(good)-1], "long": append(good[:len(good):len(good)], 0),
		"other version": other,
	} {
		if _, ok := decodeRankStats(b); ok {
			t.Errorf("%s payload decoded", name)
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
// merged trace carrying the recovery events. The same run under
// -strict-ranks must fail instead.
func TestRunTCPSurvivesWorkerKill(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "degraded.bin")
	tracePath := filepath.Join(dir, "degraded.trace.json")

	base := []string{
		"-n", "24", "-farfield", "6", "-ranks", "4",
		"-h0", "0.08", "-hmax", "2", "-bl-h0", "3e-3", "-bl-layers", "8",
		"-format", "binary", "-audit", "-transport", "tcp",
		"-fault-kill-rank", "2",
	}
	var errb bytes.Buffer
	err := run(context.Background(), append(base, "-o", out, "-trace", tracePath),
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
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
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
