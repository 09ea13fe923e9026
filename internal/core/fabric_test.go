package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pamg2d/internal/airfoil"
	"pamg2d/internal/blayer"
	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/loadbal"
	"pamg2d/internal/mpi"
	"pamg2d/internal/project"
	"pamg2d/internal/sizing"
	"pamg2d/internal/trace"
)

// runOnFabric runs fn as one SPMD process per loopback-TCP cluster member
// and returns the per-process errors.
func runOnFabric(t testing.TB, ranks int, fn func(i int, cl *mpi.Cluster) error) []error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	t.Cleanup(cancel)
	clusters, err := mpi.LoopbackClusters(ctx, ranks)
	if err != nil {
		t.Fatalf("LoopbackClusters(%d): %v", ranks, err)
	}
	t.Cleanup(func() {
		for _, cl := range clusters {
			cl.Close()
		}
	})
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for i, cl := range clusters {
		wg.Add(1)
		go func(i int, cl *mpi.Cluster) {
			defer wg.Done()
			errs[i] = fn(i, cl)
		}(i, cl)
	}
	wg.Wait()
	return errs
}

func meshBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Mesh.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return buf.Bytes()
}

// TestGenerateTCPByteIdentical is the transport acceptance gate: the full
// audited pipeline over a loopback TCP fabric produces, on every process,
// a mesh byte-identical to the in-process run at the same rank count,
// process 0's Stats is the whole run's record (statsCoverRun), and on
// every process only the two distributed stages put messages on the wire.
func TestGenerateTCPByteIdentical(t *testing.T) {
	for _, ranks := range []int{1, 4} {
		t.Run(fmt.Sprintf("ranks-%d", ranks), func(t *testing.T) {
			cfg := smallConfig(ranks)
			cfg.Audit = true
			want, err := Generate(cfg)
			if err != nil {
				t.Fatalf("in-process Generate: %v", err)
			}
			wantBytes := meshBytes(t, want)
			if want.Stats.Audit == nil || !want.Stats.Audit.Ok() {
				t.Fatalf("in-process audit not clean: %v", want.Stats.Audit)
			}

			results := make([]*Result, ranks)
			tracers := make([]*trace.Tracer, ranks)
			errs := runOnFabric(t, ranks, func(i int, cl *mpi.Cluster) error {
				c := cfg
				c.Fabric = cl
				c.Tracer = trace.New(ranks)
				res, err := GenerateContext(context.Background(), c)
				results[cl.Rank()], tracers[cl.Rank()] = res, c.Tracer
				return err
			})
			for i, err := range errs {
				if err != nil {
					t.Fatalf("process %d: %v", i, err)
				}
			}
			for i, r := range results {
				if r.Stats.Audit == nil || !r.Stats.Audit.Ok() {
					t.Errorf("process %d audit not clean: %v", i, r.Stats.Audit)
				}
				if got := meshBytes(t, r); !bytes.Equal(got, wantBytes) {
					t.Errorf("process %d: mesh (%d bytes, %d triangles) differs from in-process run (%d bytes, %d triangles)",
						i, len(got), r.Mesh.NumTriangles(), len(wantBytes), want.Mesh.NumTriangles())
				}
				rootSideStagesStayLocal(t, &r.Stats, fmt.Sprintf("process %d", i))
			}
			var sends int64
			for r, tr := range tracers {
				sends += countSends(tr.Export(r))
			}
			statsCoverRun(t, &results[0].Stats, &want.Stats, ranks, sends)
		})
	}
}

// statsCoverRun checks that got, process 0's Stats of a run over a fabric,
// records the whole run the way the in-process run's Stats does: every
// task's measure, every rank's counters in every distributed stage, both
// ends of every steal, and the send count of every process (sends).
func statsCoverRun(t *testing.T, got, want *Stats, ranks int, sends int64) {
	t.Helper()
	if len(got.Tasks) != len(want.Tasks) {
		t.Fatalf("%d task measures, want %d", len(got.Tasks), len(want.Tasks))
	}
	for i, m := range got.Tasks {
		if m.Seconds <= 0 || m.Triangles != want.Tasks[i].Triangles {
			t.Errorf("task %d measured %+v, want positive seconds and %d triangles", i, m, want.Tasks[i].Triangles)
		}
	}
	stageTasks := func(st *Stats) map[string]int {
		n := map[string]int{}
		for _, s := range st.Stages {
			for _, r := range s.Ranks {
				n[s.Name] += r.Tasks
			}
		}
		return n
	}
	wantTasks := stageTasks(want)
	for _, s := range got.Stages {
		if s.Ranks == nil {
			continue
		}
		if len(s.Ranks) != ranks {
			t.Errorf("stage %s has %d rank entries, want %d", s.Name, len(s.Ranks), ranks)
		}
		n := 0
		for r, rs := range s.Ranks {
			if rs.Rank != r {
				t.Errorf("stage %s: entry %d is rank %d", s.Name, r, rs.Rank)
			}
			n += rs.Tasks
		}
		if n != wantTasks[s.Name] {
			t.Errorf("stage %s: ranks ran %d tasks, want %d", s.Name, n, wantTasks[s.Name])
		}
	}
	if got.Steals.Granted != got.Steals.Gotten {
		t.Errorf("steals: %d granted, %d gotten", got.Steals.Granted, got.Steals.Gotten)
	}
	if got.Messages != sends {
		t.Errorf("Stats.Messages = %d, want the %d sends of every process", got.Messages, sends)
	}
}

// countSends counts the message sends a process's tracer recorded.
func countSends(tel *trace.Telemetry) int64 {
	var n int64
	for _, tr := range tel.Tracks {
		for _, e := range tr.Events {
			if e.Cat == trace.CatMPI && e.Name == "send" {
				n++
			}
		}
	}
	return n
}

// fig08Tasks builds the Figure 8 workload: the boundary-layer point cloud
// of a NACA 0012 decomposed into projection subdomains, one BL-leaf task
// per subdomain — the same tasks the bl-triangulation stage runs — with
// the stage's shared task context.
func fig08Tasks(t testing.TB) ([]meshTask, taskCtx) {
	t.Helper()
	cfg := airfoil.Single(airfoil.NACA0012, 96, 20)
	g, err := cfg.Graph()
	if err != nil {
		t.Fatalf("graph: %v", err)
	}
	bl := blayer.DefaultParams()
	layers := blayer.Generate(g, bl)
	pts := layers[0].AllPoints()
	leaves, _ := project.Decompose(project.New(pts), project.Options{MinVerts: 16, MaxDepth: 5})
	tasks, dealt := blLeafTasks(leaves, len(pts))
	return tasks, taskCtx{frame: g.Farfield.BBox(), annuli: layerAnnuli(layers, bl), dealt: dealt}
}

// TestRunDistributedTCPMatchesInProcess drives the distributed executor
// directly with the Figure 8 workload on both transports: every process of
// the TCP run must end up with exactly the submeshes the in-process run
// collected, proving the collection + re-broadcast path is lossless.
func TestRunDistributedTCPMatchesInProcess(t *testing.T) {
	const ranks = 4
	tasks, tctx := fig08Tasks(t)
	if len(tasks) < 2*ranks {
		t.Fatalf("only %d tasks; workload too small to exercise stealing", len(tasks))
	}
	mk := func(fabric *mpi.Cluster) *RunCtx {
		cfg := DefaultConfig()
		cfg.Ranks = ranks
		cfg.Fabric = fabric
		return newRunCtx(cfg)
	}

	want, err := runPhase(mk(nil), StageBLTriangulation, tasks, tctx)
	if err != nil {
		t.Fatalf("in-process runPhase: %v", err)
	}
	kept := 0
	for _, r := range want {
		kept += len(r.tris)
	}
	if kept == 0 {
		t.Fatal("the workload's results hold no triangles")
	}

	all := make([][]submesh, ranks)
	errs := runOnFabric(t, ranks, func(i int, cl *mpi.Cluster) error {
		got, err := runPhase(mk(cl), StageBLTriangulation, tasks, tctx)
		all[i] = got
		return err
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
	}
	for p, got := range all {
		if len(got) != len(want) {
			t.Fatalf("process %d: %d results, want %d", p, len(got), len(want))
		}
		for ti := range want {
			if !sameSubmesh(got[ti], want[ti]) {
				t.Fatalf("process %d task %d: the submesh differs from the in-process one", p, ti)
			}
		}
	}
}

// TestGenerateTCPTaskFailureAgreement injects a task failure on exactly
// one process: the post-phase agreement must fail the run on every
// process, attributed to the failing rank, instead of letting the healthy
// processes mesh on alone.
func TestGenerateTCPTaskFailureAgreement(t *testing.T) {
	const ranks = 2
	boom := errors.New("injected task failure")
	errs := runOnFabric(t, ranks, func(i int, cl *mpi.Cluster) error {
		c := smallConfig(ranks)
		c.Fabric = cl
		if i == 1 {
			c.TaskHook = func(stage string, kind int) error {
				if stage == StageInviscid {
					return boom
				}
				return nil
			}
		}
		_, err := GenerateContext(context.Background(), c)
		return err
	})
	for i, err := range errs {
		if err == nil {
			t.Fatalf("process %d: run succeeded despite a task failure on rank 1", i)
		}
		var pe *PhaseError
		if !errors.As(err, &pe) {
			t.Fatalf("process %d: %T (%v), want *PhaseError", i, err, err)
		}
		if pe.Stage != StageInviscid {
			t.Errorf("process %d: failure attributed to stage %q, want %q", i, pe.Stage, StageInviscid)
		}
		if pe.Rank != 1 {
			t.Errorf("process %d: failure attributed to rank %d, want 1", i, pe.Rank)
		}
	}
	if !errors.Is(errs[1], boom) {
		t.Errorf("failing process lost the original cause: %v", errs[1])
	}
}

// TestTaskPanicAttribution panics inside one task of a meshing stage,
// in-process and over TCP: the executor must capture the panic and every
// process must fail the stage attributed to the executing rank with the
// panic value in the error — not report a missing result or blame the
// root.
func TestTaskPanicAttribution(t *testing.T) {
	panicOnceIn := func(stage string) func(string, int) error {
		var once sync.Once
		return func(s string, kind int) error {
			if s == stage {
				once.Do(func() { panic("kaboom") })
			}
			return nil
		}
	}
	check := func(t *testing.T, who string, err error, stage string, rank int) {
		t.Helper()
		var pe *PhaseError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: %T (%v), want *PhaseError", who, err, err)
		}
		if pe.Stage != stage {
			t.Errorf("%s: stage %q, want %q", who, pe.Stage, stage)
		}
		if rank >= 0 && pe.Rank != rank {
			t.Errorf("%s: rank %d, want %d", who, pe.Rank, rank)
		}
		if pe.Rank < 0 || !strings.Contains(err.Error(), "kaboom") {
			t.Errorf("%s: error lost the executing rank or the panic value: %v", who, err)
		}
	}
	for _, stage := range []string{StageInviscid} {
		t.Run(stage+"/inproc", func(t *testing.T) {
			cfg := smallConfig(4)
			cfg.Audit = true
			cfg.TaskHook = panicOnceIn(stage)
			_, err := Generate(cfg)
			check(t, "run", err, stage, -1)
			var pv *loadbal.PanicError
			if !errors.As(err, &pv) || pv.Value != "kaboom" {
				t.Errorf("error does not wrap the panic value: %v", err)
			}
		})
		t.Run(stage+"/tcp", func(t *testing.T) {
			errs := runOnFabric(t, 2, func(i int, cl *mpi.Cluster) error {
				c := smallConfig(2)
				c.Audit = true
				c.Fabric = cl
				if i == 1 {
					c.TaskHook = panicOnceIn(stage)
				}
				_, err := GenerateContext(context.Background(), c)
				return err
			})
			for i, err := range errs {
				check(t, fmt.Sprintf("process %d", i), err, stage, 1)
			}
		})
	}
}

// TestGenerateTCPDegradedRun kills one worker process mid-run (its
// fabric connections reset, the SIGKILL stand-in) during each distributed
// stage, and checks the survivors complete the pipeline degraded: the run
// succeeds, the audit is clean, the loss is recorded in Stats.Resilience,
// and the surviving processes agree on the mesh bytes. The audit row runs
// without Config.Audit: a degraded run is audited all the same.
func TestGenerateTCPDegradedRun(t *testing.T) {
	for _, row := range []struct {
		name, killStage string
		audit, failTask bool
	}{
		{StageBLTriangulation, StageBLTriangulation, true, false},
		{StageInviscid, StageInviscid, true, false},
		{StageAudit, StageBLTriangulation, false, false},
		{"fail-then-die", StageInviscid, true, true},
	} {
		t.Run(row.name, func(t *testing.T) { degradedRun(t, row.killStage, row.audit, row.failTask) })
	}
}

// degradedRun kills the victim rank in killStage; with failTask the
// victim's task also returns an error after its fabric is gone.
func degradedRun(t *testing.T, killStage string, audit, failTask bool) {
	const ranks = 4
	const victim = 3
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	clusters, err := mpi.LoopbackClusters(ctx, ranks)
	if err != nil {
		t.Fatalf("LoopbackClusters(%d): %v", ranks, err)
	}
	defer func() {
		for _, cl := range clusters {
			if cl.Rank() != victim {
				cl.Close()
			}
		}
	}()

	results := make([]*Result, ranks)
	errs := make([]error, ranks)
	var killOnce sync.Once
	var wg sync.WaitGroup
	for _, cl := range clusters {
		wg.Add(1)
		go func(cl *mpi.Cluster) {
			defer wg.Done()
			r := cl.Rank()
			c := smallConfig(ranks)
			c.Audit = audit
			c.Fabric = cl
			if r == victim {
				c.TaskHook = func(stage string, kind int) error {
					if stage == killStage {
						// Vanish mid-task: connections reset while this rank
						// still owns unfinished work, then park so the
						// completion is never sent.
						killOnce.Do(func() { cl.Close() })
						if failTask {
							return errors.New("injected failure on a dying rank")
						}
						time.Sleep(50 * time.Millisecond)
					}
					return nil
				}
			}
			results[r], errs[r] = GenerateContext(context.Background(), c)
		}(cl)
	}
	wg.Wait()

	if errs[victim] == nil {
		t.Errorf("victim process completed despite losing its fabric")
	}
	var survivors [][]byte
	for r := 0; r < ranks; r++ {
		if r == victim {
			continue
		}
		if errs[r] != nil {
			t.Fatalf("survivor %d: %v", r, errs[r])
		}
		res := results[r]
		if res.Stats.Audit == nil || !res.Stats.Audit.Ok() {
			t.Errorf("survivor %d audit not clean: %v", r, res.Stats.Audit)
		}
		if !res.Stats.Degraded() || res.Stats.Resilience.RanksLost != 1 {
			t.Errorf("survivor %d resilience = %+v, want 1 rank lost", r, res.Stats.Resilience)
		}
		if len(res.Stats.Resilience.Deaths) != 1 || res.Stats.Resilience.Deaths[0].Rank != victim {
			t.Errorf("survivor %d death record = %+v, want rank %d", r, res.Stats.Resilience.Deaths, victim)
		}
		survivors = append(survivors, meshBytes(t, res))
	}
	if results[0].Stats.Resilience.TasksRequeued < 1 {
		t.Errorf("root requeued %d tasks, want >= 1", results[0].Stats.Resilience.TasksRequeued)
	}
	for i := 1; i < len(survivors); i++ {
		if !bytes.Equal(survivors[i], survivors[0]) {
			t.Errorf("survivor meshes disagree (%d vs %d bytes)", len(survivors[i]), len(survivors[0]))
		}
	}
}

// TestPhaseFailsOnListsOfDifferentLengths: a worker whose stage built 8
// tasks where the root built 16 (a hand-joined worker started with other
// flags). Both processes leave the phase with the same *PhaseError, which
// names both lengths and the worker, well inside a 5 s deadline; the root
// no longer waits for the tasks the worker does not hold.
func TestPhaseFailsOnListsOfDifferentLengths(t *testing.T) {
	const deadline = 5 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	square := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}
	region := delaunay.Input{Points: square, Segments: [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}}}
	tctx := taskCtx{frame: geom.BBox{Min: geom.Pt(-1, -1), Max: geom.Pt(2, 2)}, size: sizing.Uniform(0.3)}
	start := time.Now()
	errs := runOnFabric(t, 2, func(i int, cl *mpi.Cluster) error {
		tasks := make([]meshTask, 16>>cl.Rank())
		for k := range tasks {
			tasks[k] = meshTask{kind: kindInviscid, cost: 1, in: region}
		}
		cfg := smallConfig(2)
		cfg.Fabric = cl
		rc := newRunCtx(cfg)
		rc.ctx = ctx
		_, err := runPhase(rc, StageInviscid, tasks, tctx)
		var pe *PhaseError
		if !errors.As(err, &pe) || pe.Stage != StageInviscid || pe.Rank != 1 ||
			!strings.Contains(pe.Error(), "rank 1 holds 8 tasks and the root 16") {
			return fmt.Errorf("the phase returned %v, want a rank-1 PhaseError of stage %s naming both lengths", err, StageInviscid)
		}
		return nil
	})
	if took := time.Since(start); took > deadline/5 {
		t.Errorf("the processes left the phase after %v", took)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("process %d: %v", i, err)
		}
	}
}
