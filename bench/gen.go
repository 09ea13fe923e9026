package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"pamg2d/internal/audit"
	"pamg2d/internal/core"
	"pamg2d/internal/mesh"
	"pamg2d/internal/mpi"
	"pamg2d/internal/trace"
)

// genSpec describes one generation workload (naca-viscous, naca-inviscid,
// highlift-tcp): the timed operation is one core.Generate of cfg.
type genSpec struct {
	name string
	cfg  core.Config
	// tcp makes the 2-rank operation an SPMD run over one persistent
	// loopback TCP fabric; the in-process 2-rank run is then timed beside
	// it as the zero-copy reference.
	tcp bool
	// pipelineAudit verifies with the in-pipeline full audit
	// (Config.Audit, zero violations); otherwise with the structural
	// checks on a fresh snapshot, and the in-pipeline verdict is only
	// recorded (audit.full_ok).
	pipelineAudit bool
	// floor1r, floor2r, floorTCP are the repetition floors of an untraced
	// run; auditReps the audited 1-rank repetitions of a traced run (the
	// first is discarded as warm-up when there are several).
	floor1r, floor2r, floorTCP, auditReps int
	// setupRounds repeats the set-up so setup_s is a median; 1 where the
	// verification runs dominate it and are as steady as the walls.
	setupRounds int
	// keepTrace writes the 2-rank run's Chrome trace of the traced pass to
	// <workload>.trace.json (off where the workload writes its own).
	keepTrace bool
}

const (
	mode1r = iota
	mode2r
	modeTCP
)

var modeLabel = [...]string{"1r", "2r", "tcp"}

// genState is what set-up leaves behind: the fabric and the verified
// mesh identity of every mode.
type genState struct {
	clusters []*mpi.Cluster
	want     [3]string
}

func (s *genState) close() {
	for _, cl := range s.clusters {
		cl.Close()
	}
}

// generate runs one in-process pipeline and returns its wall.
func generate(cfg core.Config, ranks int, auditOn bool, tr *trace.Tracer) (*core.Result, time.Duration, error) {
	cfg.Ranks = ranks
	cfg.Audit = auditOn
	cfg.Tracer = tr
	t0 := time.Now()
	res, err := core.Generate(cfg)
	return res, time.Since(t0), err
}

// generateTCP runs one SPMD pipeline, one process-shaped goroutine per
// cluster member, and returns every member's result.
func generateTCP(clusters []*mpi.Cluster, cfg core.Config, tracers []*trace.Tracer) ([]*core.Result, time.Duration, error) {
	cfg.Ranks = len(clusters)
	results := make([]*core.Result, len(clusters))
	errs := make([]error, len(clusters))
	var wg sync.WaitGroup
	t0 := time.Now()
	for p, cl := range clusters {
		wg.Add(1)
		go func(p int, cl *mpi.Cluster) {
			defer wg.Done()
			c := cfg
			c.Fabric = cl
			if tracers != nil {
				c.Tracer = tracers[p]
			}
			results[p], errs[p] = core.GenerateContext(context.Background(), c)
		}(p, cl)
	}
	wg.Wait()
	return results, time.Since(t0), errors.Join(errs...)
}

// checkMesh hashes a timed operation's mesh and compares it with the
// verified mesh of its mode.
func checkMesh(m *mesh.Mesh, want, label string) error {
	got, err := meshHash(m)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s: mesh hash %s differs from the verified mesh %s", label, got[:12], want[:12])
	}
	return nil
}

// genSetup brings the fabric up and verifies one mesh per mode. Every
// verification run counts as an attempted operation.
func genSetup(spec *genSpec, r *workloadResult, recordMeshes bool) (*genState, error) {
	st := &genState{}
	if spec.tcp {
		t0 := time.Now()
		cls, err := mpi.LoopbackClusters(context.Background(), 2)
		if err != nil {
			return nil, fmt.Errorf("cluster bring-up: %w", err)
		}
		r.col.add("mpi.cluster_up_s", time.Since(t0).Seconds())
		st.clusters = cls
	}
	for _, mode := range []int{mode1r, mode2r} {
		label := spec.name + "/" + modeLabel[mode]
		res, _, err := generate(spec.cfg, mode+1, spec.pipelineAudit, nil)
		if err == nil && spec.pipelineAudit && !res.Stats.Audit.Ok() {
			err = res.Stats.Audit.Error()
		}
		if err == nil && !spec.pipelineAudit {
			err = auditFresh(res.Mesh, audit.Structural())
		}
		if err != nil {
			r.op(fmt.Errorf("%s: verification: %w", label, err))
			st.close()
			return nil, err
		}
		r.op(nil)
		if st.want[mode], err = meshHash(res.Mesh); err != nil {
			st.close()
			return nil, err
		}
		if recordMeshes {
			r.record(modeLabel[mode], res.Mesh, st.want[mode])
		}
	}
	if spec.tcp {
		// TCP rank 0 = TCP rank 1 = in-process 2-rank.
		st.want[modeTCP] = st.want[mode2r]
		results, _, err := generateTCP(st.clusters, spec.cfg, nil)
		for p := 0; err == nil && p < len(results); p++ {
			err = checkMesh(results[p].Mesh, st.want[modeTCP], fmt.Sprintf("%s/tcp rank %d", spec.name, p))
		}
		r.op(err)
		if err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

// stageOf finds a stage's summary entry (sub-entries carry a '/').
func stageOf(st *core.Stats, name string) *core.StageStat {
	for i := range st.Stages {
		if st.Stages[i].Name == name {
			return &st.Stages[i]
		}
	}
	return nil
}

func busySeconds(s *core.StageStat) []float64 {
	out := make([]float64, len(s.Ranks))
	for i, rk := range s.Ranks {
		out[i] = rk.Busy.Seconds()
	}
	return out
}

// collect1r folds one 1-rank run's public Stats into the per-layer
// samples.
func collect1r(col *collector, st *core.Stats, wall time.Duration) {
	var task float64
	for _, t := range st.Tasks {
		task += t.Seconds
	}
	col.add("core.task_s", task)
	col.add("core.serial_s", st.Times.Total.Seconds()-task)
	col.add("core.tasks", float64(len(st.Tasks)))
	col.add("core.allocs_k", float64(st.Allocs.Total)/1e3)
	col.add("core.tris_per_s", float64(st.TotalTriangles)/wall.Seconds())
	for _, name := range stageNames {
		if s := stageOf(st, name); s != nil {
			col.add("core.stage."+name+"_s", s.Wall.Seconds())
		}
	}
	for stage, name := range map[string]string{"bl-triangulation": "core.bl_root_s", "inviscid": "core.inviscid_root_s"} {
		if s := stageOf(st, stage); s != nil {
			col.add(name, s.Wall.Seconds()-sum(busySeconds(s)))
		}
	}
}

// collect2r folds one 2-rank run's balancer and wire statistics.
func collect2r(col *collector, st *core.Stats) {
	col.add("loadbal.steal_requests", float64(st.Steals.Requests))
	col.add("loadbal.steals_granted", float64(st.Steals.Granted))
	if st.Steals.Requests > 0 {
		col.add("loadbal.steal_success_frac", float64(st.Steals.Granted)/float64(st.Steals.Requests))
	}
	col.add("loadbal.idle_s", st.Steals.Idle.Seconds())
	var dominant *core.StageStat
	for i := range st.Stages {
		s := &st.Stages[i]
		if len(s.Ranks) > 0 && (dominant == nil || s.Wall > dominant.Wall) {
			dominant = s
		}
	}
	if dominant != nil {
		col.add("loadbal.busy_imbalance", maxOverMean(busySeconds(dominant)))
	}
	col.add("mpi.msgs", float64(st.Messages))
	col.add("mpi.wire_mb", float64(st.BytesOnWire)/1e6)
	if st.TotalTriangles > 0 {
		col.add("mpi.wire_bytes_per_tri", float64(st.BytesOnWire)/float64(st.TotalTriangles))
	}
}

// runGeneration is the whole life of a generation workload: set-up with
// verification, timed repetitions with every mesh checked, and for a
// traced run the audited repetitions, the traced pass, the layer replay
// and the probes.
func runGeneration(rc *runCtx, spec *genSpec) *workloadResult {
	start := time.Now()
	r := newResult(spec.name)
	col := r.col

	// Set-up, several rounds where it is short; the last round's state is
	// the one the timed phase uses.
	var st *genState
	var setups []float64
	for round := 0; round < spec.setupRounds; round++ {
		if st != nil {
			st.close()
		}
		rc.cal.sample()
		t0 := time.Now()
		var err error
		if st, err = genSetup(spec, r, round == spec.setupRounds-1); err != nil {
			rc.logf("%s: set-up failed: %v", spec.name, err)
			return r.finish(rc, start)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()
	col.set("setup_s", median(setups))
	if spec.pipelineAudit {
		col.set("audit.full_ok", 1)
	}

	// Timed repetitions, tracer nil, audit off, modes alternating.
	modes := []int{mode1r, mode2r}
	ro := &rotation{weight: []int{1, 1}, floor: []int{rc.reps(spec.floor1r), rc.reps(spec.floor2r)}}
	if spec.tcp {
		modes = []int{modeTCP, mode1r, mode2r}
		ro = &rotation{weight: []int{8, 3, 3}, floor: []int{rc.reps(spec.floorTCP), rc.reps(spec.floor1r), rc.reps(spec.floor2r)}}
	}
	ro.count = make([]int, len(modes))
	var tcpWalls, inproc2Walls []float64
	deadline := time.Now().Add(rc.budget())
	for !ro.done() || time.Now().Before(deadline) {
		mode := modes[ro.next()]
		label := spec.name + "/" + modeLabel[mode]
		runtime.GC()
		rc.cal.sample()
		switch mode {
		case mode1r:
			mark := markMem()
			res, wall, err := generate(spec.cfg, 1, false, nil)
			mb, ak := mark.since()
			if err == nil {
				err = checkMesh(res.Mesh, st.want[mode], label)
			}
			r.op(err)
			if err != nil {
				continue
			}
			col.add("wall_1r_s", wall.Seconds())
			col.add("alloc_mb", mb)
			col.add("allocs_k", ak)
			collect1r(col, &res.Stats, wall)
		case mode2r:
			res, wall, err := generate(spec.cfg, 2, false, nil)
			if err == nil {
				err = checkMesh(res.Mesh, st.want[mode], label)
			}
			r.op(err)
			if err != nil {
				continue
			}
			inproc2Walls = append(inproc2Walls, wall.Seconds())
			if !spec.tcp {
				col.add("wall_2r_s", wall.Seconds())
				collect2r(col, &res.Stats)
			}
		case modeTCP:
			results, wall, err := generateTCP(st.clusters, spec.cfg, nil)
			for p := 0; err == nil && p < len(results); p++ {
				err = checkMesh(results[p].Mesh, st.want[mode], fmt.Sprintf("%s rank %d", label, p))
			}
			r.op(err)
			if err != nil {
				continue
			}
			tcpWalls = append(tcpWalls, wall.Seconds())
			col.add("wall_2r_s", wall.Seconds())
			collect2r(col, &results[0].Stats)
		}
	}
	if len(inproc2Walls) > 0 && col.has("wall_1r_s") {
		col.set("core.speedup_2r", col.median("wall_1r_s")/median(inproc2Walls))
	}
	if len(tcpWalls) > 0 && len(inproc2Walls) > 0 {
		col.set("mpi.tcp_over_inproc", median(tcpWalls)/median(inproc2Walls))
	}
	if !rc.traced {
		return r.finish(rc, start)
	}

	rec := newRecorder()
	root := rec.begin(0, "", "bench", "traced-pass")
	genAudited(rc, spec, r, st, rec, root)
	tracedTail(rc, spec, r, st, rec, root, col.median("wall_1r_s"), true)
	if err := r.finishTrace(rc, rec, root); err != nil {
		r.fail(err)
	}
	return r.finish(rc, start)
}

// tracedTail is the part of a traced pass every workload shares: the
// config once per mode with the program's tracer on, the layer replay,
// the service probe (for workloads that do not drive meshd themselves)
// and the micro-probes. base1r is the untraced 1-rank wall the tracing
// overhead is taken against.
func tracedTail(rc *runCtx, spec *genSpec, r *workloadResult, st *genState, rec *recorder, root int, base1r float64, withService bool) {
	col := r.col
	poolGets, poolPuts := mpi.PoolCounters()
	if genTracedRuns(rc, spec, r, st, rec, root, base1r) {
		m, err := replayLayers(rec, root, spec.cfg, rc.in.AdaptMetric, st.want[mode1r], col)
		r.op(err)
		if err == nil {
			if v := auditAdapted(rec, root, m, col); v > 0 {
				r.fail(fmt.Errorf("%s: adapted-profile audit of the replayed mesh: %d violations", spec.name, v))
			}
		}
	}
	if withService {
		serviceProbe(rc, rec, root, r, spec.cfg, st.want[mode2r])
	}
	microProbes(rc, rec, root, col)
	if g, p := mpi.PoolCounters(); g > poolGets {
		col.set("mpi.pool_reuse_frac", float64(p-poolPuts)/float64(g-poolGets))
	}
}

// referencePass is the traced pass of the workloads whose timed operation
// is not a generation (adapt-bl, meshd-mix): the generation config behind
// them is verified, run once per rank count for its public Stats, and
// then taken through the shared tail.
func referencePass(rc *runCtx, spec *genSpec, r *workloadResult, rec *recorder, root int, withService bool) {
	st, err := genSetup(spec, r, false)
	if err != nil {
		return
	}
	defer st.close()
	res1, wall1, err := generate(spec.cfg, 1, false, nil)
	r.op(err)
	if err != nil {
		return
	}
	collect1r(r.col, &res1.Stats, wall1)
	res2, wall2, err := generate(spec.cfg, 2, false, nil)
	r.op(err)
	if err != nil {
		return
	}
	collect2r(r.col, &res2.Stats)
	r.col.set("core.speedup_2r", wall1.Seconds()/wall2.Seconds())
	genAudited(rc, spec, r, st, rec, root)
	tracedTail(rc, spec, r, st, rec, root, wall1.Seconds(), withService)
}

// genAudited runs the audited 1-rank repetitions of a traced run:
// core.wall_audit_1r_s, core.stage.audit_s and, where the audit is not
// the gate, the recorded verdict audit.full_ok.
func genAudited(rc *runCtx, spec *genSpec, r *workloadResult, st *genState, rec *recorder, root int) {
	col := r.col
	n := spec.auditReps
	if rc.quick {
		n = 1
	}
	for i := 0; i < n; i++ {
		runtime.GC()
		id := rec.begin(root, "run-audited", "core", "Generate/1r-audited")
		res, wall, err := generate(spec.cfg, 1, true, nil)
		rec.end(id, nil)
		if err != nil && spec.pipelineAudit {
			r.op(fmt.Errorf("%s: audited run: %w", spec.name, err))
			continue
		}
		if spec.pipelineAudit {
			r.op(checkMesh(res.Mesh, st.want[mode1r], spec.name+"/audited"))
		}
		if i == 0 && n > 1 {
			continue // warm-up
		}
		col.add("core.wall_audit_1r_s", wall.Seconds())
		if err == nil {
			col.add("core.stage.audit_s", stageOf(&res.Stats, "audit").Wall.Seconds())
			if !spec.pipelineAudit {
				col.set("audit.full_ok", 1)
			}
			continue
		}
		// A failed audit returns no Stats; the stage span of a traced
		// repeat still says how long the audit stage ran.
		col.set("audit.full_ok", 0)
		tr := trace.New(1)
		_, _, _ = generate(spec.cfg, 1, true, tr)
		if d, ok := stageWall(tr, "audit"); ok {
			col.add("core.stage.audit_s", d.Seconds())
		}
	}
}

// genTracedRuns runs the workload once per mode with the program's own
// tracer on, each under a span with the tracer's stage spans imported
// beneath it, and writes the Chrome trace of the 2-rank run. It reports
// whether the 1-rank run succeeded.
func genTracedRuns(rc *runCtx, spec *genSpec, r *workloadResult, st *genState, rec *recorder, root int, base1r float64) bool {
	traced := func(run string, tr *trace.Tracer, do func() error) bool {
		id := rec.begin(root, run, "core", "Generate/"+run)
		origin := rec.now()
		err := do()
		rec.end(id, nil)
		r.op(err)
		if err == nil {
			rec.importStages(id, run, tr, origin)
		}
		return err == nil
	}

	tr1 := trace.New(1)
	var wall time.Duration
	if !traced("traced-1r", tr1, func() error {
		res, w, err := generate(spec.cfg, 1, false, tr1)
		if err != nil {
			return err
		}
		wall = w
		return checkMesh(res.Mesh, st.want[mode1r], spec.name+"/traced-1r")
	}) {
		return false
	}
	r.col.set("trace.overhead_frac", wall.Seconds()/base1r-1)
	r.col.set("trace.events", float64(tr1.Events()))

	tr2 := trace.New(2)
	ok := false
	if spec.tcp {
		ok = traced("traced-tcp", tr2, func() error {
			results, _, err := generateTCP(st.clusters, spec.cfg, []*trace.Tracer{tr2, trace.New(2)})
			for p := 0; err == nil && p < len(results); p++ {
				err = checkMesh(results[p].Mesh, st.want[modeTCP], fmt.Sprintf("%s/traced-tcp rank %d", spec.name, p))
			}
			return err
		})
	} else {
		ok = traced("traced-2r", tr2, func() error {
			res, _, err := generate(spec.cfg, 2, false, tr2)
			if err != nil {
				return err
			}
			return checkMesh(res.Mesh, st.want[mode2r], spec.name+"/traced-2r")
		})
	}
	if ok && spec.keepTrace {
		if err := writeChromeTrace(filepath.Join(rc.outDir, spec.name+".trace.json"), tr2); err != nil {
			r.fail(err)
		}
	}
	return true
}

func writeChromeTrace(path string, tr *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
