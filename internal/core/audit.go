package core

// The optional audit stage: post-merge invariant verification of the final
// mesh over the internal/audit check registry. Element-local checks are
// chunked into jobs and fanned out across the ranks through runPhase, the
// same executor the meshing phases use; each rank ships its typed
// violation findings and per-job measurements back to the root, which
// reduces them into one audit.Report. A failed audit surfaces as a
// *PhaseError for the "audit" stage wrapping an *audit.Error, attributed
// to the rank that found the first violation — the same contract every
// other stage failure follows.

import (
	"time"

	"pamg2d/internal/audit"
	"pamg2d/internal/loadbal"
	"pamg2d/internal/mpi"
	"pamg2d/internal/trace"
)

// kindAudit is the audit job task kind (test hooks see it like the meshing
// kinds; audit jobs are not float-encoded, the task only carries an index
// into the shared job list).
const kindAudit = 100

// auditChunk returns the element-range chunk size for local checks: small
// enough to give the balancer several jobs per rank, bounded below so tiny
// meshes do not shatter into per-element jobs.
func auditChunk(n, ranks, perRank int) int {
	c := n / (ranks * perRank)
	if c < 256 {
		c = 256
	}
	return c
}

// runAudit is the audit stage body.
func runAudit(rc *RunCtx) error {
	cfg := rc.cfg
	if cfg.testMutateMesh != nil {
		cfg.testMutateMesh(rc.res.Mesh)
	}
	s := &audit.Snapshot{
		Mesh:     rc.res.Mesh,
		Layers:   rc.layers,
		BL:       cfg.BL,
		Paths:    rc.pathEdges,
		Farfield: rc.ffBox,
	}
	// Prepare the shared read-only lookup structures at the root, before
	// any concurrent job execution.
	s.Prepare()
	checks := audit.All()
	// The fold below derives each check's skipped flag from having no jobs,
	// so PlanJobs' skip list is not needed separately.
	jobs, _ := audit.PlanJobs(s, checks, auditChunk(s.Mesh.NumTriangles(), cfg.Ranks, cfg.SubdomainsPerRank))

	results, err := auditFanOut(rc, s, jobs)
	if err != nil {
		return err
	}

	// Reduce: fold the per-job findings into per-check statistics and the
	// ordered violation list. Jobs are folded in plan order, so the report
	// is deterministic regardless of which rank ran what.
	rep := &audit.Report{}
	violRank := -1
	for _, c := range checks {
		applicable := false
		st := audit.CheckStat{Name: c.Name()}
		for ji, j := range jobs {
			if j.Check.Name() != c.Name() {
				continue
			}
			applicable = true
			r := results[ji]
			st.Wall += r.wall
			st.Allocs += r.allocs
			st.Elements += j.Elements()
			st.Violations += r.count
			for _, v := range r.violations {
				rep.Violations = append(rep.Violations, v)
				if violRank < 0 {
					violRank = v.Rank
				}
			}
		}
		if !applicable {
			st.Skipped = true
		}
		rep.Checks = append(rep.Checks, st)
		if !st.Skipped {
			rc.stats.recordStage(StageStat{
				Name:   StageAudit + "/" + st.Name,
				Wall:   st.Wall,
				Allocs: st.Allocs,
			})
		}
	}
	rc.stats.Audit = rep
	if !rep.Ok() {
		return &PhaseError{Stage: StageAudit, Rank: violRank, Err: rep.Error()}
	}
	return nil
}

// auditJobResult is one audit job's findings, shipped to the root by
// reference but accounted at the size its serialized form would occupy
// (fixed header plus the violation strings).
type auditJobResult struct {
	job        int32
	wall       time.Duration
	allocs     uint64
	count      int
	violations []audit.Violation
}

func (r *auditJobResult) TaskID() int32 { return r.job }

func (r *auditJobResult) WireBytes() int {
	n := 32
	for _, v := range r.violations {
		n += 24 + len(v.Check) + len(v.Detail)
	}
	return n
}

// auditFanOut runs the audit jobs through runPhase, the executor every
// distributed stage shares. The snapshot and job list are shared
// read-only (Prepare ran before the fan-out); only the job index travels
// in the task vector.
func auditFanOut(rc *RunCtx, s *audit.Snapshot, jobs []audit.Job) ([]*auditJobResult, error) {
	tr := rc.tracer
	tasks := make([]loadbal.Task, len(jobs))
	for i, j := range jobs {
		tasks[i] = loadbal.Task{
			ID:   int32(i),
			Cost: float64(j.Elements() + 1),
			Vals: []float64{kindAudit, float64(i)},
		}
	}
	return runPhase(rc, StageAudit, tasks, func(c *mpi.Comm, task loadbal.Task) (*auditJobResult, error) {
		j := jobs[int(task.Vals[1])]
		rep := audit.NewReporter(j.Check.Name(), c.Rank())
		sp := tr.Begin(c.Rank(), trace.CatAudit, StageAudit+"/"+j.Check.Name())
		t0 := time.Now()
		a0 := trace.Mallocs()
		j.Check.Run(s, j.From, j.To, rep)
		// The allocation delta is read off the process-global counter, so
		// concurrent jobs bleed into each other's numbers; the per-check
		// totals are best-effort under parallel execution and exact at
		// Ranks=1.
		dt := time.Since(t0)
		res := &auditJobResult{
			job:        task.ID,
			wall:       dt,
			allocs:     trace.Mallocs() - a0,
			count:      rep.Count(),
			violations: rep.Violations(),
		}
		if tr.Enabled() {
			sp.End(trace.I("job", int(task.ID)),
				trace.I("elements", j.Elements()),
				trace.I("violations", rep.Count()))
			tr.Metrics().Observe("audit.job_seconds", dt.Seconds())
		}
		return res, nil
	})
}
