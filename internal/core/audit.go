package core

// The audit stage: post-merge invariant verification of the final mesh
// over the internal/audit check registry. After the inviscid agreement
// every process holds the identical merged mesh, layers and path edges, so
// each one audits its own copy with audit.RunContext — the executor
// meshcheck and bench/ use — and reaches the same verdict without a
// message. A failed audit surfaces as a *PhaseError for the "audit" stage
// wrapping an *audit.Error; no rank is attributed, because none ran it
// alone. Under Config.Audit the boundary-layer check does not wait for the
// mesh: it reads only the layers, which are final once ray-insertion ends,
// so it starts there on a goroutine of its own, runs beside
// bl-triangulation, and the stage collects its findings in check order.

import (
	"pamg2d/internal/audit"
	"pamg2d/internal/geom"
)

// fullAudit reports whether the run gets the audit stage, whose orientation
// and conformity checks then stand in for the merge's Mesh.Audit gate: under
// Config.Audit, and once the fabric recorded a rank death, so a mesh finished
// on survivors is never accepted unaudited. Each caller asks when reached.
func (rc *RunCtx) fullAudit() bool {
	return rc.cfg.Audit || len(rc.cfg.Fabric.DeadRanks()) > 0
}

// auditStage is the pipeline's last stage; it runs when fullAudit holds.
type auditStage struct{}

func (auditStage) Name() string { return StageAudit }

func (auditStage) skip(rc *RunCtx) bool { return !rc.fullAudit() }

func (auditStage) Run(rc *RunCtx) error {
	if rc.cfg.testMutateMesh != nil {
		rc.cfg.testMutateMesh(rc.res.Mesh)
	}
	rep, err := audit.RunContext(rc.ctx, rc.auditSnapshot(), rc.auditChecks())
	if err != nil {
		return err
	}
	for _, st := range rep.Checks {
		if !st.Skipped {
			rc.stats.recordStage(StageStat{
				Name:   StageAudit + "/" + st.Name,
				Wall:   st.Wall,
				Allocs: st.Allocs,
			})
		}
	}
	rc.stats.Audit = rep
	return rep.Error()
}

// auditChecks is the registry the run audits against.
func (rc *RunCtx) auditChecks() []audit.Check {
	if rc.testChecks != nil {
		return rc.testChecks
	}
	return audit.All()
}

// startAudit starts, under Config.Audit, the checks that read only the
// boundary layers, at the end of ray-insertion. A run that becomes fully
// audited only because a rank died runs them in the audit stage instead.
func (rc *RunCtx) startAudit() {
	if !rc.cfg.Audit {
		return
	}
	rc.snap = &audit.Snapshot{Layers: rc.layers, BL: rc.cfg.BL}
	rc.snap.Start(rc.ctx, rc.auditChecks(), rc.tracer)
}

// stopAudit joins the checks startAudit started: on a run that failed or
// was cancelled before the audit stage collected them it cancels them
// first. runStages defers it, so no exit path leaves one running.
func (rc *RunCtx) stopAudit() {
	if rc.snap != nil {
		rc.snap.Stop()
	}
}

// auditSnapshot completes the snapshot startAudit began, or makes one, with
// the merged mesh and its generation context.
func (rc *RunCtx) auditSnapshot() *audit.Snapshot {
	s := rc.snap
	if s == nil {
		s = &audit.Snapshot{Layers: rc.layers, BL: rc.cfg.BL}
	}
	// The path edges, kept verbatim by NoSplitSegments: the transition inputs'
	// segments (BL outer boundary, near-body box border, sector cuts), then
	// the decoupled region borders.
	var paths [][2]geom.Point
	for _, ti := range rc.transInputs {
		for _, sg := range ti.Segments {
			paths = append(paths, [2]geom.Point{ti.Points[sg[0]], ti.Points[sg[1]]})
		}
	}
	for _, r := range rc.regions {
		for k, p := range r.Border {
			paths = append(paths, [2]geom.Point{p, r.Border[(k+1)%len(r.Border)]})
		}
	}
	s.Mesh, s.Paths, s.Farfield = rc.res.Mesh, paths, rc.ffBox
	return s
}
