package core

// The audit stage: post-merge invariant verification of the final mesh
// over the internal/audit check registry. After the inviscid agreement
// every process holds the identical merged mesh, layers and path edges, so
// each one audits its own copy with audit.RunContext — the executor
// meshcheck and bench/ use — and reaches the same verdict without a
// message. A failed audit surfaces as a *PhaseError for the "audit" stage
// wrapping an *audit.Error; no rank is attributed, because none ran it
// alone.

import (
	"pamg2d/internal/audit"
)

// auditStage is the pipeline's last stage. It runs when the config asks
// for it (Config.Audit) and on every degraded run — one whose fabric
// recorded a rank death — so a mesh finished on survivors is never
// accepted unaudited. Whether the fabric lost a rank is only known once
// the stages before it ran, so the decision is taken when it is reached.
type auditStage struct{}

func (auditStage) Name() string { return StageAudit }

func (auditStage) skip(rc *RunCtx) bool {
	return !rc.cfg.Audit && (rc.cfg.Fabric == nil || len(rc.cfg.Fabric.DeadRanks()) == 0)
}

func (auditStage) Run(rc *RunCtx) error {
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
	rep, err := audit.RunContext(rc.ctx, s, audit.All())
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
