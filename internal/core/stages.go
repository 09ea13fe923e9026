package core

// The pipeline's stages. Root-side phases are stageFunc values; the two
// distributed phases are distStage values whose prepare functions build
// the tasks and return the merge that folds the results back into the run
// state; the audit closes the list (audit.go). All of them read and write
// only the RunCtx.

import (
	"fmt"

	"pamg2d/internal/blayer"
	"pamg2d/internal/decouple"
	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/project"
	"pamg2d/internal/sizing"
)

// pipeline is the push-button stage graph, in execution order. Stages are
// stateless, so one shared list serves every run.
var pipeline = []Stage{
	stageFunc{StageValidate, runValidate},
	stageFunc{StageRays, runRays},
	stageFunc{StageRayInsertion, runRayInsertion},
	&distStage{StageBLTriangulation, prepareBLTriangulation},
	&distStage{StageInviscid, prepareInviscid},
	stageFunc{StageMerge, runMerge},
	auditStage{},
}

// runValidate builds and validates the PSLG (phase 1).
func runValidate(rc *RunCtx) error {
	g, err := rc.cfg.graph()
	if err != nil {
		return err
	}
	rc.g = g
	rc.ffBox = g.Farfield.BBox()
	rc.stats.SurfacePoints = g.NumPoints() - len(g.Farfield.Points)
	return nil
}

// runRays constructs and resolves the boundary-layer rays (phase 2a);
// point insertion along them is the next stage.
func runRays(rc *RunCtx) error {
	rc.layers = blayer.GenerateRays(rc.g, rc.cfg.BL)
	return nil
}

// EmptyBoundaryLayerError reports a configuration under which no ray takes
// a boundary-layer point, so there is no boundary-layer mesh to put a
// transition region around. The usual cause is a first layer taller than
// the surface spacing: a ray stops taking points once the normal spacing
// reaches blayer.Params.IsotropyFactor times its tangential spacing.
type EmptyBoundaryLayerError struct {
	FirstLayer     float64 // height of the first layer
	SurfaceSpacing float64 // largest tangential surface spacing over the rays
	Rays, Layers   int     // rays planned, layers allowed per ray
}

func (e *EmptyBoundaryLayerError) Error() string {
	return fmt.Sprintf("core: the boundary layer is empty: none of %d rays takes any of %d layers, first layer height %g against a surface spacing of at most %g",
		e.Rays, e.Layers, e.FirstLayer, e.SurfaceSpacing)
}

// runRayInsertion inserts the boundary-layer points along the trimmed rays
// (phase 2b). Every process of a run holds the rays and the points follow
// from them deterministically, so each process inserts its own and nothing
// crosses the wire; the sequential baseline inserts through the same
// Layer.InsertPoints.
func runRayInsertion(rc *RunCtx) error {
	p := rc.cfg.BL
	points := 0
	for _, l := range rc.layers {
		l.InsertPoints(p)
		points += l.Stats.TotalPoints
	}
	if points == 0 {
		empty := &EmptyBoundaryLayerError{FirstLayer: p.Growth.Spacing(0), Layers: p.MaxLayers}
		for _, l := range rc.layers {
			empty.Rays += len(l.Rays)
			for i := range l.Rays {
				empty.SurfaceSpacing = max(empty.SurfaceSpacing, l.Rays[i].Tangential)
			}
		}
		return empty
	}
	for _, l := range rc.layers {
		rc.stats.BLLayerStats = append(rc.stats.BLLayerStats, l.Stats)
	}
	rc.blPoints, rc.surfaceSet = gatherBoundaryLayer(rc.layers)
	rc.stats.BoundaryLayerPts = len(rc.blPoints)
	return nil
}

// prepareBLTriangulation resolves the sizing function and the near-body
// box, then decomposes the boundary-layer points with the projection-based
// decomposition and triangulates the leaves in parallel (paper Figure 8);
// each leaf keeps only its triangles inside the layer annuli. The merge
// assembles the leaves' submeshes in task order and reads the mesh's outer
// boundary for the transition region off the edges the leaves return.
func prepareBLTriangulation(rc *RunCtx) ([]meshTask, taskCtx, mergeFunc, error) {
	cfg := rc.cfg
	var surfacePts []geom.Point
	for i := range rc.g.Surfaces {
		surfacePts = append(surfacePts, rc.g.Surfaces[i].Points...)
	}
	grad := sizing.NewGraded(surfacePts, cfg.SurfaceH0, cfg.Gradation, cfg.HMax)
	rc.size, rc.sizeSlope = grad.Area, grad.Slope()

	blBox := geom.BBoxOf(rc.blPoints)
	d := cfg.NearBodyMargin * (blBox.Width() + blBox.Height()) / 2
	nbBox := blBox.Inflate(d)
	if nbBox.Min.X <= rc.ffBox.Min.X || nbBox.Max.X >= rc.ffBox.Max.X ||
		nbBox.Min.Y <= rc.ffBox.Min.Y || nbBox.Max.Y >= rc.ffBox.Max.Y {
		return nil, taskCtx{}, nil, fmt.Errorf("core: near-body box %v not inside the far field %v; increase FarfieldChords", nbBox, rc.ffBox)
	}
	rc.nbBox = nbBox

	root := project.New(rc.blPoints)
	depth := 1
	for 1<<depth < cfg.Ranks*cfg.SubdomainsPerRank {
		depth++
	}
	leaves, _ := project.Decompose(root, project.Options{MinVerts: 16, MaxDepth: depth})
	tasks, dealt := blLeafTasks(leaves, len(rc.blPoints))
	merge := func(results []submesh) error {
		b, pts, segs := mergeBoundaryLayer(results, rc.surfaceSet)
		if len(segs) == 0 {
			return fmt.Errorf("core: boundary-layer mesh has no outer boundary")
		}
		rc.builder, rc.outerPts, rc.outerSegs = b, pts, segs
		rc.stats.BLTriangles = b.Mesh().NumTriangles()
		return nil
	}
	return tasks, taskCtx{frame: rc.ffBox, annuli: layerAnnuli(rc.layers, cfg.BL), dealt: dealt}, merge, nil
}

// prepareInviscid assembles the transition region between the boundary
// layer's outer boundary and the near-body box (sector-decoupled when the
// geometry allows it) plus the decoupled inviscid subdomains, all refined
// in parallel under the load balancer (phases 4+5).
func prepareInviscid(rc *RunCtx) ([]meshTask, taskCtx, mergeFunc, error) {
	cfg := rc.cfg
	size := rc.size
	transIn, err := transitionInput(rc.g, rc.outerPts, rc.outerSegs, rc.nbBox, size)
	if err != nil {
		return nil, taskCtx{}, nil, err
	}
	quads, err := decouple.InitialQuadrants(rc.nbBox, rc.ffBox, size)
	if err != nil {
		return nil, taskCtx{}, nil, err
	}
	regions := decouple.Decouple(quads[:], size, cfg.Ranks*cfg.SubdomainsPerRank)

	var tasks []meshTask

	// Transition tasks: sector-decoupled when the geometry allows it.
	want := cfg.TransitionSectors
	if want == 0 {
		want = cfg.Ranks * cfg.SubdomainsPerRank / 128
		if want > 32 {
			want = 32
		}
	}
	var transInputs []delaunay.Input
	if want > 1 {
		if sec, ok := transitionSectors(transIn, len(rc.outerPts), size, want); ok {
			transInputs = sec
		}
	}
	if transInputs == nil {
		transInputs = []delaunay.Input{transIn}
	}
	rc.transInputs, rc.regions = transInputs, regions
	for _, ti := range transInputs {
		tasks = append(tasks, meshTask{kind: kindTransition, cost: float64(len(ti.Points)) * 4, in: ti})
	}
	nTrans := len(tasks)
	for _, r := range regions {
		n := len(r.Border)
		segs := make([][2]int32, n)
		for k := 0; k < n; k++ {
			segs[k] = [2]int32{int32(k), int32((k + 1) % n)}
		}
		tasks = append(tasks, meshTask{kind: kindInviscid, cost: r.Cost(size),
			in: delaunay.Input{Points: r.Border, Segments: segs}})
	}
	merge := func(results []submesh) error {
		trans, inv := 0, 0
		for i, r := range results {
			if i < nTrans {
				trans += len(r.tris)
			} else {
				inv += len(r.tris)
			}
		}
		rc.isoResults = results
		rc.stats.TransitionTris = trans
		rc.stats.InviscidTris = inv
		return nil
	}
	return tasks, taskCtx{frame: rc.ffBox, size: size, slope: rc.sizeSlope}, merge, nil
}

// runMerge adds the transition/inviscid submeshes to the builder that
// already holds the boundary-layer mesh, giving the final mesh (phase 6),
// and gates its structure unless the audit stage will prove it.
func runMerge(rc *RunCtx) error {
	b := rc.builder
	addSubmeshes(b, rc.isoResults)
	rc.res.Mesh = b.Mesh()
	rc.stats.TotalTriangles = rc.res.Mesh.NumTriangles()
	if !rc.fullAudit() {
		if err := rc.res.Mesh.Audit(); err != nil {
			return fmt.Errorf("core: final mesh failed audit: %w", err)
		}
	}
	return nil
}
