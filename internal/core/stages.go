package core

// The pipeline's stages. Root-side phases are stageFunc values; the three
// distributed phases are distStage values whose prepare functions encode
// the tasks and return the merge that folds the results back into the run
// state; the audit closes the list (audit.go). All of them read and write
// only the RunCtx.

import (
	"fmt"

	"pamg2d/internal/blayer"
	"pamg2d/internal/decouple"
	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/loadbal"
	"pamg2d/internal/mesh"
	"pamg2d/internal/project"
	"pamg2d/internal/sizing"
)

// pipeline is the push-button stage graph, in execution order. Stages are
// stateless, so one shared list serves every run.
var pipeline = []Stage{
	stageFunc{StageValidate, runValidate},
	stageFunc{StageRays, runRays},
	&distStage{StageRayInsertion, prepareRayInsertion},
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

// runRays constructs and resolves the boundary-layer rays at the root
// (phase 2a); point insertion along them is the next, distributed, stage.
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

// prepareRayInsertion distributes boundary-layer point insertion across
// the ranks: rays are independent once trimmed, so batches of rays are
// balanced like any other task and only the coordinates return to the
// root (the paper's section II.C communication argument). The merge
// reassembles each layer's per-ray point lists and gathers the
// boundary-layer point set for the stages downstream.
func prepareRayInsertion(rc *RunCtx) ([]loadbal.Task, taskCtx, mergeFunc, error) {
	type batchRef struct {
		layer    int
		from, to int
		counts   []int
	}
	cfg := rc.cfg
	layers := rc.layers
	var tasks []loadbal.Task
	var refs []batchRef
	batchSize := 64
	planned := 0.0
	for li, l := range layers {
		counts := blayer.PlanCounts(l, cfg.BL)
		for from := 0; from < len(l.Rays); from += batchSize {
			to := from + batchSize
			if to > len(l.Rays) {
				to = len(l.Rays)
			}
			cost := 0.0
			for _, c := range counts[from:to] {
				cost += float64(c)
			}
			tasks = append(tasks, loadbal.Task{
				ID:            int32(len(tasks)),
				Cost:          cost + 1,
				BoundaryLayer: true,
				Vals:          rayBatchVals(l.Rays[from:to], counts[from:to]),
			})
			refs = append(refs, batchRef{layer: li, from: from, to: to, counts: counts[from:to]})
			planned += cost
		}
	}
	if planned == 0 {
		empty := &EmptyBoundaryLayerError{FirstLayer: cfg.BL.Growth.Spacing(0), Layers: cfg.BL.MaxLayers}
		for _, l := range layers {
			empty.Rays += len(l.Rays)
			for i := range l.Rays {
				empty.SurfaceSpacing = max(empty.SurfaceSpacing, l.Rays[i].Tangential)
			}
		}
		return nil, taskCtx{}, nil, empty
	}
	merge := func(results [][]float64) error {
		// Reassemble each layer's per-ray point lists from the gathered
		// coordinates.
		perLayer := make([][][]geom.Point, len(layers))
		for li, l := range layers {
			perLayer[li] = make([][]geom.Point, len(l.Rays))
		}
		for ti, ref := range refs {
			vals := results[ti]
			off := 0
			for i := ref.from; i < ref.to; i++ {
				n := ref.counts[i-ref.from]
				pts := make([]geom.Point, 0, n)
				for k := 0; k < n; k++ {
					pts = append(pts, geom.Pt(vals[off], vals[off+1]))
					off += 2
				}
				perLayer[ref.layer][i] = pts
			}
			if off != len(vals) {
				return fmt.Errorf("core: ray batch %d returned %d floats, consumed %d", ti, len(vals), off)
			}
		}
		for li, l := range layers {
			l.SetPoints(perLayer[li])
		}
		// Collect the inserted points and the surface point set the
		// filtering and outer-boundary extraction need downstream.
		var blPoints []geom.Point
		surfaceSet := make(map[geom.Point]bool)
		for _, l := range layers {
			rc.stats.BLLayerStats = append(rc.stats.BLLayerStats, l.Stats)
			blPoints = append(blPoints, l.AllPoints()...)
			for _, p := range l.Surface.Points {
				surfaceSet[p] = true
			}
		}
		rc.blPoints = blPoints
		rc.surfaceSet = surfaceSet
		rc.stats.BoundaryLayerPts = len(blPoints)
		return nil
	}
	return tasks, taskCtx{frame: rc.ffBox, bl: cfg.BL}, merge, nil
}

// prepareBLTriangulation resolves the sizing function and the near-body
// box, then decomposes the boundary-layer points with the projection-based
// decomposition and triangulates the leaves in parallel (paper Figure 8);
// each leaf keeps only its triangles inside the layer annuli. The merge
// assembles the leaves' submeshes in task order and extracts the mesh's
// outer boundary for the transition region.
func prepareBLTriangulation(rc *RunCtx) ([]loadbal.Task, taskCtx, mergeFunc, error) {
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
	tasks := blLeafTasks(leaves, len(rc.blPoints))
	merge := func(results [][]float64) error {
		b := mesh.NewBuilder()
		if err := addSubmeshes(b, results); err != nil {
			return err
		}
		rc.builder = b
		bl := b.Mesh()
		rc.stats.BLTriangles = bl.NumTriangles()
		// Extract the outer boundary of the boundary-layer mesh: boundary
		// edges whose endpoints are not both surface points. The transition
		// task shares those points, and only path points went through the
		// builder's index, so declare them.
		var outerIdx []int32
		rc.outerPts, rc.outerSegs, outerIdx = outerBoundary(bl, rc.surfaceSet)
		if len(rc.outerSegs) == 0 {
			return fmt.Errorf("core: boundary-layer mesh has no outer boundary")
		}
		b.Share(outerIdx)
		return nil
	}
	return tasks, taskCtx{frame: rc.ffBox, annuli: layerAnnuli(rc.layers, cfg.BL)}, merge, nil
}

// prepareInviscid assembles the transition region between the boundary
// layer's outer boundary and the near-body box (sector-decoupled when the
// geometry allows it) plus the decoupled inviscid subdomains, all refined
// in parallel under the load balancer (phases 4+5).
func prepareInviscid(rc *RunCtx) ([]loadbal.Task, taskCtx, mergeFunc, error) {
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

	var tasks []loadbal.Task

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
		tasks = append(tasks, loadbal.Task{
			ID:   int32(len(tasks)),
			Cost: float64(len(ti.Points)) * 4,
			Vals: regionTaskVals(kindTransition, ti.Points, ti.Segments, ti.Holes),
		})
	}
	nTrans := len(tasks)
	for _, r := range regions {
		n := len(r.Border)
		segs := make([][2]int32, n)
		for k := 0; k < n; k++ {
			segs[k] = [2]int32{int32(k), int32((k + 1) % n)}
		}
		tasks = append(tasks, loadbal.Task{
			ID:   int32(len(tasks)),
			Cost: r.Cost(size),
			Vals: regionTaskVals(kindInviscid, r.Border, segs, nil),
		})
	}
	merge := func(results [][]float64) error {
		trans, inv := 0, 0
		for i, r := range results {
			_, _, nt, err := submeshCounts(r)
			if err != nil {
				return fmt.Errorf("task %d result: %w", i, err)
			}
			if i < nTrans {
				trans += nt
			} else {
				inv += nt
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
	if err := addSubmeshes(b, rc.isoResults); err != nil {
		return err
	}
	rc.res.Mesh = b.Mesh()
	rc.stats.TotalTriangles = rc.res.Mesh.NumTriangles()
	if !rc.fullAudit() {
		if err := rc.res.Mesh.Audit(); err != nil {
			return fmt.Errorf("core: final mesh failed audit: %w", err)
		}
	}
	return nil
}
