package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"pamg2d/internal/audit"
	"pamg2d/internal/blayer"
	"pamg2d/internal/core"
	"pamg2d/internal/decouple"
	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
	"pamg2d/internal/metric"
	"pamg2d/internal/project"
	"pamg2d/internal/pslg"
	"pamg2d/internal/sizing"
)

// replayLayers is the layer replay: it walks the workload's own input
// through each layer's exported functions in pipeline order, on the real
// intermediate data, with a span around every call. The glue between the
// calls (which leaves to cut, which triangles to keep, how the transition
// region is assembled) mirrors internal/core at 1 rank, so the mesh it
// ends with is the pipeline's 1-rank mesh bit for bit; core.replay_match
// records whether that still holds. It returns the replayed mesh.
func replayLayers(rec *recorder, parent int, cfg core.Config, adaptSpec string, want1r string, col *collector) (*mesh.Mesh, error) {
	const run = "replay"
	sec := func(d time.Duration) float64 { return d.Seconds() }

	// pslg: build + validate the graph.
	var g *pslg.Graph
	var err error
	d := rec.in(parent, run, "pslg", "Graph", func() { g, err = cfg.Geometry.Graph() })
	if err != nil {
		return nil, fmt.Errorf("replay: graph: %w", err)
	}
	col.set("pslg.graph_s", sec(d))
	ffBox := g.Farfield.BBox()

	// blayer: rays at the root, then point insertion ray by ray.
	var layers []*blayer.Layer
	d = rec.in(parent, run, "blayer", "GenerateRays", func() { layers = blayer.GenerateRays(g, cfg.BL) })
	col.set("blayer.rays_s", sec(d))
	nRays := 0
	id := rec.begin(parent, run, "blayer", "PlanCounts+InsertRay")
	for _, l := range layers {
		counts := blayer.PlanCounts(l, cfg.BL)
		pts := make([][]geom.Point, len(l.Rays))
		for i := range l.Rays {
			pts[i] = blayer.InsertRay(&l.Rays[i], cfg.BL, counts[i])
		}
		l.SetPoints(pts)
		nRays += len(l.Rays)
	}
	var blPoints []geom.Point
	surfaceSet := make(map[geom.Point]bool)
	for _, l := range layers {
		blPoints = append(blPoints, l.AllPoints()...)
		for _, p := range l.Surface.Points {
			surfaceSet[p] = true
		}
	}
	d = rec.end(id, map[string]float64{"rays": float64(nRays), "points": float64(len(blPoints))})
	col.set("blayer.insert_s", sec(d))
	col.set("blayer.rays", float64(nRays))
	col.set("blayer.points", float64(len(blPoints)))

	// sizing: the graded field off the surface.
	var surfacePts []geom.Point
	for i := range g.Surfaces {
		surfacePts = append(surfacePts, g.Surfaces[i].Points...)
	}
	var grad *sizing.Graded
	d = rec.in(parent, run, "sizing", "NewGraded", func() {
		grad = sizing.NewGraded(surfacePts, cfg.SurfaceH0, cfg.Gradation, cfg.HMax)
	})
	col.set("sizing.build_s", sec(d))
	size := sizing.Func(grad.Area)
	id = rec.begin(parent, run, "sizing", "Area")
	queries := 0
	var sink float64
	for i := 0; i < len(blPoints); i += 1 + len(blPoints)/20000 {
		sink += grad.Area(blPoints[i])
		queries++
	}
	for i := 0; i < 64; i++ { // far from the body, where the grid search runs longest
		for j := 0; j < 64; j++ {
			sink += grad.Area(geom.Pt(ffBox.Min.X+ffBox.Width()*float64(i)/63, ffBox.Min.Y+ffBox.Height()*float64(j)/63))
			queries++
		}
	}
	d = rec.end(id, map[string]float64{"queries": float64(queries), "sum": sink})
	col.set("sizing.area_ns", float64(d.Nanoseconds())/float64(queries))

	blBox := geom.BBoxOf(blPoints)
	nbBox := blBox.Inflate(cfg.NearBodyMargin * (blBox.Width() + blBox.Height()) / 2)

	// project: decomposition of the boundary-layer points.
	depth := 1
	for 1<<depth < cfg.SubdomainsPerRank {
		depth++
	}
	var leaves []*project.Subdomain
	id = rec.begin(parent, run, "project", "New+Decompose")
	leaves, _ = project.Decompose(project.New(blPoints), project.Options{MinVerts: 16, MaxDepth: depth})
	for _, leaf := range leaves {
		leaf.DropYSorted()
	}
	d = rec.end(id, map[string]float64{"leaves": float64(len(leaves))})
	col.set("project.decompose_s", sec(d))
	col.set("project.leaves", float64(len(leaves)))
	leafSizes := make([]float64, len(leaves))
	leafInputs := make([]delaunay.Input, len(leaves))
	for i, leaf := range leaves {
		leafSizes[i] = float64(leaf.Len())
		pts := make([]geom.Point, leaf.Len())
		for k, v := range leaf.XS {
			pts[k] = v.P
		}
		leafInputs[i] = delaunay.Input{Points: pts, Sorted: true, Frame: ffBox}
	}
	col.set("project.leaf_imbalance", maxOverMean(leafSizes))

	// delaunay: every leaf with the sequential kernel; each leaf keeps the
	// triangles whose circumcenter it owns.
	var blTris []float64
	id = rec.begin(parent, run, "delaunay", "Triangulate")
	for i, in := range leafInputs {
		if len(in.Points) < 3 {
			continue
		}
		res, terr := delaunay.Triangulate(in)
		if terr != nil {
			return nil, fmt.Errorf("replay: leaf %d: %w", i, terr)
		}
		for _, tri := range res.Triangles {
			a, b, c := res.Points[tri[0]], res.Points[tri[1]], res.Points[tri[2]]
			if leaves[i].Region.Contains(geom.Circumcenter(a, b, c)) {
				blTris = append(blTris, a.X, a.Y, b.X, b.Y, c.X, c.Y)
			}
		}
	}
	d = rec.end(id, map[string]float64{"points": float64(len(blPoints)), "triangles": float64(len(blTris) / 6)})
	col.set("delaunay.triangulate_s", sec(d))
	col.set("delaunay.insert_kpts_per_s", float64(len(blPoints))/1000/sec(d))

	// The largest leaf again on both kernels: sequential, then parallel
	// with 2 workers (one leaf, because on clustered boundary-layer points
	// the parallel kernel is an order of magnitude slower today and the
	// whole set would dominate the traced pass).
	big := 0
	for i := range leafInputs {
		if len(leafInputs[i].Points) > len(leafInputs[big].Points) {
			big = i
		}
	}
	var kerr error
	seq1 := rec.in(parent, run, "delaunay", "Triangulate/largest-leaf", func() { _, kerr = delaunay.Triangulate(leafInputs[big]) })
	if kerr != nil {
		return nil, fmt.Errorf("replay: largest leaf: %w", kerr)
	}
	var ps *delaunay.ParStats
	id = rec.begin(parent, run, "delaunay", "TriangulateParallel/kw2")
	_, ps, kerr = delaunay.TriangulateParallel(leafInputs[big], delaunay.ParallelOptions{Workers: 2})
	if kerr != nil {
		rec.end(id, nil)
		return nil, fmt.Errorf("replay: kw2: %w", kerr)
	}
	d = rec.end(id, map[string]float64{"points": leafSizes[big], "rounds": float64(ps.Rounds), "inserted": float64(ps.Inserted), "conflicts": float64(ps.Conflicts)})
	col.set("delaunay.kw2_s", sec(d))
	col.set("delaunay.kw2_speedup", sec(seq1)/sec(d))
	if att := ps.Inserted + ps.Conflicts; att > 0 {
		col.set("delaunay.kw2_conflict_frac", float64(ps.Conflicts)/float64(att))
	}

	// pslg again: the root-side filter of the merged triangulation down to
	// the layer annuli, one Contains per outer border and surface.
	outers := make([]pslg.Loop, len(layers))
	for i, l := range layers {
		outers[i] = pslg.Loop{Points: l.OuterBorder(cfg.BL)}
	}
	keep := make([]bool, len(blTris)/6)
	contains := 0
	id = rec.begin(parent, run, "pslg", "Loop.Contains")
	for t := range keep {
		i := 6 * t
		ctr := geom.Pt((blTris[i]+blTris[i+2]+blTris[i+4])/3, (blTris[i+1]+blTris[i+3]+blTris[i+5])/3)
		for k := range layers {
			contains++
			if !outers[k].Contains(ctr) {
				continue
			}
			contains++
			if !layers[k].Surface.Contains(ctr) {
				keep[t] = true
				break
			}
		}
	}
	d = rec.end(id, map[string]float64{"queries": float64(contains)})
	if contains > 0 {
		col.set("pslg.contains_ns", float64(d.Nanoseconds())/float64(contains))
	}

	var buildWall time.Duration
	blb := mesh.NewBuilder()
	buildWall += rec.in(parent, run, "mesh", "Builder/boundary-layer", func() {
		for t, k := range keep {
			if k {
				i := 6 * t
				blb.AddTriangle(geom.Pt(blTris[i], blTris[i+1]), geom.Pt(blTris[i+2], blTris[i+3]), geom.Pt(blTris[i+4], blTris[i+5]))
			}
		}
	})
	blMesh := blb.Mesh()

	// Outer boundary of the boundary-layer mesh: boundary edges that are
	// not body surface.
	var outerPts []geom.Point
	var outerSegs [][2]int32
	rec.in(parent, run, "mesh", "BoundaryEdges", func() {
		index := make(map[geom.Point]int32)
		intern := func(p geom.Point) int32 {
			if i, ok := index[p]; ok {
				return i
			}
			i := int32(len(outerPts))
			outerPts = append(outerPts, p)
			index[p] = i
			return i
		}
		for _, e := range blMesh.BoundaryEdges() {
			pa, pb := blMesh.Points[e[0]], blMesh.Points[e[1]]
			if surfaceSet[pa] && surfaceSet[pb] {
				continue
			}
			outerSegs = append(outerSegs, [2]int32{intern(pa), intern(pb)})
		}
	})
	if len(outerSegs) == 0 {
		return nil, fmt.Errorf("replay: boundary-layer mesh has no outer boundary")
	}

	// decouple: the near-body box border, the four quadrants, the split.
	transIn := delaunay.Input{Frame: ffBox}
	transIn.Points = append(transIn.Points, outerPts...)
	transIn.Segments = append(transIn.Segments, outerSegs...)
	var regions []*decouple.Region
	id = rec.begin(parent, run, "decouple", "MarchBorder+InitialQuadrants+Decouple")
	nbc := [4]geom.Point{
		geom.Pt(nbBox.Min.X, nbBox.Min.Y), geom.Pt(nbBox.Max.X, nbBox.Min.Y),
		geom.Pt(nbBox.Max.X, nbBox.Max.Y), geom.Pt(nbBox.Min.X, nbBox.Max.Y),
	}
	first := int32(len(transIn.Points))
	for i := 0; i < 4; i++ {
		transIn.Points = append(transIn.Points, decouple.MarchBorder(nbc[i], nbc[(i+1)%4], size)...)
	}
	last := int32(len(transIn.Points)) - 1
	for k := first; k < last; k++ {
		transIn.Segments = append(transIn.Segments, [2]int32{k, k + 1})
	}
	transIn.Segments = append(transIn.Segments, [2]int32{last, first})
	quads, qerr := decouple.InitialQuadrants(nbBox, ffBox, size)
	if qerr == nil {
		regions = decouple.Decouple(quads[:], size, cfg.SubdomainsPerRank)
	}
	d = rec.end(id, map[string]float64{"regions": float64(len(regions))})
	if qerr != nil {
		return nil, fmt.Errorf("replay: quadrants: %w", qerr)
	}
	col.set("decouple.decouple_s", sec(d))
	col.set("decouple.regions", float64(len(regions)))
	costs := make([]float64, len(regions))
	for i, r := range regions {
		costs[i] = r.Cost(size)
	}
	col.set("decouple.cost_imbalance", maxOverMean(costs))
	for i := range g.Surfaces {
		transIn.Holes = append(transIn.Holes, pslg.InteriorPointOf(&g.Surfaces[i]))
	}

	// The constrained edges the audit needs: transition segments and the
	// decoupled region borders.
	var paths [][2]geom.Point
	for _, s := range transIn.Segments {
		paths = append(paths, [2]geom.Point{transIn.Points[s[0]], transIn.Points[s[1]]})
	}
	for _, r := range regions {
		n := len(r.Border)
		for k := 0; k < n; k++ {
			paths = append(paths, [2]geom.Point{r.Border[k], r.Border[(k+1)%n]})
		}
	}

	// delaunay again: Ruppert refinement of the transition region and of
	// every decoupled region.
	var isoTris []float64
	emit := func(res *delaunay.Result) {
		for _, tri := range res.Triangles {
			a, b, c := res.Points[tri[0]], res.Points[tri[1]], res.Points[tri[2]]
			isoTris = append(isoTris, a.X, a.Y, b.X, b.Y, c.X, c.Y)
		}
	}
	id = rec.begin(parent, run, "delaunay", "TriangulateRefined")
	res, rerr := delaunay.TriangulateRefined(transIn, delaunay.Quality{MaxRadiusEdgeRatio: math.Sqrt2, SizeAt: size, NoSplitSegments: true})
	if rerr == nil {
		emit(res)
		for _, r := range regions {
			if res, rerr = r.Refine(size, ffBox); rerr != nil {
				break
			}
			emit(res)
		}
	}
	d = rec.end(id, map[string]float64{"triangles": float64(len(isoTris) / 6)})
	if rerr != nil {
		return nil, fmt.Errorf("replay: refine: %w", rerr)
	}
	col.set("delaunay.refine_s", sec(d))
	col.set("delaunay.refine_ktris_per_s", float64(len(isoTris)/6)/1000/sec(d))

	// mesh: merge, self-audit, the writers and the reader.
	b := mesh.NewBuilder()
	buildWall += rec.in(parent, run, "mesh", "Builder/merge", func() {
		for _, tr := range blMesh.Triangles {
			b.AddTriangle(blMesh.Points[tr[0]], blMesh.Points[tr[1]], blMesh.Points[tr[2]])
		}
		for i := 0; i+5 < len(isoTris); i += 6 {
			b.AddTriangle(geom.Pt(isoTris[i], isoTris[i+1]), geom.Pt(isoTris[i+2], isoTris[i+3]), geom.Pt(isoTris[i+4], isoTris[i+5]))
		}
	})
	m := b.Mesh()
	col.set("mesh.build_s", sec(buildWall))
	var aerr error
	d = rec.in(parent, run, "mesh", "Audit", func() { aerr = m.Audit() })
	if aerr != nil {
		return nil, fmt.Errorf("replay: merged mesh: %w", aerr)
	}
	col.set("mesh.selfaudit_s", sec(d))
	var ascii, bin bytes.Buffer
	d = rec.in(parent, run, "mesh", "WriteASCII", func() { err = m.WriteASCII(&ascii) })
	if err != nil {
		return nil, err
	}
	col.set("mesh.write_ascii_s", sec(d))
	d = rec.in(parent, run, "mesh", "WriteBinary", func() { err = m.WriteBinary(&bin) })
	if err != nil {
		return nil, err
	}
	col.set("mesh.write_binary_s", sec(d))
	col.set("mesh.binary_mb", float64(bin.Len())/1e6)
	match := 0.0
	if hashBytes(bin.Bytes()) == want1r {
		match = 1
	}
	col.set("core.replay_match", match)
	d = rec.in(parent, run, "mesh", "ReadBinary", func() { _, err = mesh.ReadBinary(bytes.NewReader(bin.Bytes())) })
	if err != nil {
		return nil, err
	}
	col.set("mesh.read_binary_s", sec(d))
	var q mesh.QualityStats
	rec.in(parent, run, "mesh", "Quality", func() { q = m.Quality() })
	col.set("mesh.triangles", float64(m.NumTriangles()))
	col.set("mesh.points", float64(m.NumPoints()))
	col.set("mesh.min_angle_deg", q.MinAngleDeg)
	col.set("mesh.max_aspect", q.MaxAspectRatio)

	// audit: the full registry on a fresh snapshot, then the adapted
	// profile on another.
	snap := &audit.Snapshot{Mesh: m, Layers: layers, BL: cfg.BL, Paths: paths, Farfield: ffBox}
	prep := rec.in(parent, run, "audit", "Snapshot.Prepare", snap.Prepare)
	col.set("audit.prepare_s", sec(prep))
	// One check at a time, so a check that panics (see runAudit) still has
	// its wall and does not take the others' numbers with it.
	total, violations := prep, 0
	for _, c := range audit.All() {
		id = rec.begin(parent, run, "audit", "Run/"+c.Name())
		rep, aerr := runAudit(snap, []audit.Check{c})
		wall := rec.end(id, nil)
		if aerr != nil {
			violations++
		} else {
			violations += countViolations(rep)
			if !rep.Checks[0].Skipped {
				wall = rep.Checks[0].Wall
			}
		}
		col.set("audit.check."+c.Name()+"_s", wall.Seconds())
		total += wall
	}
	col.set("audit.total_s", sec(total))
	col.set("audit.violations", float64(violations))

	if err := replayMetric(rec, parent, m, adaptSpec, col); err != nil {
		return nil, err
	}
	return m, nil
}

// replayMetric times the metric layer on a mesh: sampling the analytic
// field at every vertex and summarising the edges under it.
func replayMetric(rec *recorder, parent int, m *mesh.Mesh, spec string, col *collector) error {
	fn, err := metric.ParseSpec(spec)
	if err != nil {
		return err
	}
	var f metric.Field
	d := rec.in(parent, "replay", "metric", "Analytic", func() { f = metric.Analytic(m, fn) })
	col.set("metric.analytic_s", d.Seconds())
	d = rec.in(parent, "replay", "metric", "FieldStats", func() { _, err = metric.FieldStats(m, f, 0) })
	col.set("metric.fieldstats_s", d.Seconds())
	return err
}

// auditAdapted times audit.Run with the Adapted profile on the workload's
// output mesh and returns the violations it found.
func auditAdapted(rec *recorder, parent int, m *mesh.Mesh, col *collector) int {
	var rep *audit.Report
	var err error
	d := rec.in(parent, "replay", "audit", "Run/Adapted", func() {
		rep, err = runAudit(&audit.Snapshot{Mesh: m}, audit.Adapted())
	})
	col.set("audit.adapted_s", d.Seconds())
	if err != nil {
		return 1
	}
	return countViolations(rep)
}

// countViolations sums the per-check counts, which stay exact when the
// recorded violation list is truncated.
func countViolations(rep *audit.Report) int {
	n := 0
	for _, c := range rep.Checks {
		n += c.Violations
	}
	return n
}
